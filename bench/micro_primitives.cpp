// Micro-benchmarks (google-benchmark): throughput of every substrate the
// experiments lean on — the permutations/ciphers, the feature encoder and
// the NN forward/backward passes.  These bound how far --full budgets can
// be pushed on a given machine.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "ciphers/gift64.hpp"
#include "ciphers/gimli.hpp"
#include "ciphers/gimli_aead.hpp"
#include "ciphers/gimli_hash.hpp"
#include "ciphers/salsa20.hpp"
#include "ciphers/speck3264.hpp"
#include "ciphers/trivium.hpp"
#include "core/arch_zoo.hpp"
#include "core/dataset.hpp"
#include "core/targets.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gemm.hpp"
#include "kernels/gimli_batch.hpp"
#include "nn/optimizer.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace {

using namespace mldist;

void BM_GimliPermutation(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  ciphers::GimliState s{};
  s[0] = 1;
  for (auto _ : state) {
    ciphers::gimli_reduced(s, rounds);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GimliPermutation)->Arg(8)->Arg(24);

void BM_GimliHash(benchmark::State& state) {
  const std::vector<std::uint8_t> msg(static_cast<std::size_t>(state.range(0)),
                                      0xab);
  for (auto _ : state) {
    auto digest = ciphers::gimli_hash(msg);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GimliHash)->Arg(15)->Arg(1024);

void BM_GimliAeadEncrypt(benchmark::State& state) {
  std::array<std::uint8_t, ciphers::kGimliAeadKeyBytes> key{};
  std::array<std::uint8_t, ciphers::kGimliAeadNonceBytes> nonce{};
  const std::vector<std::uint8_t> msg(static_cast<std::size_t>(state.range(0)),
                                      0x42);
  for (auto _ : state) {
    auto out = ciphers::gimli_aead_encrypt(
        std::span<const std::uint8_t, ciphers::kGimliAeadKeyBytes>(key),
        std::span<const std::uint8_t, ciphers::kGimliAeadNonceBytes>(nonce),
        {}, msg);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GimliAeadEncrypt)->Arg(16)->Arg(1024);

void BM_SpeckEncrypt(benchmark::State& state) {
  const ciphers::Speck3264 cipher({1, 2, 3, 4});
  ciphers::SpeckBlock b{0x1234, 0x5678};
  for (auto _ : state) {
    b = cipher.encrypt(b);
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpeckEncrypt);

void BM_Gift64Encrypt(benchmark::State& state) {
  const ciphers::Gift64 cipher({1, 2, 3, 4, 5, 6, 7, 8});
  std::uint64_t p = 0x0123456789abcdefULL;
  for (auto _ : state) {
    p = cipher.encrypt(p);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Gift64Encrypt);

void BM_Salsa20Core(benchmark::State& state) {
  ciphers::SalsaState s{};
  s[0] = 1;
  for (auto _ : state) {
    s = ciphers::salsa20_core(s, 20);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Salsa20Core);

void BM_TriviumInit(benchmark::State& state) {
  const std::array<std::uint8_t, 10> key{};
  const std::array<std::uint8_t, 10> iv{};
  for (auto _ : state) {
    ciphers::Trivium t(key, iv);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TriviumInit);

// Per-implementation GEMM throughput at a training-representative shape
// (batch 128 x the 128-feature MLP's widest layer).  Args: impl index.
// Unsupported impls (avx2 on a non-AVX2 host) are skipped.
void BM_GemmKernel(benchmark::State& state) {
  const auto impl = static_cast<kernels::Impl>(state.range(0));
  if (!kernels::supported(impl)) {
    state.SkipWithError("impl not supported on this host");
    return;
  }
  const std::size_t m = 128, k = 128, n = 128;
  util::Xoshiro256 rng(11);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = static_cast<float>(rng.next_gaussian());
  for (auto& v : b) v = static_cast<float>(rng.next_gaussian());
  for (auto _ : state) {
    kernels::gemm_impl(impl, a.data(), static_cast<std::ptrdiff_t>(k), 1,
                       b.data(), static_cast<std::ptrdiff_t>(n), 1, c.data(),
                       m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(kernels::impl_name(impl));
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 *
          static_cast<double>(m * k * n),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}
BENCHMARK(BM_GemmKernel)->Arg(0)->Arg(1)->Arg(2);

// Per-implementation batched Gimli: 8 rounds (the paper's reduced window)
// over 256 states per call.  Args: impl index — reference and blocked, the
// two distinct sweeps (avx2 dispatch runs the blocked one).
void BM_GimliBatchKernel(benchmark::State& state) {
  const auto impl = static_cast<kernels::Impl>(state.range(0));
  if (!kernels::supported(impl)) {
    state.SkipWithError("impl not supported on this host");
    return;
  }
  const std::size_t n = 256;
  util::Xoshiro256 rng(12);
  std::vector<std::uint32_t> soa(12 * n);
  for (auto& w : soa) w = rng.next_u32();
  for (auto _ : state) {
    kernels::gimli_rounds_batch_impl(impl, soa.data(), n, 8, 1);
    benchmark::DoNotOptimize(soa.data());
  }
  state.SetLabel(kernels::impl_name(impl));
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GimliBatchKernel)->Arg(0)->Arg(1);

void BM_BitsToFloats(benchmark::State& state) {
  util::Xoshiro256 rng(1);
  const auto bytes = rng.bytes(16);
  float out[128];
  for (auto _ : state) {
    util::bits_to_floats(bytes, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BitsToFloats);

void BM_DatasetCollection(benchmark::State& state) {
  const core::GimliCipherTarget target(8);
  util::Xoshiro256 rng(2);
  for (auto _ : state) {
    auto ds = core::collect_dataset(target, 64, rng);
    benchmark::DoNotOptimize(ds);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DatasetCollection);

void BM_MlpForward(benchmark::State& state) {
  util::Xoshiro256 rng(3);
  auto model = core::build_default_mlp(128, 2, rng);
  nn::Mat x(128, 128);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.next_u64() & 1);
  }
  for (auto _ : state) {
    auto y = model->forward(x);
    benchmark::DoNotOptimize(y);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_MlpForward);

void BM_MlpTrainStep(benchmark::State& state) {
  util::Xoshiro256 rng(4);
  auto model = core::build_default_mlp(128, 2, rng);
  nn::Dataset ds;
  ds.x = nn::Mat(128, 128);
  ds.y.resize(128);
  for (std::size_t i = 0; i < ds.x.size(); ++i) {
    ds.x.data()[i] = static_cast<float>(rng.next_u64() & 1);
  }
  for (auto& y : ds.y) y = static_cast<int>(rng.next_below(2));
  nn::Adam adam;
  nn::FitOptions fit;
  fit.epochs = 1;
  fit.batch_size = 128;
  fit.shuffle = false;
  for (auto _ : state) {
    auto stats = model->fit(ds, adam, fit);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_MlpTrainStep);

}  // namespace

BENCHMARK_MAIN();
