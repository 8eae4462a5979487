// Graph-IR fusion: inference forward throughput of the optimised pass
// pipeline against the unoptimised graph, for the two distinguisher model
// families the IR accelerates.
//
//   unfused  set_pipeline({}) — the lowered graph executed node by node:
//            materialised im2col convolutions, standalone BatchNorm and
//            activation sweeps (the pre-IR Sequential forward, executed
//            through the same arena so only graph rewrites differ).
//   fused    the default pipeline — BatchNorm/activations folded into the
//            GEMM epilogues, im2col-free direct convolution plans, and the
//            liveness-planned scratch arena.
//
// Both paths are bitwise identical by construction (the determinism
// contract, enforced by tests/kernel_equiv_test.cpp and tests/ir_test.cpp);
// the bench re-asserts that on its own outputs before trusting the timing.
//
// Each model runs N interleaved (unfused, fused) pairs of forwards in this
// one process, alternating which path goes first; the speedup is the
// interquartile mean of the per-pair ratios.  Pairing cancels drift that a
// per-path best-of-K cannot (both sides of a pair see the same load), and
// trimming the outer quartiles drops the pairs a scheduler burst hit.
//
// The artifact results/BENCH_graph_fusion.json records per model the
// median per-forward wall time of each path and the fused-vs-unfused
// speedup with its quartiles.  Acceptance threshold, checked by the exit
// status: the Conv1D distinguisher (CNN I) fused forward must be >= 1.3x
// the unfused one.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "nn/ir/pass.hpp"
#include "nn/mat.hpp"
#include "nn/model.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace mldist;

constexpr double kMinConvSpeedup = 1.3;

bool bitwise_equal(const nn::Mat& a, const nn::Mat& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a.data()[i]) !=
        std::bit_cast<std::uint32_t>(b.data()[i])) {
      return false;
    }
  }
  return true;
}

struct PathTimes {
  double unfused_ms = 0.0;  ///< median forward
  double fused_ms = 0.0;
  bench::PairedSpeedup speedup;  ///< gated on speedup.iqm
  bool bitwise_ok = false;
};

/// Time one model family's inference forward under the empty and the
/// default pipeline on a (batch x input_bits) 0/1 matrix.  `make(rng)`
/// builds the model; it is called twice with identically-seeded rngs so
/// the unfused and fused instances carry the same weights, each compiled
/// once (no mid-measurement recompiles or arena re-allocations).
template <typename MakeModel>
PathTimes bench_model(MakeModel make, std::size_t input_bits,
                      std::size_t batch, std::size_t pairs,
                      std::uint64_t seed) {
  util::Xoshiro256 rng_unfused(seed), rng_fused(seed);
  auto unfused = make(rng_unfused);
  auto fused = make(rng_fused);
  unfused->set_pipeline({});

  util::Xoshiro256 data_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  nn::Mat x(batch, input_bits);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(data_rng.next_below(2));
  }
  // Give any BatchNorm layers non-trivial running statistics so the fused
  // epilogues do real normalisation work (same x + same weights keeps the
  // two instances' statistics identical).
  (void)unfused->forward(x, /*training=*/true);
  (void)fused->forward(x, /*training=*/true);
  const nn::Mat unfused_out = unfused->forward(x, false);  // compile + warm
  const nn::Mat fused_out = fused->forward(x, false);

  PathTimes t;
  t.speedup = bench::paired_speedup(
      pairs, [&] { (void)unfused->forward(x, false); },
      [&] { (void)fused->forward(x, false); });
  t.unfused_ms = t.speedup.base_median_s * 1e3;
  t.fused_ms = t.speedup.candidate_median_s * 1e3;
  t.bitwise_ok = bitwise_equal(unfused_out, fused_out) &&
                 bitwise_equal(fused_out, fused->forward_reference(x));
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Graph-IR fusion: inference forward, fused vs unfused",
                      opt);

  const std::size_t input_bits = 64;
  const std::size_t batch = opt.base(256, 1024);
  const std::size_t pairs = opt.full ? 48 : 24;

  std::printf("batch %zu x %zu bits, %zu interleaved forward pairs; speedup "
              "= interquartile mean of per-pair ratios\n\n",
              batch, input_bits, pairs);
  std::printf("%-12s %12s %12s %9s %13s  %s\n", "model", "unfused ms",
              "fused ms", "speedup", "quartiles", "bitwise");

  util::JsonBuilder j;
  j.raw("options", bench::options_json(opt))
      .field("input_bits", static_cast<std::uint64_t>(input_bits))
      .field("batch", static_cast<std::uint64_t>(batch))
      .field("pairs", static_cast<std::uint64_t>(pairs))
      .field("min_conv_speedup", kMinConvSpeedup);

  bool all_bitwise = true;
  const auto print_row = [](const char* model, const PathTimes& t) {
    std::printf("%-12s %12.3f %12.3f %8.2fx %6.2f..%-5.2f  %s\n", model,
                t.unfused_ms, t.fused_ms, t.speedup.iqm, t.speedup.q1,
                t.speedup.q3, t.bitwise_ok ? "ok" : "MISMATCH");
  };

  const PathTimes mlp_t = bench_model(
      [&](util::Xoshiro256& rng) {
        return core::build_default_mlp(input_bits, 2, rng);
      },
      input_bits, batch, pairs, opt.seed);
  print_row("default-mlp", mlp_t);
  all_bitwise = all_bitwise && mlp_t.bitwise_ok;
  j.field("mlp_unfused_ms", mlp_t.unfused_ms)
      .field("mlp_fused_ms", mlp_t.fused_ms)
      .field("mlp_speedup", mlp_t.speedup.iqm)
      .field("mlp_speedup_q1", mlp_t.speedup.q1)
      .field("mlp_speedup_q3", mlp_t.speedup.q3);

  const PathTimes cnn_t = bench_model(
      [&](util::Xoshiro256& rng) {
        return core::build_architecture("CNN I", input_bits, 2, rng);
      },
      input_bits, batch, pairs, opt.seed + 1);
  print_row("CNN I", cnn_t);
  all_bitwise = all_bitwise && cnn_t.bitwise_ok;
  j.field("cnn_unfused_ms", cnn_t.unfused_ms)
      .field("cnn_fused_ms", cnn_t.fused_ms)
      .field("cnn_speedup", cnn_t.speedup.iqm)
      .field("cnn_speedup_q1", cnn_t.speedup.q1)
      .field("cnn_speedup_q3", cnn_t.speedup.q3);

  const PathTimes gohr_t = bench_model(
      [&](util::Xoshiro256& rng) {
        return core::build_gohr_net(input_bits, 2, /*depth=*/2, rng);
      },
      input_bits, batch, pairs, opt.seed + 2);
  print_row("gohr-net/2", gohr_t);
  all_bitwise = all_bitwise && gohr_t.bitwise_ok;
  j.field("gohr_unfused_ms", gohr_t.unfused_ms)
      .field("gohr_fused_ms", gohr_t.fused_ms)
      .field("gohr_speedup", gohr_t.speedup.iqm)
      .field("gohr_speedup_q1", gohr_t.speedup.q1)
      .field("gohr_speedup_q3", gohr_t.speedup.q3);

  bench::print_rule();
  bench::write_bench_json("graph_fusion", j);

  if (!all_bitwise) {
    std::fprintf(stderr,
                 "FAIL: fused and unfused forwards are not bitwise equal\n");
    return 1;
  }
  if (bench::kSanitizedBuild) {
    std::printf("sanitizer build: outputs bitwise identical on every path; "
                "the %.2fx speedup floor is not asserted\n",
                kMinConvSpeedup);
    return 0;
  }
  if (cnn_t.speedup.iqm < kMinConvSpeedup) {
    std::fprintf(stderr,
                 "FAIL: CNN I fused speedup %.2fx below the %.2fx floor\n",
                 cnn_t.speedup.iqm, kMinConvSpeedup);
    return 1;
  }
  std::printf("conv fused speedup %.2fx (floor %.2fx); outputs bitwise "
              "identical on every path\n",
              cnn_t.speedup.iqm, kMinConvSpeedup);
  return 0;
}
