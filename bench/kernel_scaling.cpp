// Kernel scaling: throughput of every registered compute-kernel
// implementation (reference / blocked / avx2 / avx512) on the two hot paths the
// kernels layer accelerates — GEMM and the batched Gimli permutation — plus
// the end-to-end effect on dataset collection and a training epoch.
//
// The artifact results/BENCH_kernels.json records, per implementation, the
// GEMM GFLOP/s, batched-Gimli states/sec, the loop-vs-batch collection
// throughput and the train-epoch wall time, each with its speedup over the
// reference implementation (GEMM) or over the scalar per-sample loop
// (collection), and the ns/call and GFLOP/s of the two batch-1 gohr-net
// conv products, plus the GFLOP/s of the online game's dense products.
// The Gimli rows list the two distinct sweeps, reference and blocked (avx2
// and avx512 dispatch run the blocked one).  Acceptance thresholds,
// checked by the exit status (ctest bench_kernel_scaling):
//   * best GEMM speedup vs reference >= 2x,
//   * best batched collection speedup vs the scalar sample() loop >= 1.5x,
//   * every backend's conv products bitwise equal to the reference,
//   * with AVX-512 (outside sanitizer builds): avx512 >= 1.3x avx2 on
//     512x128x1024 and its narrow path >= 1.3x the padded 8x32 tile on
//     512x1024x2, each the median of interleaved pairs.
//
// Every implementation is bitwise identical to the reference (the
// determinism contract of src/kernels/dispatch.hpp, enforced by
// tests/kernel_equiv_test.cpp), so these numbers compare equal computations.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/arch_zoo.hpp"
#include "core/dataset.hpp"
#include "core/targets.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/gemm.hpp"
#include "kernels/gimli_batch.hpp"
#include "nn/optimizer.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace mldist;

/// Median-of-repeats wall time of `fn` (seconds).  Small repeat counts keep
/// the bench fast; the median damps scheduler noise on shared hosts.
template <typename Fn>
double timed(int repeats, Fn&& fn) {
  std::vector<double> seconds;
  seconds.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const util::Timer timer;
    fn();
    seconds.push_back(timer.seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = bench::parse_options(argc, argv);
  bench::print_header("Kernel scaling - GEMM / batched Gimli / collection",
                      opt);
  const auto impls = kernels::available_impls();
  // Batched Gimli has two sweeps; avx2 dispatch runs the blocked one.
  const std::vector<kernels::Impl> gimli_impls = {kernels::Impl::kReference,
                                                  kernels::Impl::kBlocked};
  const kernels::Impl startup = kernels::dispatch();
  util::Xoshiro256 rng(opt.seed);

  // --- GEMM throughput ----------------------------------------------------
  // Training-representative shape: batch 128 through a 128-wide layer.
  const std::size_t m = 128, k = 128, n = 128;
  const double flops = 2.0 * static_cast<double>(m * k * n);
  const int gemm_calls = opt.full ? 200 : 50;
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = static_cast<float>(rng.next_gaussian());
  for (auto& v : b) v = static_cast<float>(rng.next_gaussian());

  std::printf("GEMM %zux%zux%zu, %d calls per measurement\n", m, k, n,
              gemm_calls);
  double gemm_ref_seconds = 0.0;
  double gemm_best_speedup = 1.0;
  std::vector<std::string> gemm_json;
  for (const kernels::Impl impl : impls) {
    const double seconds = timed(5, [&] {
      for (int i = 0; i < gemm_calls; ++i) {
        kernels::gemm_impl(impl, a.data(), static_cast<std::ptrdiff_t>(k), 1,
                           b.data(), static_cast<std::ptrdiff_t>(n), 1,
                           c.data(), m, k, n);
      }
    });
    if (impl == kernels::Impl::kReference) gemm_ref_seconds = seconds;
    const double speedup = gemm_ref_seconds / seconds;
    if (speedup > gemm_best_speedup) gemm_best_speedup = speedup;
    const double gflops = flops * gemm_calls / seconds / 1e9;
    std::printf("  %-10s %8.2f GFLOP/s   %.2fx vs reference\n",
                kernels::impl_name(impl), gflops, speedup);
    util::JsonBuilder j;
    j.field("impl", kernels::impl_name(impl))
        .field("seconds", seconds)
        .field("gflops", gflops)
        .field("speedup_vs_reference", speedup);
    gemm_json.push_back(j.str());
  }
  bench::print_rule();

  // --- batch-1 gohr-net conv products --------------------------------------
  // One served observable through a kernel-3, 32-channel residual conv on a
  // 64-bit input is two products (kernels/conv1d.hpp, kDirect): the
  // interior view (62 windows x 96 x 32) and the zero-padded border rows
  // (2 x 96 x 32).  At this size fixed per-call cost, not FLOPs, sets the
  // time, so ns/call is the number to watch.  Each backend is checked
  // bitwise against the reference on the same operands.
  struct ConvProduct {
    const char* name;
    std::size_t m, k, n;
  };
  const ConvProduct conv_products[] = {{"interior", 62, 96, 32},
                                       {"border", 2, 96, 32}};
  const int conv_calls = opt.full ? 5000 : 1000;
  bool conv_bitwise_ok = true;
  std::vector<std::string> conv_json;
  for (const ConvProduct& p : conv_products) {
    std::vector<float> pa(p.m * p.k), pb(p.k * p.n), want(p.m * p.n),
        got(p.m * p.n);
    for (auto& v : pa) v = static_cast<float>(rng.next_gaussian());
    for (auto& v : pb) v = static_cast<float>(rng.next_gaussian());
    kernels::gemm_impl(kernels::Impl::kReference, pa.data(),
                       static_cast<std::ptrdiff_t>(p.k), 1, pb.data(),
                       static_cast<std::ptrdiff_t>(p.n), 1, want.data(), p.m,
                       p.k, p.n);
    const double product_flops = 2.0 * static_cast<double>(p.m * p.k * p.n);
    std::printf("gohr-net batch-1 conv %s %zux%zux%zu, %d calls\n", p.name,
                p.m, p.k, p.n, conv_calls);
    for (const kernels::Impl impl : impls) {
      const auto run = [&] {
        kernels::gemm_impl(impl, pa.data(), static_cast<std::ptrdiff_t>(p.k),
                           1, pb.data(), static_cast<std::ptrdiff_t>(p.n), 1,
                           got.data(), p.m, p.k, p.n);
      };
      const double seconds = timed(5, [&] {
        for (int i = 0; i < conv_calls; ++i) run();
      });
      const bool bitwise = std::memcmp(got.data(), want.data(),
                                       got.size() * sizeof(float)) == 0;
      conv_bitwise_ok = conv_bitwise_ok && bitwise;
      const double ns_per_call = seconds / conv_calls * 1e9;
      const double gflops = product_flops * conv_calls / seconds / 1e9;
      std::printf("  %-10s %9.0f ns/call %8.2f GFLOP/s   bitwise %s\n",
                  kernels::impl_name(impl), ns_per_call, gflops,
                  bitwise ? "ok" : "MISMATCH");
      util::JsonBuilder j;
      j.field("product", p.name)
          .field("shape", std::to_string(p.m) + "x" + std::to_string(p.k) +
                              "x" + std::to_string(p.n))
          .field("impl", kernels::impl_name(impl))
          .field("ns_per_call", ns_per_call)
          .field("gflops", gflops)
          .field("bitwise_equal_reference", bitwise);
      conv_json.push_back(j.str());
    }
  }
  bench::print_rule();

  // --- the online game's products, per backend ---------------------------
  // test() scores 512-row batches through the default MLP (128 -> 128 ->
  // 1024 -> 2): three dense products per batch.  The gohr-net batch-1
  // interior conv rides along.  Every backend's GFLOP/s is recorded (median
  // of 5 timed samples, each sized to a few ms); the reference runs one
  // call per sample.
  struct GameProduct {
    const char* name;
    std::size_t m, k, n;
  };
  const GameProduct game_products[] = {{"dense_in", 512, 128, 128},
                                       {"dense_hidden", 512, 128, 1024},
                                       {"dense_head", 512, 1024, 2},
                                       {"gohr_conv_interior", 62, 96, 32}};
  std::vector<std::string> game_json;
  for (const GameProduct& p : game_products) {
    std::vector<float> pa(p.m * p.k), pb(p.k * p.n), pc(p.m * p.n);
    for (auto& v : pa) v = static_cast<float>(rng.next_gaussian());
    for (auto& v : pb) v = static_cast<float>(rng.next_gaussian());
    const double product_flops = 2.0 * static_cast<double>(p.m * p.k * p.n);
    std::printf("game product %s %zux%zux%zu\n", p.name, p.m, p.k, p.n);
    for (const kernels::Impl impl : impls) {
      const int calls =
          impl == kernels::Impl::kReference
              ? 1
              : std::max(1, static_cast<int>(4e8 / product_flops));
      const double seconds = timed(5, [&] {
        for (int i = 0; i < calls; ++i) {
          kernels::gemm_impl(impl, pa.data(),
                             static_cast<std::ptrdiff_t>(p.k), 1, pb.data(),
                             static_cast<std::ptrdiff_t>(p.n), 1, pc.data(),
                             p.m, p.k, p.n);
        }
      });
      const double gflops = product_flops * calls / seconds / 1e9;
      std::printf("  %-10s %8.2f GFLOP/s\n", kernels::impl_name(impl),
                  gflops);
      util::JsonBuilder j;
      j.field("product", p.name)
          .field("shape", std::to_string(p.m) + "x" + std::to_string(p.k) +
                              "x" + std::to_string(p.n))
          .field("impl", kernels::impl_name(impl))
          .field("gflops", gflops);
      game_json.push_back(j.str());
    }
  }
  bench::print_rule();

  // --- the AVX-512 margins ------------------------------------------------
  // avx512 earns its place only by a gated margin (ROADMAP): its 8x32 tile
  // against avx2 on the hidden product, and its narrow-output path against
  // the same 8x32 tile padded out to n = 2 on the head.  Each margin is the
  // median over interleaved (base, candidate) pairs of calls.
  constexpr double kMinAvx512Margin = 1.3;
  constexpr std::size_t kMarginPairs = 21;
  bool margins_ok = true;
  util::JsonBuilder margins;
  const char* skip_reason =
      bench::kSanitizedBuild ? "sanitizer build: wall-clock margins are not "
                               "meaningful"
      : !kernels::supported(kernels::Impl::kAvx512) ||
              !kernels::supported(kernels::Impl::kAvx2)
          ? "host or build lacks AVX-512F or AVX2"
          : nullptr;
  if (skip_reason != nullptr) {
    std::printf("avx512 margins: skipped (%s)\n", skip_reason);
    margins.field("skipped", skip_reason);
  } else {
    const auto operands = [&](std::size_t m, std::size_t k, std::size_t n) {
      std::vector<float> a(m * k), b(k * n);
      for (auto& v : a) v = static_cast<float>(rng.next_gaussian());
      for (auto& v : b) v = static_cast<float>(rng.next_gaussian());
      return std::make_pair(std::move(a), std::move(b));
    };
    const auto margin = [&](const char* what, std::size_t m, std::size_t k,
                            std::size_t n, auto&& base, auto&& candidate) {
      const auto [a, b] = operands(m, k, n);
      std::vector<float> c(m * n);
      const int calls = std::max(
          1, static_cast<int>(1e8 / (2.0 * static_cast<double>(m * k * n))));
      const auto run = [&](auto& gemm_fn) {
        return [&, calls] {
          for (int i = 0; i < calls; ++i) {
            gemm_fn(a.data(), static_cast<std::ptrdiff_t>(k), 1, b.data(),
                    static_cast<std::ptrdiff_t>(n), 1, c.data(), m, k, n,
                    kernels::GemmEpilogue{});
          }
        };
      };
      auto run_base = run(base);
      auto run_candidate = run(candidate);
      run_base();
      run_candidate();  // warm both
      const bench::PairedSpeedup s =
          bench::paired_speedup(kMarginPairs, run_base, run_candidate);
      const bool ok = s.median >= kMinAvx512Margin;
      margins_ok = margins_ok && ok;
      std::printf("  %-34s %zux%zux%zu  median %.2fx (quartiles %.2f..%.2f, "
                  "%zu pairs, floor %.2fx): %s\n",
                  what, m, k, n, s.median, s.q1, s.q3, s.pairs,
                  kMinAvx512Margin, ok ? "OK" : "FAIL");
      util::JsonBuilder j;
      j.field("shape", std::to_string(m) + "x" + std::to_string(k) + "x" +
                           std::to_string(n))
          .field("pairs", static_cast<std::uint64_t>(s.pairs))
          .field("median", s.median)
          .field("q1", s.q1)
          .field("q3", s.q3)
          .field("ok", ok);
      return j.str();
    };
    std::printf("avx512 margins\n");
    const std::string tile = margin(
        "8x32 tile (avx512) vs 6x16 (avx2)", 512, 128, 1024,
        kernels::detail::gemm_avx2, kernels::detail::gemm_avx512);
    const std::string narrow =
        margin("narrow path vs padded 8x32 tile", 512, 1024, 2,
               kernels::detail::gemm_avx512_tiled,
               kernels::detail::gemm_avx512);
    margins.raw("tile_vs_avx2", tile).raw("narrow_vs_tile", narrow);
  }
  margins.field("floor", kMinAvx512Margin).field("ok", margins_ok);
  bench::print_rule();

  // --- batched Gimli ------------------------------------------------------
  const std::size_t states = 1024;
  const int gimli_calls = opt.full ? 2000 : 500;
  std::vector<std::uint32_t> soa(12 * states);
  for (auto& w : soa) w = rng.next_u32();
  std::printf("batched Gimli, 8 rounds, %zu states/call\n", states);
  double gimli_ref_seconds = 0.0;
  std::vector<std::string> gimli_json;
  for (const kernels::Impl impl : gimli_impls) {
    const double seconds = timed(5, [&] {
      for (int i = 0; i < gimli_calls; ++i) {
        kernels::gimli_rounds_batch_impl(impl, soa.data(), states, 8, 1);
      }
    });
    if (impl == kernels::Impl::kReference) gimli_ref_seconds = seconds;
    const double speedup = gimli_ref_seconds / seconds;
    const double rate =
        static_cast<double>(states) * gimli_calls / seconds / 1e6;
    std::printf("  %-10s %8.1f Mstates/s  %.2fx vs reference\n",
                kernels::impl_name(impl), rate, speedup);
    util::JsonBuilder j;
    j.field("impl", kernels::impl_name(impl))
        .field("seconds", seconds)
        .field("mstates_per_sec", rate)
        .field("speedup_vs_reference", speedup);
    gimli_json.push_back(j.str());
  }
  bench::print_rule();

  // --- dataset collection: scalar loop vs batched path --------------------
  // The scalar loop is the pre-batching collection shape (one sample() call
  // per base input, one permutation at a time); the batched path is what
  // collect_span now does (sample_batch slabs feeding the batched kernel).
  const core::GimliHashTarget target(8);
  const std::size_t base_inputs = opt.base(1u << 12, 1u << 15);
  std::printf("collection, gimli-hash/8, %zu base inputs\n", base_inputs);
  util::Xoshiro256 loop_rng(opt.seed);
  std::vector<std::vector<std::uint8_t>> diffs;
  const double loop_seconds = timed(3, [&] {
    for (std::size_t s = 0; s < base_inputs; ++s) target.sample(loop_rng, diffs);
  });
  std::printf("  %-16s %8.3fs  %10.0f samples/s   (baseline)\n",
              "scalar loop", loop_seconds,
              static_cast<double>(base_inputs) / loop_seconds);
  double collect_best_speedup = 0.0;
  std::vector<std::string> collect_json;
  for (const kernels::Impl impl : gimli_impls) {
    kernels::set_dispatch(impl);
    util::Xoshiro256 batch_rng(opt.seed);
    core::DiffBatch batch;
    constexpr std::size_t kSlab = 256;
    const double batch_seconds = timed(3, [&] {
      for (std::size_t s = 0; s < base_inputs; s += kSlab) {
        target.sample_batch(batch_rng, std::min(kSlab, base_inputs - s),
                            batch);
      }
    });
    const double speedup = loop_seconds / batch_seconds;
    if (speedup > collect_best_speedup) collect_best_speedup = speedup;
    std::printf("  %-16s %8.3fs  %10.0f samples/s   %.2fx vs loop\n",
                (std::string("batched ") + kernels::impl_name(impl)).c_str(),
                batch_seconds,
                static_cast<double>(base_inputs) / batch_seconds, speedup);
    util::JsonBuilder j;
    j.field("impl", kernels::impl_name(impl))
        .field("seconds", batch_seconds)
        .field("samples_per_sec",
               static_cast<double>(base_inputs) / batch_seconds)
        .field("speedup_vs_loop", speedup);
    collect_json.push_back(j.str());
  }
  kernels::set_dispatch(startup);
  bench::print_rule();

  // --- end-to-end training epoch ------------------------------------------
  const std::size_t train_rows = opt.full ? 8192 : 2048;
  nn::Dataset ds;
  ds.x = nn::Mat(train_rows, 128);
  ds.y.resize(train_rows);
  for (std::size_t i = 0; i < ds.x.size(); ++i) {
    ds.x.data()[i] = static_cast<float>(rng.next_u64() & 1);
  }
  for (auto& y : ds.y) y = static_cast<int>(rng.next_below(2));
  std::printf("training, default MLP, %zu rows, 1 epoch\n", train_rows);
  double train_ref_seconds = 0.0;
  std::vector<std::string> train_json;
  for (const kernels::Impl impl : impls) {
    kernels::set_dispatch(impl);
    util::Xoshiro256 init_rng(opt.seed);
    auto model = core::build_default_mlp(128, 2, init_rng);
    nn::Adam adam;
    nn::FitOptions fit;
    fit.epochs = 1;
    fit.batch_size = 128;
    fit.shuffle = false;
    const double seconds = timed(3, [&] { model->fit(ds, adam, fit); });
    if (impl == kernels::Impl::kReference) train_ref_seconds = seconds;
    const double speedup = train_ref_seconds / seconds;
    std::printf("  %-10s %8.3fs/epoch   %.2fx vs reference\n",
                kernels::impl_name(impl), seconds, speedup);
    util::JsonBuilder j;
    j.field("impl", kernels::impl_name(impl))
        .field("seconds_per_epoch", seconds)
        .field("speedup_vs_reference", speedup);
    train_json.push_back(j.str());
  }
  kernels::set_dispatch(startup);
  bench::print_rule();

  const bool gemm_ok = gemm_best_speedup >= 2.0;
  const bool collect_ok = collect_best_speedup >= 1.5;
  std::printf("acceptance: GEMM best %.2fx (target 2x): %s   collection "
              "best %.2fx (target 1.5x): %s   conv products bitwise: %s   "
              "avx512 margins: %s\n",
              gemm_best_speedup, gemm_ok ? "OK" : "FAIL",
              collect_best_speedup, collect_ok ? "OK" : "FAIL",
              conv_bitwise_ok ? "OK" : "FAIL", margins_ok ? "OK" : "FAIL");

  util::JsonBuilder acceptance;
  acceptance.field("gemm_speedup_target", 2.0)
      .field("gemm_best_speedup", gemm_best_speedup)
      .field("gemm_ok", gemm_ok)
      .field("collect_speedup_target", 1.5)
      .field("collect_best_speedup", collect_best_speedup)
      .field("collect_ok", collect_ok)
      .field("conv_products_bitwise_ok", conv_bitwise_ok)
      .raw("avx512_margins", margins.str());
  util::JsonBuilder artifact;
  artifact.raw("options", bench::options_json(opt))
      .field("gemm_shape", std::to_string(m) + "x" + std::to_string(k) + "x" +
                               std::to_string(n))
      .raw("gemm", util::JsonBuilder::array(gemm_json))
      .raw("gohr_conv_b1", util::JsonBuilder::array(conv_json))
      .raw("game_products", util::JsonBuilder::array(game_json))
      .field("gimli_batch_states", static_cast<std::uint64_t>(states))
      .raw("gimli_batch", util::JsonBuilder::array(gimli_json))
      .field("collect_target", "gimli-hash/8")
      .field("collect_base_inputs", static_cast<std::uint64_t>(base_inputs))
      .field("collect_loop_seconds", loop_seconds)
      .raw("collect", util::JsonBuilder::array(collect_json))
      .field("train_rows", static_cast<std::uint64_t>(train_rows))
      .raw("train", util::JsonBuilder::array(train_json))
      .raw("acceptance", acceptance.str());
  bench::write_bench_json("kernels", artifact);
  std::printf("artifact: results/BENCH_kernels.json\n");
  return (gemm_ok && collect_ok && conv_bitwise_ok && margins_ok) ? 0 : 1;
}
