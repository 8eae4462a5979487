// Obs pipeline bench (ISSUE 10): the price of worker telemetry shipping,
// with the cross-process merge contract asserted before the price is
// trusted.
//
// Paired sharded campaigns over the same toy-target grid, one ship-off and
// one ship-on campaign per pair, back to back; odd pairs run ship-on first
// so neither side always inherits the other's warm caches or leftover
// load.  The gated overhead is the interquartile mean over pairs of
// 1 - on_cells_per_sec / off_cells_per_sec: pairing cancels machine drift,
// and trimming the outer quartiles drops the pairs a scheduler burst hit
// on one side only.  (A best-of-K gap between the two sides does not
// settle as K grows: one rare fast run on either side moves it by several
// percent.  On a 4-core VM with 3-6% run-to-run jitter, best-of-3 over
// 4-cell campaigns read above the 2% ceiling in 11 of 30 runs, while one
// snapshot+encode of a worker's registry costs about 26 us per cell.)
// A serial reference run (workers=0, which folds per-cell deltas through
// the same obs/ship.hpp codec) supplies the ground-truth campaign.worker.*
// totals.
//
// Acceptance, checked by the exit status (the bench runs under ctest -L
// regress): every campaign completes with zero failed cells, the ship-on
// campaign.worker.* counters (minus the wall-clock _ns/_us names) are
// bitwise identical to the serial reference, and shipping costs less than
// 2% of cells/sec.
//
// The artifact results/BENCH_obs_pipeline.json carries the
// direction-pinned metric (obs_ship_cells_per_sec up) gated against
// tools/baselines.jsonl by tools/bench_compare.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "campaign/spec.hpp"
#include "campaign/supervisor.hpp"
#include "campaign/worker.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace {

using namespace mldist;

std::string fresh_state_dir(const char* tag, int repeat) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mldist-obs-pipeline-" + std::to_string(::getpid()) + "-" + tag +
        "-" + std::to_string(repeat)))
          .string();
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path;
}

/// True for wall-clock metric names, which merge deterministically but whose
/// values vary run to run (the DESIGN.md §10 suffix convention).
bool wall_clock_name(const std::string& name) {
  const auto ends_with = [&](const char* suffix) {
    const std::size_t n = std::strlen(suffix);
    return name.size() >= n &&
           name.compare(name.size() - n, n, suffix) == 0;
  };
  return ends_with("_ns") || ends_with("_us");
}

/// The merged campaign.worker.* counters, minus wall-clock names.
std::map<std::string, std::uint64_t> worker_counters() {
  std::map<std::string, std::uint64_t> out;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("campaign.worker.", 0) == 0 && !wall_clock_name(name)) {
      out[name] = value;
    }
  }
  return out;
}

struct CampaignRun {
  campaign::CampaignReport report;
  double seconds = 0.0;
  std::string state_dir;
};

CampaignRun run_campaign(const campaign::CampaignSpec& spec,
                         std::size_t workers, bool ship, const char* tag,
                         int repeat) {
  CampaignRun run;
  run.state_dir = fresh_state_dir(tag, repeat);
  campaign::SupervisorOptions opt;
  opt.state_dir = run.state_dir;
  opt.workers = workers;
  opt.ship_telemetry = ship;
  opt.backoff_base_s = 0.02;
  opt.backoff_cap_s = 0.1;
  opt.poll_interval_s = 0.01;
  campaign::Supervisor sup(spec, opt);
  const util::Timer timer;
  run.report = sup.run();
  run.seconds = timer.seconds();
  std::filesystem::remove_all(run.state_dir);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  // This binary is also the worker binary the supervisor execs.
  if (const int worker_rc = campaign::worker_entry(argc, argv);
      worker_rc >= 0) {
    return worker_rc;
  }
  const bench::Options opt = bench::parse_options(argc, argv);
  bench::print_header("Obs pipeline: telemetry shipping overhead", opt);

  const std::size_t cells = opt.base(16, 32);
  const std::size_t workers = 2;
  const int repeats = opt.full ? 32 : 24;
  const double max_overhead_pct = 2.0;

  campaign::CampaignSpec spec;
  spec.name = "obs-pipeline";
  spec.targets = {"toy"};
  spec.archs = {"default-mlp"};
  for (std::size_t r = 1; r <= cells; ++r) {
    spec.rounds.push_back(static_cast<int>(r));
  }
  spec.base.epochs = 2;
  spec.base.batch_size = 64;
  spec.base.threads = 1;
  spec.base.offline_base_inputs = 300;
  spec.base.online_base_inputs = 150;
  spec.seed = opt.seed;

  ::unsetenv("MLDIST_CHAOS_KILL");  // the price must be unperturbed

  // Serial reference: workers=0 folds every cell's registry delta through
  // the same encode/apply codec the workers ship through, so its merged
  // campaign.worker.* totals are the ground truth for any worker count.
  obs::MetricsRegistry::global().reset();
  const CampaignRun serial =
      run_campaign(spec, /*workers=*/0, /*ship=*/true, "serial", 0);
  const std::map<std::string, std::uint64_t> serial_counters =
      worker_counters();

  bool ok = true;
  const auto require = [&](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  require(serial.report.complete() && serial.report.cells_failed == 0,
          "serial reference campaign did not complete cleanly");
  require(!serial_counters.empty(),
          "serial reference folded no campaign.worker.* counters");

  std::printf("%-10s %3s %6s %6s %10s %14s\n", "run", "rep", "cells", "done",
              "seconds", "cells/sec");
  double off_best_cps = 0.0;
  double on_best_cps = 0.0;
  std::vector<double> pair_overhead_pct;
  std::map<std::string, std::uint64_t> shipped_counters;
  for (int rep = 0; rep < repeats; ++rep) {
    const bool off_first = rep % 2 == 0;
    CampaignRun off;
    if (off_first) {
      off = run_campaign(spec, workers, /*ship=*/false, "off", rep);
    }
    obs::MetricsRegistry::global().reset();
    const CampaignRun on =
        run_campaign(spec, workers, /*ship=*/true, "on", rep);
    shipped_counters = worker_counters();
    if (!off_first) {
      off = run_campaign(spec, workers, /*ship=*/false, "off", rep);
    }
    require(off.report.complete() && off.report.cells_failed == 0,
            "ship-off campaign did not complete cleanly");
    require(on.report.complete() && on.report.cells_failed == 0,
            "ship-on campaign did not complete cleanly");
    require(shipped_counters == serial_counters,
            "shipped campaign.worker.* counters differ from the serial "
            "reference");
    const double off_cps = static_cast<double>(off.report.cells_done) /
                           std::max(1e-9, off.seconds);
    const double on_cps = static_cast<double>(on.report.cells_done) /
                          std::max(1e-9, on.seconds);
    off_best_cps = std::max(off_best_cps, off_cps);
    on_best_cps = std::max(on_best_cps, on_cps);
    pair_overhead_pct.push_back((off_cps - on_cps) / std::max(1e-9, off_cps) *
                                100.0);
    std::printf("%-10s %3d %6zu %6zu %10.3f %14.2f\n", "ship-off", rep,
                off.report.cells_total, off.report.cells_done, off.seconds,
                off_cps);
    std::printf("%-10s %3d %6zu %6zu %10.3f %14.2f\n", "ship-on", rep,
                on.report.cells_total, on.report.cells_done, on.seconds,
                on_cps);
  }

  // Interquartile mean of the per-pair overheads, clamped at zero
  // (shipping cannot make the campaign faster; a negative value is noise).
  std::sort(pair_overhead_pct.begin(), pair_overhead_pct.end());
  const std::size_t quarter = pair_overhead_pct.size() / 4;
  const auto mid_begin = pair_overhead_pct.begin() +
                         static_cast<std::ptrdiff_t>(quarter);
  const auto mid_end = pair_overhead_pct.end() -
                       static_cast<std::ptrdiff_t>(quarter);
  const double pair_iqm_pct =
      std::accumulate(mid_begin, mid_end, 0.0) /
      static_cast<double>(std::max<std::ptrdiff_t>(1, mid_end - mid_begin));
  const double overhead_pct = std::max(0.0, pair_iqm_pct);
  const double q1_pct = *mid_begin;
  const double q3_pct = *(mid_end - 1);
  bench::print_rule();
  std::printf("best ship-off: %10.2f cells/sec\n", off_best_cps);
  std::printf("best ship-on:  %10.2f cells/sec\n", on_best_cps);
  std::printf("per-pair overhead: quartiles %.2f%% .. %.2f%% over %zu pairs\n",
              q1_pct, q3_pct, pair_overhead_pct.size());
  std::printf(
      "shipping overhead: %.2f%% (interquartile mean, ceiling %.1f%%)\n",
      overhead_pct, max_overhead_pct);
  std::printf("merged counters: %zu (bitwise vs serial: %s)\n",
              shipped_counters.size(),
              shipped_counters == serial_counters ? "ok" : "MISMATCH");
  require(overhead_pct < max_overhead_pct,
          "telemetry shipping overhead exceeds the 2% ceiling");

  util::JsonBuilder j;
  j.raw("options", bench::options_json(opt))
      .field("cells", static_cast<std::uint64_t>(cells))
      .field("workers", static_cast<std::uint64_t>(workers))
      .field("repeats", static_cast<std::uint64_t>(repeats))
      .field("obs_ship_cells_per_sec", on_best_cps)
      .field("obs_noship_cells_per_sec", off_best_cps)
      .field("ship_overhead_pct", overhead_pct)
      .field("ship_overhead_q1_pct", q1_pct)
      .field("ship_overhead_q3_pct", q3_pct)
      .field("merged_counter_names",
             static_cast<std::uint64_t>(shipped_counters.size()))
      .field("bitwise_ok", ok);
  bench::write_bench_json("obs_pipeline", j);

  if (!ok) return 1;
  std::printf("\nshipping within budget; merged totals bitwise identical\n");
  return 0;
}
