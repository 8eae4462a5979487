// cell: campaigns of four equal-cost Algorithm-2 cells (the workload's
// Gimli mode x rounds {4, 5, 6, 7}, default-mlp) run through
// campaign::Supervisor::run with 2 worker processes x 2 threads, in a fresh
// state directory per campaign — the production path for the paper's
// Tables 2/3.  Training is over 90% of the wall time, so a fit
// optimisation shows on cells_per_min and on no other metric.
//
// The reference runs every cell in-process through campaign::run_cell: the
// bytes the sharded history payloads must match.  Its timestamped
// heartbeats and registry deltas give the per-layer fit split.
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "campaign/journal.hpp"
#include "campaign/spec.hpp"
#include "campaign/supervisor.hpp"
#include "campaign/worker.hpp"
#include "obs/trace.hpp"
#include "stages.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace mldist;

namespace {

/// CRC-32 of the concatenated reference payloads at kCellPinnedSeed, one
/// per workload, recorded from an in-process run at the commit that
/// defined this benchmark.  Any change to a payload byte at that seed
/// fails the run.
const char* pinned_crc(const std::string& target) {
  if (target == "gimli-hash") return "d8924993";
  if (target == "gimli-cipher") return "50fd454e";
  return "";
}

campaign::CampaignSpec cell_spec(const std::string& target,
                                 std::uint64_t seed) {
  campaign::CampaignSpec spec;
  spec.name = "perfbench-cell";
  spec.targets = {target};
  spec.rounds = {4, 5, 6, 7};
  spec.archs = {"default-mlp"};
  spec.base.epochs = 3;
  spec.base.offline_base_inputs = 5000;
  spec.base.threads = 2;
  spec.seed = util::derive_stream_seed(seed, 0);
  return spec;
}

/// history.jsonl as {cell id -> verbatim payload bytes}.
std::map<std::string, std::string> read_history(const std::string& path) {
  std::map<std::string, std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::string id;
    std::string payload;
    if (campaign::extract_json_string(line, "cell", id) &&
        campaign::extract_json_object(line, "payload", payload)) {
      out[id] = payload;
    }
  }
  return out;
}

}  // namespace

/// What the in-process reference run of one cell measured.
struct CellStage::Layers {
  double run_cell_s = 0.0;
  double fit_s = 0.0;
  double collect_s = 0.0;
  double online_s = 0.0;
  std::vector<double> epoch_s;
  double gflops = 0.0;
  double dense_fwd_s = 0.0;
  double dense_bwd_s = 0.0;
  double unattributed_s = 0.0;
};

struct CellStage::Run {
  campaign::CampaignReport report;
  double seconds = 0.0;
  bool traced = false;
  std::map<std::string, std::string> payloads;
};

namespace {

CellStage::Layers reference_cell(const campaign::Cell& cell,
                                 std::string* payload, std::string* error) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::MetricsSnapshot at_train;
  obs::MetricsSnapshot at_online;
  std::vector<double> fit_marks;
  const util::Timer t;
  campaign::CellHooks hooks;
  hooks.heartbeat = [&](const char* phase, int) {
    const std::string p = phase;
    if (p == "train") {
      at_train = reg.snapshot();
    } else if (p == "fit") {
      fit_marks.push_back(t.seconds());
    } else if (p == "online") {
      at_online = reg.snapshot();
    }
  };
  campaign::CellOutcome out;
  {
    obs::Span span("perfbench.cell.run_cell", "perfbench");
    span.arg("cell", cell.id);
    out = campaign::run_cell(cell, hooks);
  }
  CellStage::Layers l;
  l.run_cell_s = t.seconds();
  if (!out.ok) {
    *error = out.fail_kind + ": " + out.fail_message;
    return l;
  }
  *payload = out.payload;
  std::string part;
  double v = 0.0;
  if (campaign::extract_json_object(out.telemetry, "fit", part) &&
      json_number(part, "seconds", &v)) {
    l.fit_s = v;
  }
  if (campaign::extract_json_object(out.telemetry, "collect", part) &&
      json_number(part, "seconds", &v)) {
    l.collect_s = v;
  }
  if (campaign::extract_json_object(out.telemetry, "online_collect", part) &&
      json_number(part, "seconds", &v)) {
    l.online_s += v;
  }
  if (campaign::extract_json_object(out.telemetry, "predict", part) &&
      json_number(part, "seconds", &v)) {
    l.online_s += v;
  }
  for (std::size_t i = 1; i < fit_marks.size(); ++i) {
    l.epoch_s.push_back(fit_marks[i] - fit_marks[i - 1]);
  }
  // The offline phase (collect + fit) lies between the "train" and
  // "online" heartbeats; collection issues no GEMMs and no layer calls.
  const double flops = static_cast<double>(
      counter_delta(at_train, at_online, "kernels.gemm.flops."));
  l.gflops = l.fit_s > 0.0 ? flops / l.fit_s / 1e9 : 0.0;
  l.dense_fwd_s = static_cast<double>(counter_delta(
                      at_train, at_online, "nn.layer.", ".dense.forward_ns")) /
                  1e9;
  l.dense_bwd_s = static_cast<double>(counter_delta(
                      at_train, at_online, "nn.layer.", ".dense.backward_ns")) /
                  1e9;
  const double layers_s =
      static_cast<double>(
          counter_delta(at_train, at_online, "nn.layer.", "forward_ns") +
          counter_delta(at_train, at_online, "nn.layer.", "backward_ns")) /
      1e9;
  l.unattributed_s = l.fit_s - layers_s;
  return l;
}

}  // namespace

CellStage::CellStage(const Args& args, std::string target)
    : args_(args), target_(std::move(target)) {}

CellStage::~CellStage() = default;

void CellStage::reference(Result& res) {
  const std::vector<campaign::Cell> cells =
      campaign::expand_grid(cell_spec(target_, args_.seed));
  for (const campaign::Cell& cell : cells) {
    std::string payload;
    std::string error;
    layers_.push_back(reference_cell(cell, &payload, &error));
    res.check(error.empty(), "reference cell " + cell.id + " failed: " + error);
    ids_.push_back(cell.id);
    reference_[cell.id] = payload;
  }
  if (args_.corrupt_reference && !reference_.empty()) {
    reference_.begin()->second.back() ^= 1;
  }
  std::string concatenated;
  for (const std::string& id : ids_) concatenated += reference_[id];
  crc_ = crc_hex(concatenated);
  if (args_.seed == kCellPinnedSeed) {
    const std::string pinned = pinned_crc(target_);
    res.check(crc_ == pinned, "reference payload CRC " + crc_ +
                                  " differs from the pinned " + pinned);
  }
}

void CellStage::campaign(bool traced) {
  const std::string state_dir =
      args_.out_dir + "/cell-state-" + std::to_string(::getpid());
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);
  campaign::SupervisorOptions opt;
  opt.state_dir = state_dir;
  opt.workers = kCellWorkers;
  opt.trace_workers = traced;
  Run run;
  run.traced = traced;
  campaign::Supervisor sup(cell_spec(target_, args_.seed), opt);
  ChildPeakSampler workers;
  const util::Timer t;
  {
    obs::Span span("perfbench.cell.supervisor_run", "perfbench");
    run.report = sup.run();
  }
  run.seconds = t.seconds();
  worker_peak_mb_ = std::max(worker_peak_mb_, workers.stop());
  run.payloads = read_history(state_dir + "/history.jsonl");
  if (traced) {  // the merged worker trace, kept as an artifact
    std::error_code ec;
    std::filesystem::copy_file(
        state_dir + "/obs/campaign.trace.json",
        args_.out_dir + "/cell.workers.trace.json",
        std::filesystem::copy_options::overwrite_existing, ec);
  }
  std::filesystem::remove_all(state_dir);
  runs_.push_back(std::move(run));
}

double CellStage::untraced_rate() const {
  std::vector<double> v;
  for (const Run& r : runs_) {
    if (!r.traced) v.push_back(r.report.cells_done * 60.0 / r.seconds);
  }
  return median(v);
}

double CellStage::traced_rate() const {
  std::vector<double> v;
  for (const Run& r : runs_) {
    if (r.traced) v.push_back(r.report.cells_done * 60.0 / r.seconds);
  }
  return median(v);
}

void CellStage::finish(Result& res, bool traced) {
  std::size_t retries = 0;
  std::size_t restarts = 0;
  std::size_t untraced = 0;
  std::vector<double> walls;
  for (const Run& run : runs_) {
    const campaign::CampaignReport& r = run.report;
    res.attempted += r.cells_total;
    res.failed += r.cells_total - r.cells_done;
    retries += r.retries;
    restarts += r.worker_restarts;
    res.check(r.cells_skipped == 0,
              "campaign skipped journaled cells: the state dir was not fresh");
    res.check(run.payloads.size() == reference_.size(),
              "history has " + std::to_string(run.payloads.size()) +
                  " payloads, expected " + std::to_string(reference_.size()));
    for (const auto& [id, payload] : run.payloads) {
      const auto ref = reference_.find(id);
      res.check(ref != reference_.end() && ref->second == payload,
                "history payload of cell " + id +
                    " differs from the in-process run_cell reference");
    }
    if (!run.traced) {
      ++untraced;
      walls.push_back(run.seconds);
    }
  }
  if (!traced) return;
  res.add("cells_per_min", untraced_rate(), "1/min", untraced,
          "median over untraced campaigns of cells done x 60 / supervisor wall");

  const auto med = [&](double Layers::*field) {
    std::vector<double> v;
    for (const Layers& l : layers_) v.push_back(l.*field);
    return median(v);
  };
  double run_cell_sum = 0.0;
  for (const Layers& l : layers_) run_cell_sum += l.run_cell_s;
  res.add("campaign.overhead_frac",
          1.0 - run_cell_sum / (static_cast<double>(kCellWorkers) * median(walls)),
          "fraction", walls.size(),
          "1 - sum in-process run_cell s / (workers x untraced supervisor wall)");
  res.add("campaign.retries", static_cast<double>(retries), "count",
          runs_.size());
  res.add("campaign.worker_restarts", static_cast<double>(restarts), "count",
          runs_.size());
  std::vector<double> epochs;
  for (const Layers& l : layers_) {
    epochs.insert(epochs.end(), l.epoch_s.begin(), l.epoch_s.end());
  }
  res.add("nn.fit_s", med(&Layers::fit_s), "s", layers_.size(), "per cell");
  res.add("nn.fit_epoch_s", median(epochs), "s", epochs.size(),
          "between consecutive fit heartbeats");
  res.add("nn.fit_gflops", med(&Layers::gflops), "GFLOP/s", layers_.size());
  res.add("nn.fit.dense_fwd_s", med(&Layers::dense_fwd_s), "s",
          layers_.size(), "per cell");
  res.add("nn.fit.dense_bwd_s", med(&Layers::dense_bwd_s), "s",
          layers_.size(), "per cell");
  res.add("nn.fit.unattributed_s", med(&Layers::unattributed_s), "s",
          layers_.size(), "fit wall minus all nn.layer time, per cell");
  res.add("core.collect_s", med(&Layers::collect_s), "s", layers_.size(),
          "per cell");
  res.add("core.online_s", med(&Layers::online_s), "s", layers_.size(),
          "per cell");
  res.add("trace_overhead_frac.cell", untraced_rate() / traced_rate() - 1.0,
          "fraction", runs_.size() - untraced,
          "untraced / traced cells_per_min, minus 1");
}

std::string CellStage::detail_json() const {
  std::vector<std::string> walls;
  for (const Run& run : runs_) walls.push_back(std::to_string(run.seconds));
  util::JsonBuilder j;
  j.field("cells", static_cast<std::uint64_t>(ids_.size()))
      .field("workers", static_cast<std::uint64_t>(kCellWorkers))
      .field("payload_crc", crc_)
      .field("pinned_seed", kCellPinnedSeed)
      .field("worker_peak_mb", worker_peak_mb_)
      .raw("campaign_seconds", util::JsonBuilder::array(walls));
  return j.str();
}

}  // namespace perfbench
