// The three stages of one benchmark run.  A run of either workload measures
// all three, interleaved round by round (session.cpp), so every result
// carries every metric of the benchmark:
//
//   cell   the offline cost: Algorithm-2 cells through a campaign
//          (campaign::Supervisor::run, checked against campaign::run_cell);
//   game   the online cost: core::play_games on a trained distinguisher;
//   serve  the serving cost: single-row classify requests to a
//          serve::ServeDaemon over loopback HTTP.
//
// Each stage drives the program only through its public entry points and
// fills a Result with its checks, its end-to-end numbers (untraced work)
// and its per-layer numbers (traced runs).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"

namespace mldist::core {
class MLDistinguisher;
class Target;
struct GameReport;
struct TrainReport;
}  // namespace mldist::core

namespace perfbench {

/// The seed whose cell reference payloads are pinned by CRC.
constexpr std::uint64_t kCellPinnedSeed = 1;
/// Worker processes of every measured campaign.
constexpr std::size_t kCellWorkers = 2;

/// The Gimli mode a workload runs every stage on ("gimli-hash" or
/// "gimli-cipher"); empty for an unknown workload name.
std::string workload_target(const std::string& workload);

class CellStage {
 public:
  CellStage(const Args& args, std::string target);
  ~CellStage();

  /// Every cell in-process through run_cell: the byte reference of the
  /// campaign's history payloads, and the per-layer fit split.  Checks the
  /// pinned CRC at kCellPinnedSeed.
  void reference(Result& res);
  /// One measured campaign in a fresh state dir.
  void campaign(bool traced);
  /// Payload checks and attempted/failed counts, then the metrics.
  void finish(Result& res, bool traced);

  double untraced_rate() const;  ///< median cells/min, untraced campaigns
  double traced_rate() const;
  /// The largest peak resident set of any campaign worker, MB.
  double worker_peak_mb() const { return worker_peak_mb_; }
  std::string detail_json() const;  ///< for the run's artifact

  struct Layers;
  struct Run;

 private:
  const Args& args_;
  std::string target_;
  std::vector<std::string> ids_;
  std::map<std::string, std::string> reference_;
  std::string crc_;
  std::vector<Layers> layers_;
  std::vector<Run> runs_;
  double worker_peak_mb_ = 0.0;
};

class GameStage {
 public:
  GameStage(const Args& args, const std::string& target);
  ~GameStage();

  /// Train the distinguisher once, save it, and play the reference game
  /// report with the trained model (untimed).
  void prepare(Result& res);
  /// Load the saved distinguisher, as a deployment does before its first
  /// game.  Returns the seconds it took.
  double setup(Result& res);
  /// play_games until `seconds` elapsed (at least once).
  void play(double seconds, bool traced, Result& res);
  /// Traced runs: test() per oracle kind and predict_proba at the game's
  /// batch shape.
  void measure_layers();
  void finish(Result& res, bool traced);

  double untraced_rate() const;  ///< median queries/s, untraced iterations
  double traced_rate() const;
  std::string detail_json() const;

  struct Iteration;

 private:
  const Args& args_;
  std::string target_name_;
  std::unique_ptr<mldist::core::Target> target_;
  std::unique_ptr<mldist::core::MLDistinguisher> dist_;
  std::uint64_t game_seed_;
  std::string model_path_;
  std::unique_ptr<mldist::core::TrainReport> train_report_;
  std::unique_ptr<mldist::core::GameReport> reference_;
  std::vector<Iteration> its_;
  std::vector<double> collect_ns_per_query_;
  std::vector<double> gimli_mstates_;
  std::vector<double> predict_ns_per_row_;
  std::vector<double> predict_gflops_;
};

class ServeStage {
 public:
  explicit ServeStage(const Args& args);
  ~ServeStage();

  /// Load the registry, start a daemon (stopping the previous one), answer
  /// one request.  Returns the seconds it took.
  double setup();
  /// One round's piece of every open-loop rate.
  void round(std::size_t index, bool traced);
  /// Traced runs, before tracing: the closed-loop capacity pass.
  void capacity();
  /// Traced runs: the protocol and forward micro-measurements.
  void measure_layers(Result& res);
  /// Bracket the traced rounds for the daemon-side registry deltas.
  void begin_traced();
  void end_traced();
  void finish(Result& res, bool traced);

  double untraced_p50_mid() const;
  double traced_p50_mid() const;
  std::string detail_json() const;

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

/// One benchmark run: set-up, rounds of (campaign, games, serve load)
/// until `args.seconds` elapsed, checks, metrics.
Result run_session(const Args& args);

/// The benchmark's own tests; returns the number of failed checks.
int self_test(const std::string& out_dir);

}  // namespace perfbench
