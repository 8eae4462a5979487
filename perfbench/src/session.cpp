// One benchmark run: rounds of a timed set-up, one campaign (cell),
// `kGameRoundS` of play_games (game) and one piece of every serve rate
// follow each other until the run's seconds are spent, so a slow spell of
// the host lands on all three stages and the set-up alike instead of on
// one.  Traced runs measure untraced rounds first, then turn the tracer on
// for as many traced rounds: the end-to-end differences between the two
// halves are the tracing overhead.
#include "obs/trace.hpp"
#include "stages.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

constexpr double kGameRoundS = 1.0; ///< play_games seconds per round

}  // namespace

std::string workload_target(const std::string& workload) {
  if (workload == "gimli-hash" || workload == "gimli-cipher") return workload;
  return "";
}

Result run_session(const Args& args) {
  Result res;
  const std::string target = workload_target(args.workload);
  CellStage cell(args, target);
  GameStage game(args, target);
  ServeStage serve(args);

  // Untimed preparation: the cell stage's byte reference, and the game's
  // distinguisher, trained once and saved for the set-ups to load.
  cell.reference(res);
  game.prepare(res);

  // --- measured rounds --------------------------------------------------------
  // Every untraced round starts with a set-up: what a deployment pays
  // before its first game or request (load the trained distinguisher,
  // bring up the serving daemon).  Traced rounds keep the last one.
  std::vector<double> setup_s;
  std::size_t index = 0;
  const auto rounds = [&](double seconds, bool traced) {
    const mldist::util::Timer budget;
    do {
      if (!traced) setup_s.push_back(game.setup(res) + serve.setup());
      cell.campaign(traced);
      game.play(kGameRoundS, traced, res);
      serve.round(index++, traced);
    } while (budget.seconds() < seconds);
  };
  if (!args.trace) {
    rounds(args.seconds, false);
  } else {
    // A traced supervisor traces its workers from then on, so the untraced
    // half goes first, and the capacity pass with it.
    rounds(args.seconds * 0.5, false);
    serve.capacity();
    res.trace_file = args.out_dir + "/session.trace.json";
    mldist::obs::Tracer::global().enable(res.trace_file);
    serve.begin_traced();
    rounds(args.seconds * 0.5, true);
    serve.end_traced();
    game.measure_layers();
    serve.measure_layers(res);
    mldist::obs::Tracer::global().disable();
    std::string flush_error;
    res.check(mldist::obs::Tracer::global().flush(&flush_error),
              "trace flush: " + flush_error);
    const double overhead = (cell.untraced_rate() / cell.traced_rate() +
                             game.untraced_rate() / game.traced_rate() +
                             serve.traced_p50_mid() / serve.untraced_p50_mid()) /
                                3.0 - 1.0;
    res.add("trace_overhead_frac", overhead, "fraction", index,
            "mean of the three stages' trace_overhead_frac");
  }

  cell.finish(res, args.trace);
  game.finish(res, args.trace);
  serve.finish(res, args.trace);
  if (!args.trace) {
    res.add("setup_s", median(setup_s), "s", setup_s.size(),
            "load the distinguisher + start the daemon, per round");
    res.add("peak_rss_mb",
            peak_rss_mb() + kCellWorkers * cell.worker_peak_mb(), "MB", 1,
            "this process + campaign workers x the largest worker peak");
  } else {
    res.add("fail_frac",
            static_cast<double>(res.failed) /
                static_cast<double>(std::max<std::uint64_t>(1, res.attempted)),
            "fraction", res.attempted);
  }

  std::vector<std::string> setups;
  for (double v : setup_s) setups.push_back(std::to_string(v));
  mldist::util::JsonBuilder detail;
  detail.field("rounds", static_cast<std::uint64_t>(index))
      .raw("setup_seconds", mldist::util::JsonBuilder::array(setups))
      .field("rss_self_mb", peak_rss_mb())
      .raw("cell", cell.detail_json())
      .raw("game", game.detail_json())
      .raw("serve", serve.detail_json());
  res.detail_json = detail.str();
  return res;
}

}  // namespace perfbench
