// game: the online half of Algorithm 2.  One default-mlp distinguisher is
// trained on the workload's Gimli mode at 7 rounds and saved; set-up loads
// it, and every measured iteration plays core::play_games at the paper's
// 2^14.3 online budget (10,085 base inputs per game).  No training is timed here, so this stage
// is the no-change control for fit optimisations and the place where
// collection (ciphers, batched Gimli) and batched dense inference (nn/ir,
// GEMM) show.
#include <cstring>
#include <filesystem>

#include "core/distinguisher.hpp"
#include "core/model_io.hpp"
#include "core/online_game.hpp"
#include "core/oracle.hpp"
#include "core/targets.hpp"
#include "obs/trace.hpp"
#include "stages.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace mldist;

namespace {

constexpr std::size_t kOnlineBase = 10085;  ///< 2^14.3 online queries
constexpr std::size_t kGames = 8;           ///< per play_games call
constexpr std::size_t kThreads = 4;
constexpr int kLayerReps = 5;               ///< test() calls per oracle kind

core::ExperimentConfig game_config(const std::string& target,
                                   std::uint64_t seed) {
  core::ExperimentConfig c;
  c.target = target;
  c.rounds = 7;
  c.arch = "default-mlp";
  c.epochs = 3;
  c.offline_base_inputs = 5000;
  // Games fan out over kThreads; each game's collect and predict run on
  // its own thread, so the host is never oversubscribed.
  c.threads = 1;
  c.seed = seed;
  return c;
}

bool same_report(const core::GameReport& a, const core::GameReport& b) {
  return a.games == b.games && a.correct == b.correct &&
         a.inconclusive == b.inconclusive &&
         std::memcmp(&a.mean_cipher_accuracy, &b.mean_cipher_accuracy,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.mean_random_accuracy, &b.mean_random_accuracy,
                     sizeof(double)) == 0 &&
         a.telemetry.queries == b.telemetry.queries;
}

}  // namespace

struct GameStage::Iteration {
  double seconds = 0.0;
  double queries_per_s = 0.0;
  double other_frac = 0.0;  ///< of worker time outside collect + predict
  bool traced = false;
};

GameStage::GameStage(const Args& args, const std::string& target)
    : args_(args),
      target_name_(target),
      target_(game_config(target, 0).make_target()),
      game_seed_(util::derive_stream_seed(args.seed, 1)),
      model_path_(args.out_dir + "/game.nnb") {}

GameStage::~GameStage() {
  std::error_code ec;
  std::filesystem::remove(model_path_, ec);
}

void GameStage::prepare(Result& res) {
  const core::ExperimentConfig config =
      game_config(target_name_, util::derive_stream_seed(args_.seed, 0));
  dist_ = std::make_unique<core::MLDistinguisher>(*target_, config);
  train_report_ = std::make_unique<core::TrainReport>(
      dist_->train(*target_, config.offline_base_inputs));
  res.check(train_report_->usable, "trained distinguisher is not usable");
  core::save_model(dist_->model(), config.arch, target_->output_bytes() * 8,
                   target_->num_differences(), model_path_);
  // Every game the run plays on a loaded copy must repeat this one.
  reference_ = std::make_unique<core::GameReport>(core::play_games(
      *dist_, *target_, kGames, kOnlineBase, game_seed_, kThreads));
  if (args_.corrupt_reference) reference_->correct ^= 1;
}

double GameStage::setup(Result& res) {
  const core::ExperimentConfig config =
      game_config(target_name_, util::derive_stream_seed(args_.seed, 0));
  dist_.reset();
  const util::Timer t;
  obs::Span span("perfbench.game.load", "perfbench");
  core::LoadedModel loaded = core::load_model(model_path_);
  res.check(loaded.input_bits == target_->output_bytes() * 8 &&
                loaded.classes == target_->num_differences(),
            "the saved distinguisher does not match its target");
  dist_ = std::make_unique<core::MLDistinguisher>(
      std::move(loaded.model), core::DistinguisherOptions(config));
  dist_->adopt_train_report(*train_report_, target_->num_differences());
  return t.seconds();
}

void GameStage::play(double seconds, bool traced, Result& res) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const util::Timer budget;
  do {
    const obs::MetricsSnapshot before = reg.snapshot();
    const util::Timer t;
    core::GameReport rep;
    {
      obs::Span span("perfbench.game.play_games", "perfbench");
      rep = core::play_games(*dist_, *target_, kGames, kOnlineBase,
                             game_seed_, kThreads);
    }
    Iteration it;
    it.seconds = t.seconds();
    it.traced = traced;
    const obs::MetricsSnapshot after = reg.snapshot();
    it.queries_per_s = static_cast<double>(rep.telemetry.queries) / it.seconds;
    const double phase_s =
        static_cast<double>(
            histogram_delta(before, after,
                            "core.phase.online_collect.seconds_ns").sum +
            histogram_delta(before, after, "core.phase.predict.seconds_ns")
                .sum) / 1e9;
    it.other_frac = 1.0 - phase_s / (static_cast<double>(rep.telemetry.threads) *
                                     it.seconds);
    its_.push_back(it);
    res.attempted += rep.games;
    res.failed += rep.games - rep.correct;
    res.check(same_report(rep, *reference_),
              "play_games report of the loaded distinguisher differs from "
              "the trained one's");
  } while (budget.seconds() < seconds);
}

void GameStage::measure_layers() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  // One MLDistinguisher::test per oracle kind, repeated.
  const core::CipherOracle cipher(*target_);
  const core::RandomOracle random(target_->num_differences(),
                                  target_->output_bytes());
  for (int r = 0; r < kLayerReps; ++r) {
    for (const core::Oracle* oracle :
         {static_cast<const core::Oracle*>(&cipher),
          static_cast<const core::Oracle*>(&random)}) {
      const obs::MetricsSnapshot before = reg.snapshot();
      core::OnlineReport rep;
      {
        obs::Span span("perfbench.game.test", "perfbench");
        rep = dist_->test(*oracle, kOnlineBase,
                          util::derive_stream_seed(game_seed_, 100 + r));
      }
      const obs::MetricsSnapshot after = reg.snapshot();
      collect_ns_per_query_.push_back(
          rep.collect.seconds * 1e9 / static_cast<double>(rep.collect.queries));
      predict_ns_per_row_.push_back(rep.predict.seconds * 1e9 /
                                    static_cast<double>(rep.predict.rows));
      if (oracle == &cipher) {
        gimli_mstates_.push_back(
            static_cast<double>(
                counter_delta(before, after, "kernels.gimli.states.")) /
            rep.collect.seconds / 1e6);
      }
    }
  }
  // predict_proba at the game's batch shape (test() scores 512-row
  // batches), with the GEMM FLOPs the kernels counted.
  nn::Mat batch(512, target_->output_bytes() * 8);
  util::Xoshiro256 rng(game_seed_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch.data()[i] = static_cast<float>(rng.next_u64() & 1);
  }
  for (int r = 0; r < 20; ++r) {
    const obs::MetricsSnapshot before = reg.snapshot();
    const util::Timer t;
    dist_->model().predict_proba(batch);
    const double s = t.seconds();
    const obs::MetricsSnapshot after = reg.snapshot();
    predict_gflops_.push_back(
        static_cast<double>(counter_delta(before, after, "kernels.gemm.flops.")) /
        s / 1e9);
  }
}

double GameStage::untraced_rate() const {
  std::vector<double> v;
  for (const Iteration& it : its_) {
    if (!it.traced) v.push_back(it.queries_per_s);
  }
  return median(v);
}

double GameStage::traced_rate() const {
  std::vector<double> v;
  for (const Iteration& it : its_) {
    if (it.traced) v.push_back(it.queries_per_s);
  }
  return median(v);
}

void GameStage::finish(Result& res, bool traced) {
  std::size_t untraced = 0;
  std::vector<double> other_frac;
  for (const Iteration& it : its_) {
    if (it.traced) other_frac.push_back(it.other_frac);
    untraced += it.traced ? 0 : 1;
  }
  if (!traced) {
    res.add("game_queries_per_s", untraced_rate(), "1/s", untraced,
            "median over play_games calls of online queries / wall");
    return;
  }
  res.add("core.collect_ns_per_query", median(collect_ns_per_query_), "ns",
          collect_ns_per_query_.size(), "test() collect, cipher + random");
  res.add("kernels.gimli_mstates_per_s", median(gimli_mstates_), "1e6/s",
          gimli_mstates_.size());
  res.add("nn.predict_ns_per_row", median(predict_ns_per_row_), "ns",
          predict_ns_per_row_.size());
  res.add("nn.predict_gflops", median(predict_gflops_), "GFLOP/s",
          predict_gflops_.size(), "predict_proba on 512 rows");
  res.add("core.game_other_frac", median(other_frac), "fraction",
          other_frac.size());
  res.add("trace_overhead_frac.game", untraced_rate() / traced_rate() - 1.0,
          "fraction", other_frac.size(),
          "untraced / traced game_queries_per_s, minus 1");
}

std::string GameStage::detail_json() const {
  util::JsonBuilder j;
  j.field("target", target_name_ + "/7")
      .field("games_per_call", static_cast<std::uint64_t>(kGames))
      .field("online_base_inputs", static_cast<std::uint64_t>(kOnlineBase))
      .field("val_accuracy", train_report_ ? train_report_->val_accuracy : 0.0)
      .field("iterations", static_cast<std::uint64_t>(its_.size()));
  if (reference_) {
    j.field("correct", static_cast<std::uint64_t>(reference_->correct))
        .field("inconclusive",
               static_cast<std::uint64_t>(reference_->inconclusive))
        .field("mean_cipher_accuracy", reference_->mean_cipher_accuracy)
        .field("mean_random_accuracy", reference_->mean_random_accuracy);
  }
  return j.str();
}

}  // namespace perfbench
