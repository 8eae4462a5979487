// serve: an in-process ServeDaemon with the default batching options and a
// one-model registry (gohr-net/16 over a 64-bit input, conv-bound), driven
// over loopback HTTP by the open-loop generator of loadgen.hpp.  This is
// the only stage that crosses the HTTP, protocol, admission and batching
// layers.
#include <filesystem>
#include <memory>

#include "core/arch_zoo.hpp"
#include "core/model_io.hpp"
#include "loadgen.hpp"
#include "obs/trace.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "stages.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

using namespace mldist;

namespace {

/// One open-loop Poisson rate and the seconds of it played per round.
struct Pass {
  const char* name;
  double per_s;
  double round_s;
};

// The three named rates, chosen once on a 4-core VM where one forward of
// gohr-net/16 at batch 1 takes 1-2 ms and the daemon's 4-connection knee
// moves between ~1300 req/s on a quiet host and ~270 req/s while other
// tenants load it.  `low` is well below one-at-a-time capacity, where the
// coalescing window is pure added latency; `mid` is where batches start to
// form; `high` is as close to the knee as this host allows: at 250 req/s
// its p50 spread 0.21 over ten seeds while the host's other tenants came
// and went (400 req/s did not even drain its backlog).
constexpr Pass kPasses[] = {
    {"low", 100.0, 1.0},
    {"mid", 150.0, 0.6},
    {"high", 200.0, 0.6},
};
constexpr std::size_t kMid = 1;
constexpr std::size_t kNumPasses = sizeof(kPasses) / sizeof(kPasses[0]);
/// The closed-loop capacity pass (traced runs only): every request due at
/// once, so the generator sends the next one as soon as one of its
/// connections is free.  Its goodput is the daemon's real capacity.
constexpr std::size_t kCapacitySegments = 6;
constexpr std::size_t kCapacityRequests = 400;  ///< per segment
constexpr std::size_t kConns = 4;        ///< connections in flight, at most
/// Service-time tail limit of the capacity pass (flagged when exceeded):
/// ~50x the batch-1 service time.  ~10x would sit inside this host's timer
/// noise (p999 oversleep ~10 ms).
constexpr double kP99LimitMs = 100.0;
constexpr double kMaxLateMs = 5.0;       ///< generator lateness p99 limit
constexpr std::size_t kRows = 64;        ///< distinct request rows
constexpr std::size_t kKeepEvery = 25;   ///< response bodies checked

std::string hex_row(util::Xoshiro256& rng, std::size_t bytes) {
  static const char* digits = "0123456789abcdef";
  std::string hex;
  for (std::size_t i = 0; i < bytes; ++i) {
    const auto b = static_cast<std::uint8_t>(rng.next_u64());
    hex += digits[b >> 4];
    hex += digits[b & 0xf];
  }
  return hex;
}

/// Median microseconds per call of `fn` over `reps` calls.
template <typename Fn>
double micro_us(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const util::Timer t;
    fn();
    us.push_back(t.seconds() * 1e6);
  }
  return median(us);
}

void append(LoadResult& into, LoadResult&& seg) {
  const auto cat = [](auto& a, auto& b) { a.insert(a.end(), b.begin(), b.end()); };
  into.due += seg.due;
  into.ok += seg.ok;
  into.non_ok += seg.non_ok;
  into.errors += seg.errors;
  cat(into.latency_ms, seg.latency_ms);
  cat(into.service_ms, seg.service_ms);
  cat(into.connect_us, seg.connect_us);
  cat(into.late_ms, seg.late_ms);
  cat(into.wait_ms, seg.wait_ms);
  cat(into.kept, seg.kept);
  into.max_in_flight = std::max(into.max_in_flight, seg.max_in_flight);
  into.seconds += seg.seconds;
}

/// Every segment a pass played, untraced or traced.
struct PassLoad {
  LoadResult load;
  std::size_t segments = 0;
  std::size_t growing = 0;  ///< segments whose backlog grew
};

}  // namespace

struct ServeStage::Impl {
  const Args& args;
  std::string dir;
  std::vector<std::string> rows;
  std::vector<std::string> bodies;
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::ServeDaemon> daemon;
  PassLoad untraced[kNumPasses];
  PassLoad traced[kNumPasses];
  PassLoad capacity;
  std::vector<double> capacity_goodput;  ///< req/s, one per segment
  obs::MetricsSnapshot traced_before;
  obs::MetricsSnapshot traced_after;
  std::uint64_t rejected_before = 0;
  std::uint64_t requests_before = 0;
  std::uint64_t rejected_after = 0;
  std::uint64_t requests_after = 0;

  explicit Impl(const Args& a) : args(a) {}

  void stop() {
    if (daemon) daemon->stop();
    daemon.reset();
    registry.reset();
  }

  const serve::ModelEntry& entry() const { return registry->entries().front(); }

  LoadResult play(const std::vector<std::uint64_t>& due) const {
    LoadOptions opt;
    opt.port = daemon->port();
    opt.max_conns = kConns;
    opt.due_ns = due;
    opt.bodies = bodies;
    opt.keep_every = kKeepEvery;
    return run_open_loop(opt);
  }
};

ServeStage::ServeStage(const Args& args) : impl_(std::make_unique<Impl>(args)) {
  Impl& s = *impl_;
  s.dir = args.out_dir + "/serve-registry";
  std::filesystem::remove_all(s.dir);
  std::filesystem::create_directories(s.dir);
  {
    util::Xoshiro256 rng(util::derive_stream_seed(args.seed, 2));
    auto model = core::build_gohr_net(64, 2, /*depth=*/16, rng);
    core::save_model(*model, "gohr-net/16", 64, 2, s.dir + "/gohr.nnb");
  }
  util::Xoshiro256 row_rng(util::derive_stream_seed(args.seed, 3));
  for (std::size_t i = 0; i < kRows; ++i) {
    s.rows.push_back(hex_row(row_rng, 8));
    s.bodies.push_back("{\"model\":\"gohr\",\"inputs\":[\"" + s.rows.back() +
                       "\"]}");
  }
}

ServeStage::~ServeStage() {
  impl_->stop();
  std::error_code ec;
  std::filesystem::remove_all(impl_->dir, ec);
}

double ServeStage::setup() {
  Impl& s = *impl_;
  s.stop();
  const util::Timer t;
  obs::Span span("perfbench.serve.setup", "perfbench");
  s.registry = std::make_unique<serve::ModelRegistry>();
  if (s.registry->load_dir(s.dir) != 1) {
    throw std::runtime_error("registry did not load the model");
  }
  s.daemon = std::make_unique<serve::ServeDaemon>(*s.registry);
  std::string error;
  if (!s.daemon->start(serve::ServeOptions{}, &error)) {
    throw std::runtime_error("daemon start: " + error);
  }
  if (post_once(s.daemon->port(), s.bodies[0], nullptr) != 200) {
    throw std::runtime_error("warm-up request failed");
  }
  return t.seconds();
}

void ServeStage::round(std::size_t index, bool traced) {
  Impl& s = *impl_;
  const IdleSpinners spinners;
  for (std::size_t p = 0; p < kNumPasses; ++p) {
    const Pass& pass = kPasses[p];
    const auto n = static_cast<std::size_t>(pass.per_s * pass.round_s);
    obs::Span span("perfbench.serve.load", "perfbench");
    span.arg("rate", pass.per_s).arg("requests", static_cast<std::uint64_t>(n));
    LoadResult seg = s.play(poisson_schedule(
        pass.per_s, n,
        util::derive_stream_seed(s.args.seed, 1000 + index * kNumPasses + p)));
    PassLoad& into = traced ? s.traced[p] : s.untraced[p];
    ++into.segments;
    if (seg.backlog_growing()) ++into.growing;
    append(into.load, std::move(seg));
  }
}

void ServeStage::capacity() {
  Impl& s = *impl_;
  const IdleSpinners spinners;
  for (std::size_t k = 0; k < kCapacitySegments; ++k) {
    obs::Span span("perfbench.serve.capacity", "perfbench");
    LoadResult seg = s.play(std::vector<std::uint64_t>(kCapacityRequests, 0));
    s.capacity_goodput.push_back(seg.goodput());
    ++s.capacity.segments;
    append(s.capacity.load, std::move(seg));
  }
}

void ServeStage::begin_traced() {
  Impl& s = *impl_;
  s.rejected_before = s.daemon->rejected();
  s.requests_before = s.daemon->requests();
  s.traced_before = obs::MetricsRegistry::global().snapshot();
}

void ServeStage::end_traced() {
  Impl& s = *impl_;
  s.traced_after = obs::MetricsRegistry::global().snapshot();
  s.rejected_after = s.daemon->rejected();
  s.requests_after = s.daemon->requests();
}

void ServeStage::measure_layers(Result& res) {
  Impl& s = *impl_;
  const serve::ModelEntry& entry = s.entry();
  constexpr int kReps = 300;
  const obs::HistogramSnapshot batch =
      histogram_delta(s.traced_before, s.traced_after, "serve.batch_size");
  nn::Mat one;
  std::string error;
  serve::decode_inputs({s.rows[0]}, entry.input_bits, &one, &error);
  const std::size_t bmean = std::max<std::size_t>(
      1, static_cast<std::size_t>(batch.mean() + 0.5));
  const std::vector<std::string> batch_rows(
      s.rows.begin(), s.rows.begin() + std::min(bmean, kRows));
  nn::Mat many;
  serve::decode_inputs(batch_rows, entry.input_bits, &many, &error);
  res.add("serve.forward_ms.b1",
          micro_us(kReps, [&] { entry.model->predict_proba(one); }) / 1e3,
          "ms", kReps);
  res.add("serve.forward_ms.bmean",
          micro_us(kReps, [&] { entry.model->predict_proba(many); }) / 1e3,
          "ms", kReps, "batch of " + std::to_string(many.rows()) + " rows");
  std::size_t i = 0;
  serve::ClassifyRequest parsed;
  res.add("serve.parse_us", micro_us(kReps, [&] {
            serve::parse_classify_request(s.bodies[i++ % kRows], &parsed,
                                          &error);
          }), "us", kReps);
  nn::Mat decoded;
  res.add("serve.decode_us", micro_us(kReps, [&] {
            serve::decode_inputs({s.rows[i++ % kRows]}, entry.input_bits,
                                 &decoded, &error);
          }), "us", kReps);
  const nn::Mat probs = entry.model->predict_proba(one);
  res.add("serve.render_us", micro_us(kReps, [&] {
            serve::render_classify_response(entry, probs);
          }), "us", kReps);
}

double ServeStage::untraced_p50_mid() const {
  return median(impl_->untraced[kMid].load.latency_ms);
}

double ServeStage::traced_p50_mid() const {
  return median(impl_->traced[kMid].load.latency_ms);
}

void ServeStage::finish(Result& res, bool traced) {
  Impl& s = *impl_;
  const serve::ModelEntry& entry = s.entry();

  // --- output check: sampled bodies against predict_proba + render -------
  // The batch worker frames each body with a trailing newline.
  std::vector<std::string> expected(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    nn::Mat x;
    std::string error;
    res.check(serve::decode_inputs({s.rows[i]}, entry.input_bits, &x, &error),
              "decode_inputs rejected row " + std::to_string(i) + ": " + error);
    expected[i] = serve::render_classify_response(
                      entry, entry.model->predict_proba(x)) + "\n";
  }
  if (s.args.corrupt_reference) expected[0][expected[0].size() / 2] ^= 1;
  std::size_t checked = 0;
  std::size_t differing = 0;
  std::vector<const PassLoad*> all = {&s.capacity};
  for (std::size_t p = 0; p < kNumPasses; ++p) {
    all.push_back(&s.untraced[p]);
    all.push_back(&s.traced[p]);
  }
  for (const PassLoad* pl : all) {
    const LoadResult& l = pl->load;
    res.attempted += l.due;
    res.failed += l.due - l.ok;
    for (const auto& [index, body] : l.kept) {
      ++checked;
      if (body != expected[index % kRows]) ++differing;
    }
    res.check(l.max_in_flight <= kConns,
              "generator exceeded the connection cap");
  }
  res.check(checked > 0, "no response body was sampled");
  res.check(differing == 0,
            std::to_string(differing) + " of " + std::to_string(checked) +
                " sampled response bodies differ from "
                "render_classify_response(predict_proba(row))");

  // --- validity flags ------------------------------------------------------
  for (std::size_t p = 0; p < kNumPasses; ++p) {
    for (const PassLoad* pl : {&s.untraced[p], &s.traced[p]}) {
      if (2 * pl->growing > pl->segments) {
        res.flags.push_back("backlog grows at " +
                            std::to_string(kPasses[p].per_s) + " req/s");
      }
      const Tail late = tail_quantile(pl->load.late_ms, 0.99);
      if (late.value > kMaxLateMs) {
        res.flags.push_back("generator lateness p99 " +
                            std::to_string(late.value) + " ms at " +
                            std::to_string(kPasses[p].per_s) + " req/s exceeds " +
                            std::to_string(kMaxLateMs) + " ms");
      }
    }
  }

  if (!traced) {
    for (std::size_t p = 0; p < kNumPasses; ++p) {
      const LoadResult& l = s.untraced[p].load;
      res.add(std::string("p50_ms.") + kPasses[p].name, median(l.latency_ms),
              "ms", l.latency_ms.size(), "from due time");
    }
    return;
  }

  for (std::size_t p = 0; p < kNumPasses; ++p) {
    const LoadResult& l = s.untraced[p].load;
    const Tail p99 = tail_quantile(l.latency_ms, 0.99);
    res.add(std::string("p99_ms.") + kPasses[p].name, p99.value, "ms",
            p99.samples,
            quantile_label(p99.q) + " of " + std::to_string(p99.samples) +
                ", " + std::to_string(p99.beyond) + " beyond");
  }
  // The closed loop keeps at most kConns requests in the system, so its
  // backlog cannot grow; its service-time tail is held to the limit.
  const Tail tail = tail_quantile(s.capacity.load.service_ms, 0.99);
  if (!tail.ok || tail.value > kP99LimitMs) {
    res.flags.push_back("capacity pass service-time " + quantile_label(tail.q) +
                        " " + std::to_string(tail.value) + " ms exceeds " +
                        std::to_string(kP99LimitMs) + " ms");
  }
  res.add("max_rps", median(s.capacity_goodput), "req/s",
          s.capacity_goodput.size(),
          "median over segments of the closed-loop goodput with " +
              std::to_string(kConns) + " connections busy");

  LoadResult traced_all;
  for (std::size_t p = 0; p < kNumPasses; ++p) {
    LoadResult copy = s.traced[p].load;
    append(traced_all, std::move(copy));
  }
  res.add("trace_overhead_frac.serve",
          traced_p50_mid() / untraced_p50_mid() - 1.0, "fraction",
          s.traced[kMid].load.latency_ms.size(),
          "traced / untraced p50 latency at the mid rate, minus 1");
  res.add("serve.connect_us", median(traced_all.connect_us), "us",
          traced_all.connect_us.size());
  const obs::HistogramSnapshot e2e =
      histogram_delta(s.traced_before, s.traced_after, "serve.e2e_ns");
  res.add("serve.front_us", mean(traced_all.service_ms) * 1e3 - e2e.mean() / 1e3,
          "us", traced_all.service_ms.size(),
          "client service time minus daemon serve.e2e_ns, means");
  const obs::HistogramSnapshot wait =
      histogram_delta(s.traced_before, s.traced_after, "serve.queue_wait_ns");
  res.add("serve.queue_wait_us.p50", static_cast<double>(wait.p50()) / 1e3,
          "us", wait.count, "bit-width histogram upper bound");
  res.add("serve.queue_wait_us.p99", static_cast<double>(wait.p99()) / 1e3,
          "us", wait.count, "bit-width histogram upper bound");
  const obs::HistogramSnapshot batch =
      histogram_delta(s.traced_before, s.traced_after, "serve.batch_size");
  res.add("serve.batch_rows_mean", batch.mean(), "rows", batch.count);
  const std::uint64_t requests = s.requests_after - s.requests_before;
  res.add("serve.rejected_frac",
          requests > 0 ? static_cast<double>(s.rejected_after -
                                             s.rejected_before) /
                             static_cast<double>(requests)
                       : 0.0,
          "fraction", requests);
  const Tail late = tail_quantile(traced_all.late_ms, 0.99);
  res.add("gen.late_ms.p99", late.value, "ms", late.samples,
          quantile_label(late.q));
}

std::string ServeStage::detail_json() const {
  const Impl& s = *impl_;
  std::vector<std::string> passes;
  const auto describe = [&](const char* name, double rate, const PassLoad& pl,
                            bool traced) {
    const LoadResult& l = pl.load;
    const Tail p99 = tail_quantile(l.latency_ms, 0.99);
    util::JsonBuilder j;
    j.field("name", name)
        .field("rate", rate)
        .field("traced", traced)
        .field("segments", static_cast<std::uint64_t>(pl.segments))
        .field("growing_segments", static_cast<std::uint64_t>(pl.growing))
        .field("due", static_cast<std::uint64_t>(l.due))
        .field("ok", static_cast<std::uint64_t>(l.ok))
        .field("non_ok", static_cast<std::uint64_t>(l.non_ok))
        .field("errors", static_cast<std::uint64_t>(l.errors))
        .field("p50_ms", median(l.latency_ms))
        .field("tail_ms", p99.value)
        .field("tail", quantile_label(p99.q))
        .field("max_in_flight", static_cast<std::uint64_t>(l.max_in_flight))
        .field("late_p99_ms", tail_quantile(l.late_ms, 0.99).value);
    passes.push_back(j.str());
  };
  for (std::size_t p = 0; p < kNumPasses; ++p) {
    describe(kPasses[p].name, kPasses[p].per_s, s.untraced[p], false);
    if (s.traced[p].segments > 0) {
      describe(kPasses[p].name, kPasses[p].per_s, s.traced[p], true);
    }
  }
  if (s.capacity.segments > 0) describe("capacity", 0.0, s.capacity, false);
  util::JsonBuilder j;
  j.raw("passes", util::JsonBuilder::array(passes))
      .field("p99_limit_ms", kP99LimitMs)
      .field("max_conns", static_cast<std::uint64_t>(kConns));
  return j.str();
}

}  // namespace perfbench
