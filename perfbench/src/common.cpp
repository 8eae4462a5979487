#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "kernels/dispatch.hpp"
#include "obs/manifest.hpp"
#include "util/crc32.hpp"
#include "util/json.hpp"

namespace perfbench {

using mldist::util::JsonBuilder;

void Result::add(std::string name, double value, std::string unit,
                 std::size_t samples, std::string note) {
  metrics.push_back({std::move(name), value, std::move(unit), samples,
                     std::move(note)});
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) mismatches.push_back(what);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Tail tail_quantile(std::vector<double> values, double q,
                   std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  const std::size_t n = values.size();
  if (n <= min_beyond) return tail;
  std::sort(values.begin(), values.end());
  // Nearest rank: the k-th smallest (1-based) with k = ceil(q * n) leaves
  // n - k samples beyond it.  Cap k so that at least min_beyond remain.
  std::size_t k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  k = std::clamp<std::size_t>(k, 1, n - min_beyond);
  const std::size_t median_rank = (n + 1) / 2;
  if (k < median_rank) return tail;
  tail.value = values[k - 1];
  tail.q = std::min(q, static_cast<double>(k) / static_cast<double>(n));
  tail.beyond = n - k;
  tail.ok = true;
  return tail;
}

std::string quantile_label(double q) {
  char buf[32];
  const double pct = q * 100.0;
  if (std::fabs(pct - std::round(pct)) < 1e-9) {
    std::snprintf(buf, sizeof(buf), "p%.0f", pct);
  } else {
    std::snprintf(buf, sizeof(buf), "p%.1f", std::floor(pct * 10.0) / 10.0);
  }
  return buf;
}

double peak_rss_mb() {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  return static_cast<double>(self.ru_maxrss) / 1024.0;  // KiB on Linux
}

ChildPeakSampler::ChildPeakSampler() {
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
}

ChildPeakSampler::~ChildPeakSampler() { stop(); }

double ChildPeakSampler::stop() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
  }
  std::uint64_t kb = 0;
  for (const auto& [pid, v] : latest_kb_) kb = std::max(kb, v);
  return static_cast<double>(kb) / 1024.0;
}

void ChildPeakSampler::sample() {
  std::error_code ec;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::ifstream children(task.path() / "children");
    int pid = 0;
    while (children >> pid) {
      std::ifstream status("/proc/" + std::to_string(pid) + "/status");
      std::string line;
      while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
          latest_kb_[pid] = std::strtoull(line.c_str() + 6, nullptr, 10);
          break;
        }
      }
    }
  }
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void warm_cpus(double seconds) {
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    threads.emplace_back([end] {
      volatile double x = 0.0;
      while (now_ns() < end) {
        for (int i = 1; i < 100000; ++i) x = x + 1.0 / i;
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

IdleSpinners::IdleSpinners() {
  for (unsigned t = 0; t < std::max(1u, std::thread::hardware_concurrency());
       ++t) {
    threads_.emplace_back([this] {
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

std::uint64_t counter_delta(const mldist::obs::MetricsSnapshot& before,
                            const mldist::obs::MetricsSnapshot& after,
                            std::string_view prefix, std::string_view suffix) {
  const auto matches = [&](const std::string& name) {
    return name.size() >= prefix.size() + suffix.size() &&
           name.compare(0, prefix.size(), prefix) == 0 &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  std::uint64_t total = 0;
  for (const auto& [name, value] : after.counters) {
    if (matches(name)) total += value;
  }
  for (const auto& [name, value] : before.counters) {
    if (matches(name)) total -= value;
  }
  return total;
}

mldist::obs::HistogramSnapshot histogram_delta(
    const mldist::obs::MetricsSnapshot& before,
    const mldist::obs::MetricsSnapshot& after, std::string_view name) {
  mldist::obs::HistogramSnapshot out;
  for (const auto& [n, h] : after.histograms) {
    if (n == name) out = h;
  }
  for (const auto& [n, h] : before.histograms) {
    if (n != name) continue;
    out.count -= h.count;
    out.sum -= h.sum;
    for (std::size_t b = 0; b < out.buckets.size(); ++b) {
      out.buckets[b] -= h.buckets[b];
    }
  }
  if (out.count == 0) out = {};
  return out;
}

bool json_number(const std::string& json, const std::string& key,
                 double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return false;
  const char* begin = json.c_str() + at + needle.size();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return false;
  *out = value;
  return true;
}

std::string crc_hex(const std::string& text) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x",
                mldist::util::crc32(text.data(), text.size()));
  return buf;
}

std::string result_json(const Args& args, const Result& result) {
  std::vector<std::string> metrics;
  for (const Metric& m : result.metrics) {
    // Every digit of the measured double (JsonBuilder rounds to %g).
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    JsonBuilder j;
    j.field("name", m.name)
        .raw("value", value)
        .field("unit", m.unit)
        .field("samples", static_cast<std::uint64_t>(m.samples));
    if (!m.note.empty()) j.field("note", m.note);
    metrics.push_back(j.str());
  }
  std::vector<std::string> mismatches;
  for (const std::string& s : result.mismatches) {
    mismatches.push_back(JsonBuilder::quote(s));
  }
  std::vector<std::string> flags;
  for (const std::string& s : result.flags) flags.push_back(JsonBuilder::quote(s));

  mldist::obs::RunManifest& manifest = mldist::obs::RunManifest::current();
  manifest.kernel = mldist::kernels::impl_name(mldist::kernels::dispatch());
  JsonBuilder config;
  config.field("workload", args.workload)
      .field("seed", args.seed)
      .field("seconds", args.seconds)
      .field("trace", args.trace);
  manifest.set_config(config.str(), args.seed);

  JsonBuilder j;
  j.field("workload", args.workload)
      .field("seed", args.seed)
      .field("trace", args.trace)
      .field("correct", result.mismatches.empty())
      .field("attempted", result.attempted)
      .field("failed", result.failed)
      .raw("metrics", JsonBuilder::array(metrics))
      .raw("mismatches", JsonBuilder::array(mismatches))
      .raw("flags", JsonBuilder::array(flags))
      .field("trace_file", result.trace_file)
      .raw("manifest", manifest.to_json())
      .field("nproc",
             static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .raw("detail", result.detail_json);
  return j.str();
}

}  // namespace perfbench
