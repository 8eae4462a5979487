// Shared pieces of the repository benchmark: run arguments, the result
// record every run fills, order statistics with the tail-percentile
// rule, and small readers over the program's own registry and JSON.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< scratch + artifacts, inside the checkout
  /// Self-test only: corrupt every stage's output-check reference, which
  /// must then fail the run.
  bool corrupt_reference = false;
};

/// One reported number.  `samples` is how many measurements the value
/// summarises (the sample count the report prints next to it).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 1;
  std::string note;  ///< e.g. which percentile a tail metric really is
};

struct Result {
  std::vector<Metric> metrics;
  /// Output-check failures.  Any entry makes the run incorrect; run.py
  /// then reports no numbers for it.
  std::vector<std::string> mismatches;
  /// Validity flags that do not fail the run (e.g. a growing backlog at a
  /// named rate) but must be visible next to the numbers.
  std::vector<std::string> flags;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string detail_json = "{}";  ///< per-stage artifact payload
  std::string trace_file;          ///< traced runs: the loadable trace

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1, std::string note = "");
  /// Record a mismatch when `ok` is false.
  void check(bool ok, const std::string& what);
};

double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Nearest-rank q-quantile of `values` with at least `min_beyond` samples
/// strictly above the reported rank.  When q itself leaves fewer than that
/// in the tail, the highest quantile that does is reported instead and
/// `q` says which.  ok=false when not even the median qualifies.
struct Tail {
  double value = 0.0;
  double q = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  bool ok = false;
};
Tail tail_quantile(std::vector<double> values, double q,
                   std::size_t min_beyond = 10);
/// "p99" / "p98.7" label for a Tail's quantile.
std::string quantile_label(double q);

/// Peak resident set of this process.
double peak_rss_mb();

/// While alive, reads the peak resident set (VmHWM) of this process's
/// child processes every 50 ms and keeps, per child, its latest reading.
/// After exec a child's VmHWM is its own peak; getrusage(RUSAGE_CHILDREN)
/// would instead also count the parent's pages a child held between fork
/// and exec.
class ChildPeakSampler {
 public:
  ChildPeakSampler();
  ~ChildPeakSampler();
  ChildPeakSampler(const ChildPeakSampler&) = delete;
  ChildPeakSampler& operator=(const ChildPeakSampler&) = delete;

  /// The largest child peak, MB (stops the sampling).
  double stop();

 private:
  void sample();
  std::atomic<bool> stop_{false};
  std::map<int, std::uint64_t> latest_kb_;  ///< pid -> VmHWM, sampler only
  std::thread thread_;
};

/// Monotonic nanoseconds (steady clock).
std::uint64_t now_ns();

/// Keep every CPU busy with a fixed loop for `seconds`, before anything is
/// timed.  On a VM, vCPUs that sat idle run several times slower for the
/// first second of load; without this the first set-up or iteration of a
/// run pays that instead of the program.
void warm_cpus(double seconds);

/// While alive, one SCHED_IDLE busy thread per CPU, for the serve load.
/// They run only when no other thread wants the CPU, and they keep the
/// vCPUs from halting: a request then wakes its daemon thread on a running
/// vCPU instead of waiting for the hypervisor to schedule a halted one,
/// whose cost swings with the host's other tenants.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Sum of every counter whose name starts with `prefix` and ends with
/// `suffix`, in `after` minus `before`.
std::uint64_t counter_delta(const mldist::obs::MetricsSnapshot& before,
                            const mldist::obs::MetricsSnapshot& after,
                            std::string_view prefix,
                            std::string_view suffix = "");
/// `after` histogram minus `before` (count, sum and buckets; min/max are
/// taken from `after`, which the quantile clamp tolerates).
mldist::obs::HistogramSnapshot histogram_delta(const mldist::obs::MetricsSnapshot& before,
                                       const mldist::obs::MetricsSnapshot& after,
                                       std::string_view name);

/// Number value of `"key":` inside a flat JSON object (the program's own
/// JsonBuilder output).  False when absent.
bool json_number(const std::string& json, const std::string& key,
                 double* out);

/// CRC-32 of `text` as 8 lower-case hex digits.
std::string crc_hex(const std::string& text);

/// Render the run's result, manifest and checks as one JSON object (the
/// line run.py converts into the benchmark result line).
std::string result_json(const Args& args, const Result& result);

}  // namespace perfbench
