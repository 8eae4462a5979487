// Open-loop load generator for the serve stage.
//
// One thread sends requests on a seeded Poisson schedule over at most
// `max_conns` loopback connections at a time, multiplexed with ppoll.  Each
// request is one HTTP/1.1 POST on its own connection ("Connection: close",
// the daemon's one-request-per-connection shape).  Latency is measured from
// the request's due time, so a stall also charges the requests queued
// behind it; the generator's own lateness (start - max(due, slot free)) is
// recorded separately as a validity check.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Due times (ns after the schedule start) of `n` Poisson arrivals at
/// `rate` per second.  A pure function of (rate, n, seed).
std::vector<std::uint64_t> poisson_schedule(double rate, std::size_t n,
                                            std::uint64_t seed);

struct LoadOptions {
  std::uint16_t port = 0;
  std::size_t max_conns = 4;
  std::vector<std::uint64_t> due_ns;  ///< the schedule
  /// Request bodies; request i sends bodies[i % bodies.size()].
  std::vector<std::string> bodies;
  /// Keep the body of every `keep_every`-th request answered 200 (0 = none).
  std::size_t keep_every = 0;
  int timeout_ms = 5000;  ///< per request, from its start
};

struct LoadResult {
  std::size_t due = 0;
  std::size_t ok = 0;       ///< answered 200
  std::size_t non_ok = 0;   ///< answered with another status
  std::size_t errors = 0;   ///< connect/IO errors and timeouts
  std::vector<double> latency_ms;  ///< 200s only, from due time
  std::vector<double> service_ms;  ///< 200s only, from connect start
  std::vector<double> connect_us;  ///< connect start -> connected
  std::vector<double> late_ms;     ///< generator lateness, every request
  /// Due time -> sent, every request: the time it spent in the backlog of
  /// requests waiting for a free connection.
  std::vector<double> wait_ms;
  std::size_t max_in_flight = 0;
  double seconds = 0.0;  ///< schedule start -> last completion
  std::vector<std::pair<std::size_t, std::string>> kept;  ///< (index, body)

  /// The backlog grew over the run: the mean wait of the last quarter of
  /// requests exceeds that of the second quarter by more than
  /// kGrowthMs.  A backlog that drains only adds noise to both quarters.
  bool backlog_growing() const;
  static constexpr double kGrowthMs = 10.0;
  /// Completed 200s per second of run time.
  double goodput() const {
    return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0;
  }
};

LoadResult run_open_loop(const LoadOptions& options);

/// Blocking single request (set-up, warm-up and checks).  Returns 200 and
/// fills `response_body` when answered 200, otherwise 0.
int post_once(std::uint16_t port, const std::string& body,
              std::string* response_body);

/// The raw request bytes for one classify POST.
std::string http_request(const std::string& body);

}  // namespace perfbench
