// The benchmark's own tests: the load generator (seeded schedule, the
// connection cap, backlog detection), the tail-percentile rule, and the
// output checks of every stage against a deliberately corrupted
// reference.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"
#include "loadgen.hpp"
#include "stages.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("  %-4s %s\n", ok ? "ok" : "FAIL", what);
  if (!ok) ++g_failures;
}

/// A loopback HTTP stub that answers every request with 200 after
/// `service_ms`, one thread per connection, and records how many
/// connections it ever held open at once.
class StubServer {
 public:
  explicit StubServer(int service_ms) : service_ms_(service_ms) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(fd_, 128);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] { accept_loop(); });
  }
  ~StubServer() {
    stop_.store(true);
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    acceptor_.join();
    for (std::thread& t : handlers_) t.join();
  }
  StubServer(const StubServer&) = delete;
  StubServer& operator=(const StubServer&) = delete;

  std::uint16_t port() const { return port_; }
  int max_open() const { return max_open_.load(); }

 private:
  void accept_loop() {
    while (!stop_.load()) {
      const int c = ::accept(fd_, nullptr, nullptr);
      if (c < 0) continue;
      handlers_.emplace_back([this, c] { handle(c); });
    }
  }
  void handle(int c) {
    const int now_open = open_.fetch_add(1) + 1;
    int prev = max_open_.load();
    while (now_open > prev && !max_open_.compare_exchange_weak(prev, now_open)) {
    }
    std::string in;
    char buf[4096];
    while (in.find("}") == std::string::npos) {
      const ssize_t k = ::recv(c, buf, sizeof(buf), 0);
      if (k <= 0) break;
      in.append(buf, static_cast<std::size_t>(k));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(service_ms_));
    const std::string body = "{}";
    const std::string resp = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n"
                             "Connection: close\r\n\r\n" + body;
    open_.fetch_sub(1);
    (void)::send(c, resp.data(), resp.size(), MSG_NOSIGNAL);
    ::close(c);
  }

  int service_ms_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> open_{0};
  std::atomic<int> max_open_{0};
  std::thread acceptor_;
  std::vector<std::thread> handlers_;  ///< touched by the acceptor only
};

LoadResult load(std::uint16_t port, double rate, std::size_t n) {
  LoadOptions opt;
  opt.port = port;
  opt.max_conns = 4;
  opt.due_ns = poisson_schedule(rate, n, 7);
  opt.bodies = {"{\"x\":1}"};
  return run_open_loop(opt);
}

}  // namespace

int self_test(const std::string& out_dir) {
  std::printf("schedule\n");
  const auto a = poisson_schedule(500.0, 20000, 11);
  const auto b = poisson_schedule(500.0, 20000, 11);
  const auto c = poisson_schedule(500.0, 20000, 12);
  expect(a == b, "same seed gives the same schedule");
  expect(a != c, "another seed gives another schedule");
  const double mean_gap_s = static_cast<double>(a.back()) / 1e9 / 20000.0;
  expect(std::fabs(mean_gap_s * 500.0 - 1.0) < 0.05,
         "mean inter-arrival time is 1/rate");
  expect(std::is_sorted(a.begin(), a.end()), "due times are ordered");

  std::printf("percentile rule\n");
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  Tail t = tail_quantile(v, 0.99);
  expect(t.ok && t.q == 0.99 && t.beyond == 10 && t.value == 990.0,
         "1000 samples: p99 with 10 beyond");
  v.resize(500);
  t = tail_quantile(v, 0.99);
  expect(t.ok && t.beyond == 10 && t.q == 0.98 && t.value == 490.0,
         "500 samples: falls back to p98, 10 beyond");
  v.resize(10);
  t = tail_quantile(v, 0.99);
  expect(!t.ok, "10 samples: no tail percentile");
  expect(quantile_label(0.99) == "p99" && quantile_label(0.985) == "p98.5",
         "percentile labels");

  std::printf("load generator\n");
  {
    StubServer slow(20);  // 4 connections -> ~200 req/s capacity
    const LoadResult over = load(slow.port(), 1000.0, 400);
    expect(over.max_in_flight <= 4 && slow.max_open() <= 4,
           "connection cap of 4 is respected under overload");
    expect(over.ok == over.due, "every overloaded request is still answered");
    expect(over.backlog_growing(), "overload is flagged as a growing backlog");
  }
  {
    StubServer fast(1);
    const LoadResult easy = load(fast.port(), 100.0, 300);
    expect(easy.ok == easy.due, "light load: every request answered");
    expect(!easy.backlog_growing(), "light load: no growing backlog");
    const Tail late = tail_quantile(easy.late_ms, 0.99);
    expect(late.ok && late.value < 5.0, "light load: generator lateness p99 < 5 ms");
    std::vector<double> lat = easy.latency_ms;
    expect(!lat.empty() && *std::min_element(lat.begin(), lat.end()) >= 1.0,
           "latency counts the 1 ms service time from the due time");
  }

  std::printf("output checks on a corrupted reference\n");
  // One short session at the pinned seed with every stage's reference
  // corrupted: each stage checks its own reference, so each must report.
  Args args;
  args.workload = "gimli-cipher";
  args.seed = kCellPinnedSeed;
  args.seconds = 0.1;
  args.out_dir = out_dir;
  args.corrupt_reference = true;
  const Result run = run_session(args);
  const auto reported = [&](const char* what) {
    return std::any_of(run.mismatches.begin(), run.mismatches.end(),
                       [&](const std::string& m) {
                         return m.find(what) != std::string::npos;
                       });
  };
  expect(reported("sampled response bodies differ"),
         "serve: corrupted response reference fails");
  expect(reported("report of the loaded distinguisher differs"),
         "game: corrupted report reference fails");
  expect(reported("differs from the in-process run_cell reference"),
         "cell: corrupted payload reference fails");
  expect(reported("differs from the pinned"),
         "cell: corrupted payload reference misses the pinned CRC");
  return g_failures;
}

}  // namespace perfbench
