#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <ctime>

#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::vector<std::uint64_t> poisson_schedule(double rate, std::size_t n,
                                            std::uint64_t seed) {
  mldist::util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> due(n);
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    t += -std::log1p(-rng.next_double()) / rate;
    due[i] = static_cast<std::uint64_t>(t * 1e9);
  }
  return due;
}

bool LoadResult::backlog_growing() const {
  const std::size_t n = wait_ms.size();
  if (n < 8) return false;
  const auto quarter_mean = [&](std::size_t q) {
    double sum = 0.0;
    for (std::size_t i = q * n / 4; i < (q + 1) * n / 4; ++i) sum += wait_ms[i];
    return sum / static_cast<double>((q + 1) * n / 4 - q * n / 4);
  };
  return quarter_mean(3) > quarter_mean(1) + kGrowthMs;
}

std::string http_request(const std::string& body) {
  return "POST /v1/classify HTTP/1.1\r\nHost: l\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
}

namespace {

int open_socket() {
  return ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

/// HTTP status and body of a complete "Connection: close" response.
int parse_response(const std::string& raw, std::string* body) {
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || raw.size() < 12) return 0;
  const int status = std::atoi(raw.c_str() + 9);
  const std::size_t sep = raw.find("\r\n\r\n");
  if (sep == std::string::npos) return 0;
  if (body != nullptr) *body = raw.substr(sep + 4);
  return status;
}

struct Conn {
  int fd = -1;
  std::size_t index = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t connected_ns = 0;
  std::string out;
  std::size_t sent = 0;
  std::string in;
};

}  // namespace

int post_once(std::uint16_t port, const std::string& body,
              std::string* response_body) {
  LoadOptions opt;
  opt.port = port;
  opt.max_conns = 1;
  opt.due_ns = {0};
  opt.bodies = {body};
  opt.keep_every = 1;
  const LoadResult r = run_open_loop(opt);
  if (response_body != nullptr && !r.kept.empty()) {
    *response_body = r.kept.front().second;
  }
  return r.ok == 1 ? 200 : 0;
}

LoadResult run_open_loop(const LoadOptions& opt) {
  LoadResult res;
  const std::size_t n = opt.due_ns.size();
  res.due = n;
  res.wait_ms.reserve(n);
  res.late_ms.reserve(n);
  std::vector<std::string> requests;
  requests.reserve(opt.bodies.size());
  for (const std::string& b : opt.bodies) requests.push_back(http_request(b));

  const sockaddr_in addr = loopback(opt.port);
  std::vector<Conn> conns(opt.max_conns);
  std::vector<pollfd> fds(opt.max_conns);
  std::size_t active = 0;
  std::size_t next = 0;
  const std::uint64_t t0 = now_ns() + 1'000'000;  // 1 ms to settle
  std::uint64_t last_full_end = 0;
  std::uint64_t last_done = t0;
  const std::uint64_t timeout_ns =
      static_cast<std::uint64_t>(opt.timeout_ms) * 1'000'000ULL;

  const auto finish = [&](Conn& c, std::uint64_t now, bool io_ok) {
    if (active == opt.max_conns) last_full_end = now;
    --active;
    ::close(c.fd);
    c.fd = -1;
    last_done = now;
    if (!io_ok) {
      ++res.errors;
      return;
    }
    std::string body;
    const int status = parse_response(c.in, &body);
    if (status == 200) {
      ++res.ok;
      res.latency_ms.push_back(
          static_cast<double>(now - (t0 + opt.due_ns[c.index])) / 1e6);
      res.service_ms.push_back(static_cast<double>(now - c.start_ns) / 1e6);
      if (opt.keep_every != 0 && c.index % opt.keep_every == 0) {
        res.kept.emplace_back(c.index, std::move(body));
      }
    } else if (status != 0) {
      ++res.non_ok;
    } else {
      ++res.errors;
    }
  };

  // Push bytes on a connected socket; false on a hard error.
  const auto pump_send = [&](Conn& c) {
    while (c.sent < c.out.size()) {
      const ssize_t k = ::send(c.fd, c.out.data() + c.sent,
                               c.out.size() - c.sent, MSG_NOSIGNAL);
      if (k > 0) {
        c.sent += static_cast<std::size_t>(k);
      } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else if (k < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    return true;
  };

  while (next < n || active > 0) {
    std::uint64_t now = now_ns();
    // Start every request that is due while a connection slot is free.
    while (next < n && t0 + opt.due_ns[next] <= now &&
           active < opt.max_conns) {
      const std::uint64_t due = t0 + opt.due_ns[next];
      res.wait_ms.push_back(static_cast<double>(now - due) / 1e6);
      res.late_ms.push_back(
          static_cast<double>(now - std::max(due, last_full_end)) / 1e6);
      Conn* slot = nullptr;
      for (Conn& c : conns) {
        if (c.fd < 0) {
          slot = &c;
          break;
        }
      }
      Conn& c = *slot;
      c = Conn{};
      c.index = next++;
      c.start_ns = now;
      c.out = requests[c.index % requests.size()];
      c.fd = open_socket();
      if (c.fd < 0) {
        ++res.errors;
        continue;
      }
      ++active;
      res.max_in_flight = std::max(res.max_in_flight, active);
      const int rc = ::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                               sizeof(addr));
      if (rc == 0) {
        c.connected_ns = now_ns();
        res.connect_us.push_back(
            static_cast<double>(c.connected_ns - c.start_ns) / 1e3);
        if (!pump_send(c)) finish(c, now_ns(), false);
      } else if (errno != EINPROGRESS) {
        finish(c, now_ns(), false);
      }
    }

    if (next >= n && active == 0) break;

    for (std::size_t i = 0; i < conns.size(); ++i) {
      const Conn& c = conns[i];
      fds[i].fd = c.fd;
      fds[i].revents = 0;
      if (c.fd < 0) {
        fds[i].events = 0;
      } else if (c.connected_ns == 0 || c.sent < c.out.size()) {
        fds[i].events = POLLOUT;
      } else {
        fds[i].events = POLLIN;
      }
    }
    // Sleep until the next due time (when a slot is free) or at most 5 ms,
    // which bounds how late a per-request timeout is noticed.
    std::uint64_t wait_ns = 5'000'000;
    if (next < n && active < opt.max_conns) {
      const std::uint64_t due = t0 + opt.due_ns[next];
      wait_ns = due > now ? std::min(wait_ns, due - now) : 0;
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait_ns / 1'000'000'000ULL);
    ts.tv_nsec = static_cast<long>(wait_ns % 1'000'000'000ULL);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) break;
    now = now_ns();

    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (c.fd < 0) continue;
      const short ev = fds[i].revents;
      if (ev != 0 && c.connected_ns == 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          finish(c, now, false);
          continue;
        }
        c.connected_ns = now;
        res.connect_us.push_back(
            static_cast<double>(c.connected_ns - c.start_ns) / 1e3);
      }
      if (ev != 0 && c.sent < c.out.size()) {
        if (!pump_send(c)) {
          finish(c, now, false);
          continue;
        }
      }
      if ((ev & (POLLIN | POLLHUP | POLLERR)) != 0 && c.sent == c.out.size()) {
        char buf[4096];
        bool closed = false;
        bool failed = false;
        for (;;) {
          const ssize_t k = ::recv(c.fd, buf, sizeof(buf), 0);
          if (k > 0) {
            c.in.append(buf, static_cast<std::size_t>(k));
          } else if (k == 0) {
            closed = true;
            break;
          } else if (errno == EINTR) {
            continue;
          } else {
            failed = errno != EAGAIN && errno != EWOULDBLOCK;
            break;
          }
        }
        if (closed || failed) {
          finish(c, now_ns(), !failed);
          continue;
        }
      }
      if (c.fd >= 0 && now - c.start_ns > timeout_ns) finish(c, now, false);
    }
  }
  res.seconds = static_cast<double>(last_done - t0) / 1e9;
  return res;
}

}  // namespace perfbench
