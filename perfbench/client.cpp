// perfbench_client: the serve-mixed load generator.
//
// One process, one thread, a fixed number of keep-alive connections to a
// running `wfr serve`.  The loop is closed: a connection sends its next
// request only after the previous response has fully arrived, so the
// offered load follows the server's pace.  Requests walk the schedule
// round in order (connection k takes the next unclaimed entry), wrapping
// at the end of the round.
//
// usage: perfbench_client --port P --schedule FILE --conns C
//                         --seconds SECONDS --responses OUT
//
// The first round of the schedule warms the server up.  Then whole
// rounds run until SECONDS have passed.  Prints one JSON line: requests
// attempted and failed (non-200 statuses) in the measured rounds, the
// rate and median latency of the fastest round, the median round's rate,
// and the client-observed mean latency and latency percentiles over all
// measured requests.
// OUT receives every distinct response body seen per request body, so
// the caller can check both the content and that identical request
// bodies got byte-identical responses.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "schedule.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  int port = 0;
  std::string schedule;
  int conns = 1;
  double seconds = 1.0;
  std::string responses;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--port") o.port = std::stoi(value);
    else if (flag == "--schedule") o.schedule = value;
    else if (flag == "--conns") o.conns = std::stoi(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--responses") o.responses = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (o.port <= 0 || o.schedule.empty() || o.conns < 1 || o.responses.empty())
    throw std::runtime_error(
        "usage: perfbench_client --port P --schedule FILE --conns C "
        "--seconds S --responses OUT");
  return o;
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect failed: ") +
                             std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Connection {
  int fd = -1;
  int body = -1;               // body id in flight, -1 when idle
  std::size_t round = 0;       // schedule round of the request in flight
  std::size_t sent = 0;
  std::string in;              // bytes received for the current response
  Clock::time_point started;
};

// Parses a complete response out of `buf`: returns false while incomplete.
bool parse_response(const std::string& buf, int* status, std::string* body) {
  const std::size_t end = buf.find("\r\n\r\n");
  if (end == std::string::npos) return false;
  if (buf.compare(0, 9, "HTTP/1.1 ") != 0)
    throw std::runtime_error("malformed status line");
  *status = std::atoi(buf.c_str() + 9);
  std::size_t length = 0;
  bool have_length = false;
  std::size_t line = buf.find("\r\n") + 2;
  while (line < end) {
    const std::size_t next = buf.find("\r\n", line);
    if (next - line > 15 &&
        ::strncasecmp(buf.c_str() + line, "content-length:", 15) == 0) {
      length = std::strtoull(buf.c_str() + line + 15, nullptr, 10);
      have_length = true;
    }
    line = next + 2;
  }
  if (!have_length) throw std::runtime_error("response without length");
  if (buf.size() < end + 4 + length) return false;
  if (buf.size() > end + 4 + length)
    throw std::runtime_error("unsolicited bytes after a response");
  body->assign(buf, end + 4, length);
  return true;
}

// Linear-interpolated quantile of a sorted, non-empty sample (Python's
// statistics.quantiles "inclusive" method).
double percentile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

int run(const Options& o) {
  const perfbench::Schedule schedule = perfbench::load_schedule(o.schedule);
  std::vector<std::string> wire;
  for (const perfbench::RequestBody& b : schedule.bodies)
    wire.push_back(perfbench::wire_request(b));
  const std::size_t round_size = schedule.round.size();
  std::vector<Connection> conns(static_cast<std::size_t>(o.conns));
  for (Connection& c : conns) c.fd = connect_loopback(o.port);

  // Round 0 warms the server up; rounds 1.. are measured.  Issuing stops
  // at the first round boundary after the deadline, so every run attempts
  // whole rounds of the same requests.
  struct Round {
    Clock::time_point last_done;
    std::vector<double> latencies_ns;
    std::uint64_t failed = 0;
  };
  std::vector<Round> rounds;
  std::map<int, std::vector<std::pair<int, std::string>>> variants;
  std::uint64_t issued = 0;
  Clock::time_point deadline = Clock::time_point::max();

  auto issue = [&](Connection& c) {
    const std::size_t round = issued / round_size;
    if (issued % round_size == 0) {
      if (Clock::now() >= deadline) return false;
      rounds.emplace_back();
      rounds.back().latencies_ns.reserve(round_size);
    }
    c.round = round;
    c.body = schedule.round[issued % round_size];
    ++issued;
    c.sent = 0;
    c.in.clear();
    c.started = Clock::now();
    return true;
  };
  std::size_t busy = 0;
  for (Connection& c : conns) busy += issue(c) ? 1 : 0;

  std::vector<pollfd> fds(conns.size());
  std::string body;
  char chunk[65536];
  while (busy > 0) {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      const Connection& c = conns[i];
      fds[i].fd = c.body < 0 ? -1 : c.fd;
      fds[i].events = static_cast<short>(
          c.body >= 0 && c.sent < wire[static_cast<std::size_t>(c.body)].size()
              ? POLLOUT
              : POLLIN);
      fds[i].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), 1000) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("poll failed");
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      if (c.body < 0 || fds[i].revents == 0) continue;
      const std::string& request = wire[static_cast<std::size_t>(c.body)];
      if (c.sent < request.size()) {
        const ssize_t n = ::send(c.fd, request.data() + c.sent,
                                 request.size() - c.sent, MSG_NOSIGNAL);
        if (n < 0 && errno != EAGAIN && errno != EINTR)
          throw std::runtime_error(std::string("send failed: ") +
                                   std::strerror(errno));
        if (n > 0) c.sent += static_cast<std::size_t>(n);
        continue;
      }
      const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
      if (n == 0) throw std::runtime_error("server closed a connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        throw std::runtime_error(std::string("recv failed: ") +
                                 std::strerror(errno));
      }
      c.in.append(chunk, static_cast<std::size_t>(n));
      int status = 0;
      if (!parse_response(c.in, &status, &body)) continue;

      const Clock::time_point done = Clock::now();
      Round& round = rounds[c.round];
      round.last_done = std::max(round.last_done, done);
      round.latencies_ns.push_back(
          std::chrono::duration<double, std::nano>(done - c.started).count());
      if (status != 200) ++round.failed;
      if (c.round == 0 && round.latencies_ns.size() == round_size)
        deadline = done + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(o.seconds));
      auto& seen = variants[c.body];
      const bool known = std::any_of(
          seen.begin(), seen.end(),
          [&](const auto& v) { return v.first == status && v.second == body; });
      if (!known) seen.emplace_back(status, body);

      if (!issue(c)) {
        c.body = -1;
        --busy;
      }
    }
  }
  for (Connection& c : conns) ::close(c.fd);

  std::ofstream out(o.responses, std::ios::binary | std::ios::trunc);
  for (const auto& [id, seen] : variants) {
    out << "R " << id << " " << seen.size() << "\n";
    for (const auto& [status, text] : seen)
      out << status << " " << text.size() << "\n" << text << "\n";
  }
  out.flush();
  if (!out) throw std::runtime_error("cannot write " + o.responses);
  if (rounds.size() < 2) throw std::runtime_error("no measured round");

  // A round's time runs from the previous round's last response to its
  // own.  Every round sends the same requests, so the fastest one is the
  // program's speed with the least interference from other tenants of a
  // shared machine (see README.md, "Steadiness").
  std::vector<double> round_s, round_p50_ns, all_ns;
  std::uint64_t failed = 0;
  for (std::size_t r = 1; r < rounds.size(); ++r) {
    round_s.push_back(std::chrono::duration<double>(
                          rounds[r].last_done - rounds[r - 1].last_done)
                          .count());
    std::vector<double>& ns = rounds[r].latencies_ns;
    all_ns.insert(all_ns.end(), ns.begin(), ns.end());
    std::sort(ns.begin(), ns.end());
    round_p50_ns.push_back(percentile(ns, 0.50));
    failed += rounds[r].failed;
  }
  double sum_ns = 0.0;
  for (double ns : all_ns) sum_ns += ns;
  std::sort(all_ns.begin(), all_ns.end());
  std::sort(round_s.begin(), round_s.end());
  std::sort(round_p50_ns.begin(), round_p50_ns.end());
  std::printf(
      "{\"attempted\":%zu,\"failed\":%llu,\"rounds\":%zu,"
      "\"best_rate\":%.17g,\"median_rate\":%.17g,\"best_p50_ms\":%.17g,"
      "\"median_p50_ms\":%.17g,\"mean_ms\":%.17g,\"p50_ms\":%.17g,"
      "\"p90_ms\":%.17g,\"p99_ms\":%.17g}\n",
      all_ns.size(), static_cast<unsigned long long>(failed), round_s.size(),
      static_cast<double>(round_size) / round_s.front(),
      static_cast<double>(round_size) / percentile(round_s, 0.50),
      round_p50_ns.front() / 1e6, percentile(round_p50_ns, 0.50) / 1e6,
      sum_ns / static_cast<double>(all_ns.size()) / 1e6,
      percentile(all_ns, 0.50) / 1e6, percentile(all_ns, 0.90) / 1e6,
      percentile(all_ns, 0.99) / 1e6);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_client: %s\n", e.what());
    return 1;
  }
}
