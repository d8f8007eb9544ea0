#include "serve/loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <random>
#include <thread>

#include "net/ipv4.hpp"
#include "serve/wire.hpp"

namespace mtscope::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// The step's phase boundaries on the shared clock: load is applied from
/// `begin` to `end`, samples are taken only from sends inside
/// [measure_begin, measure_end).
struct Phases {
  Clock::time_point begin;
  Clock::time_point measure_begin;
  Clock::time_point measure_end;
  Clock::time_point end;
};

/// Everything one connection's sender and receiver share.  The protocol
/// replies in order per connection, so matching a reply to its request is
/// popping the front of the send-timestamp queue.
struct ConnState {
  int fd = -1;
  std::mutex mutex;
  std::deque<Clock::time_point> in_flight;
  std::atomic<bool> sender_done{false};

  // Receiver-side tallies, merged after join.
  std::uint64_t sent_in_window = 0;      // sender-owned
  std::uint64_t late_in_window = 0;      // sender-owned
  std::uint64_t received_in_window = 0;  // receiver-owned
  std::uint64_t errors = 0;
  std::size_t rx_carry = 0;               // receiver-owned: partial-frame bytes
  std::vector<std::uint64_t> samples_us;  // receiver-owned
};

/// Replies completed by this received chunk.  Line protocol: newline
/// count.  Binary: whole 20-byte frames, carrying partial-frame bytes
/// across chunks in conn.rx_carry (TCP segments frames arbitrarily).
std::size_t count_replies(ConnState& conn, WireProtocol proto, const char* chunk,
                          std::size_t n) {
  if (proto == WireProtocol::kLine) {
    return static_cast<std::size_t>(std::count(chunk, chunk + n, '\n'));
  }
  const std::size_t total = conn.rx_carry + n;
  conn.rx_carry = total % wire::kResponseSize;
  return total / wire::kResponseSize;
}

[[nodiscard]] std::uint64_t us_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  // Bounded recv so a server that drops replies (it should not) cannot
  // hang the generator; the receiver re-checks its exit condition on
  // every timeout tick.
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  return fd;
}

bool send_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const auto n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Deterministic query-address stream.  Half the draws land inside
/// 60.0.0.0/6 — the simulation's meta-telescope address range, so both
/// the classified and the "none" lookup paths stay hot regardless of
/// which snapshot the server carries.
class AddrStream {
 public:
  AddrStream(std::uint64_t seed, WireProtocol proto) : rng_(seed), proto_(proto) {}

  void append_request(std::string& out) {
    const std::uint64_t draw = rng_();
    std::uint32_t value = static_cast<std::uint32_t>(draw);
    if ((draw & 1) != 0) value = 0x3C00'0000u | (value & 0x03FF'FFFFu);
    // Same draw -> same address in both protocols, so a line and a binary
    // run with equal seeds offer the identical query stream.
    if (proto_ == WireProtocol::kBinary) {
      wire::Request request;
      request.addr = net::Ipv4Addr(value);
      wire::append_request(out, request);
      return;
    }
    out += net::Ipv4Addr(value).to_string();
    out += '\n';
  }

 private:
  std::mt19937_64 rng_;
  WireProtocol proto_;
};

/// An open-loop send leaving more than this after its request fell due
/// is late: beyond the ~100us batching cadence, the sender was behind.
constexpr auto kLateSend = std::chrono::microseconds(100);

/// Open-loop sender: request k falls due at begin + k * interval, however
/// long the sends before it took.  Sends are batched so the wakeup cadence
/// never drops below ~100us even at very high per-connection rates (at
/// that point per-request sleeps are noise anyway).  A sender that falls
/// behind — a send() stall under server back-pressure — keeps the
/// deficit: the overdue requests go out back to back, each stamped at its
/// due time, so the wait shows in the latency and in the late count
/// instead of vanishing (coordinated omission).  A request a batch sends
/// ahead of its due time is stamped at the send.
void run_open_sender(ConnState& conn, const Phases& phases, std::uint64_t rate_qps,
                     std::uint64_t seed, WireProtocol proto) {
  // Requests are timed from their due time, so the default 50us timer
  // slack on each wakeup would land in every latency sample; this
  // thread's sleeps should end on time.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  AddrStream addrs(seed, proto);
  const auto interval = std::chrono::nanoseconds(
      std::max<std::uint64_t>(1, 1'000'000'000ull / std::max<std::uint64_t>(1, rate_qps)));
  const std::size_t batch =
      interval < std::chrono::microseconds(100)
          ? static_cast<std::size_t>(std::chrono::microseconds(100) / interval)
          : 1;

  std::string wire;
  auto due = phases.begin;  // the next request's due time
  while (true) {
    const auto now = Clock::now();
    if (now >= phases.end) break;
    if (now < due) {
      std::this_thread::sleep_until(due);
      continue;
    }
    wire.clear();
    for (std::size_t i = 0; i < batch; ++i) addrs.append_request(wire);
    const auto sent_at = Clock::now();
    const auto stamp_of = [&](std::size_t i) {
      return std::min<Clock::time_point>(due + interval * i, sent_at);
    };
    {
      const std::lock_guard<std::mutex> lock(conn.mutex);
      for (std::size_t i = 0; i < batch; ++i) conn.in_flight.push_back(stamp_of(i));
    }
    if (!send_all(conn.fd, wire.data(), wire.size())) {
      ++conn.errors;
      break;
    }
    for (std::size_t i = 0; i < batch; ++i) {
      const auto stamp = stamp_of(i);
      if (stamp >= phases.measure_begin && stamp < phases.measure_end) {
        ++conn.sent_in_window;
        if (sent_at - stamp > kLateSend) ++conn.late_in_window;
      }
    }
    due += interval * batch;
  }
  conn.sender_done.store(true, std::memory_order_release);
  ::shutdown(conn.fd, SHUT_WR);
}

/// Shared receiver: count completed replies (lines or frames), match each
/// to its send timestamp, sample the ones sent inside the measure window.
/// Runs until the server half-closes back (EOF after our SHUT_WR drains)
/// or errors.
void run_receiver(ConnState& conn, const Phases& phases, WireProtocol proto) {
  char chunk[16 * 1024];
  while (true) {
    const auto n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Timeout tick: if the sender is done and nothing is owed, the
        // server just has no more to say.
        const std::lock_guard<std::mutex> lock(conn.mutex);
        if (conn.sender_done.load(std::memory_order_acquire) && conn.in_flight.empty()) break;
        continue;
      }
      ++conn.errors;
      break;
    }
    const auto now = Clock::now();
    const auto lines = count_replies(conn, proto, chunk, static_cast<std::size_t>(n));
    if (lines == 0) continue;
    const std::lock_guard<std::mutex> lock(conn.mutex);
    for (std::size_t i = 0; i < lines && !conn.in_flight.empty(); ++i) {
      const auto stamp = conn.in_flight.front();
      conn.in_flight.pop_front();
      if (stamp >= phases.measure_begin && stamp < phases.measure_end) {
        conn.samples_us.push_back(us_between(stamp, now));
      }
    }
    if (now >= phases.measure_begin && now < phases.measure_end) {
      conn.received_in_window += lines;
    }
  }
}

/// Closed-loop connection: keep `depth` requests outstanding, replenish
/// one per reply, stop replenishing at the end of cool-down and drain.
void run_closed_conn(ConnState& conn, const Phases& phases, std::uint64_t depth,
                     std::uint64_t seed, WireProtocol proto) {
  AddrStream addrs(seed, proto);
  std::string wire;
  const auto send_n = [&](std::size_t count) {
    wire.clear();
    for (std::size_t i = 0; i < count; ++i) addrs.append_request(wire);
    const auto stamp = Clock::now();
    for (std::size_t i = 0; i < count; ++i) conn.in_flight.push_back(stamp);
    if (!send_all(conn.fd, wire.data(), wire.size())) {
      ++conn.errors;
      return false;
    }
    if (stamp >= phases.measure_begin && stamp < phases.measure_end) {
      conn.sent_in_window += count;
    }
    return true;
  };

  if (!send_n(static_cast<std::size_t>(depth))) return;

  char chunk[16 * 1024];
  bool draining = false;
  while (!conn.in_flight.empty()) {
    const auto n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (draining) break;  // server owes replies but went silent: give up
        continue;
      }
      ++conn.errors;
      break;
    }
    const auto now = Clock::now();
    const auto lines = count_replies(conn, proto, chunk, static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < lines && !conn.in_flight.empty(); ++i) {
      const auto stamp = conn.in_flight.front();
      conn.in_flight.pop_front();
      if (stamp >= phases.measure_begin && stamp < phases.measure_end) {
        conn.samples_us.push_back(us_between(stamp, now));
      }
    }
    if (now >= phases.measure_begin && now < phases.measure_end) {
      conn.received_in_window += lines;
    }
    if (now < phases.end) {
      if (lines > 0 && !send_n(lines)) break;
    } else if (!draining) {
      draining = true;
      ::shutdown(conn.fd, SHUT_WR);
    }
  }
}

StepResult summarize(std::uint64_t target, int measure_ms,
                     std::vector<std::unique_ptr<ConnState>>& conns) {
  StepResult result;
  result.target = target;
  std::vector<std::uint64_t> samples;
  for (const auto& conn : conns) {
    result.sent += conn->sent_in_window;
    result.late += conn->late_in_window;
    result.received += conn->received_in_window;
    result.errors += conn->errors;
    samples.insert(samples.end(), conn->samples_us.begin(), conn->samples_us.end());
  }
  const double seconds = static_cast<double>(measure_ms) / 1000.0;
  result.offered_qps = static_cast<double>(result.sent) / seconds;
  result.achieved_qps = static_cast<double>(result.received) / seconds;
  result.samples = samples.size();
  if (!samples.empty()) {
    // One sort serves every percentile — percentile_us reads sorted data
    // rather than copying and re-sorting the vector per quantile.
    std::sort(samples.begin(), samples.end());
    result.min_us = samples.front();
    result.max_us = samples.back();
    double total = 0.0;
    for (const auto s : samples) total += static_cast<double>(s);
    result.mean_us = total / static_cast<double>(samples.size());
    result.p50_us = percentile_us(samples, 50.0);
    result.p90_us = percentile_us(samples, 90.0);
    result.p99_us = percentile_us(samples, 99.0);
  }
  return result;
}

util::Result<StepResult> run_step(const LoadgenConfig& config, std::uint64_t target,
                                  std::size_t step_index) {
  std::vector<std::unique_ptr<ConnState>> conns;
  conns.reserve(static_cast<std::size_t>(config.connections));
  for (int i = 0; i < config.connections; ++i) {
    auto conn = std::make_unique<ConnState>();
    conn->fd = connect_to(config.host, config.port);
    // The binary preamble goes out before any sender thread exists, so
    // the first request frame can never race ahead of the negotiation.
    if (conn->fd < 0 ||
        (config.proto == WireProtocol::kBinary &&
         !send_all(conn->fd, wire::kPreamble.data(), wire::kPreamble.size()))) {
      if (conn->fd >= 0) ::close(conn->fd);
      for (const auto& open : conns) ::close(open->fd);
      return util::make_error("loadgen.socket",
                              "connect to " + config.host + ":" + std::to_string(config.port) +
                                  " failed: " + std::strerror(errno));
    }
    conns.push_back(std::move(conn));
  }

  Phases phases;
  phases.begin = Clock::now();
  phases.measure_begin = phases.begin + std::chrono::milliseconds(config.warmup_ms);
  phases.measure_end = phases.measure_begin + std::chrono::milliseconds(config.measure_ms);
  phases.end = phases.measure_end + std::chrono::milliseconds(config.cooldown_ms);

  std::vector<std::thread> threads;
  for (int i = 0; i < config.connections; ++i) {
    ConnState& conn = *conns[static_cast<std::size_t>(i)];
    // Distinct deterministic stream per (run, step, connection).
    const std::uint64_t seed =
        config.seed + 0x9e3779b97f4a7c15ull * (step_index * 1024 + static_cast<std::size_t>(i) + 1);
    if (config.mode == LoadMode::kOpen) {
      // The offered rate splits evenly; the first connections carry the
      // remainder so the step total is exact.
      const std::uint64_t share = target / static_cast<std::uint64_t>(config.connections) +
                                  (static_cast<std::uint64_t>(i) <
                                           target % static_cast<std::uint64_t>(config.connections)
                                       ? 1
                                       : 0);
      threads.emplace_back([&conn, phases, share, seed, proto = config.proto] {
        run_open_sender(conn, phases, share, seed, proto);
      });
      threads.emplace_back([&conn, phases, proto = config.proto] {
        run_receiver(conn, phases, proto);
      });
    } else {
      threads.emplace_back([&conn, phases, target, seed, proto = config.proto] {
        run_closed_conn(conn, phases, target, seed, proto);
      });
    }
  }
  for (auto& thread : threads) thread.join();
  for (const auto& conn : conns) ::close(conn->fd);

  return summarize(target, config.measure_ms, conns);
}

void append_fixed(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  out += buffer;
}

}  // namespace

const char* to_string(LoadMode mode) noexcept {
  return mode == LoadMode::kOpen ? "open" : "closed";
}

const char* to_string(WireProtocol proto) noexcept {
  return proto == WireProtocol::kLine ? "line" : "binary";
}

std::uint64_t percentile_us(std::span<const std::uint64_t> sorted_samples, double q) {
  if (sorted_samples.empty()) return 0;  // a cool-down-only step measures nothing
  const auto index = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(sorted_samples.size())));
  return sorted_samples[std::min(sorted_samples.size() - 1,
                                 std::max<std::size_t>(1, index) - 1)];
}

util::Result<std::vector<std::uint64_t>> parse_step_list(std::string_view text) {
  std::vector<std::uint64_t> steps;
  if (text.empty()) return util::make_error("loadgen.steps", "empty step list");
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = std::min(text.find(',', start), text.size());
    const std::string_view token = text.substr(start, comma - start);
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), value);
    if (token.empty() || ec != std::errc() || ptr != token.data() + token.size() || value == 0) {
      return util::make_error("loadgen.steps",
                              "invalid step '" + std::string(token) +
                                  "' (expected comma-separated positive integers)");
    }
    steps.push_back(value);
    if (comma == text.size()) break;
    start = comma + 1;
  }
  return steps;
}

util::Result<std::vector<StepResult>> run_loadgen(const LoadgenConfig& config) {
  if (config.port == 0) return util::make_error("loadgen.config", "port must be nonzero");
  if (config.connections < 1) {
    return util::make_error("loadgen.config", "connections must be >= 1");
  }
  if (config.steps.empty()) return util::make_error("loadgen.config", "no load steps");
  if (config.measure_ms < 1 || config.warmup_ms < 0 || config.cooldown_ms < 0) {
    return util::make_error("loadgen.config", "invalid phase durations");
  }
  std::vector<StepResult> results;
  results.reserve(config.steps.size());
  for (std::size_t i = 0; i < config.steps.size(); ++i) {
    auto step = run_step(config, config.steps[i], i);
    if (!step.ok()) return step.error();
    results.push_back(std::move(step.value()));
  }
  return results;
}

void write_loadgen_json(std::ostream& out, const LoadgenConfig& config,
                        const std::vector<StepResult>& steps) {
  std::string text;
  text += "{\n";
  text += "  \"tool\": \"mtscope loadgen\",\n";
  text += "  \"host\": \"" + config.host + "\",\n";
  text += "  \"port\": " + std::to_string(config.port) + ",\n";
  text += "  \"mode\": \"" + std::string(to_string(config.mode)) + "\",\n";
  text += "  \"proto\": \"" + std::string(to_string(config.proto)) + "\",\n";
  text += "  \"connections\": " + std::to_string(config.connections) + ",\n";
  text += "  \"warmup_ms\": " + std::to_string(config.warmup_ms) + ",\n";
  text += "  \"measure_ms\": " + std::to_string(config.measure_ms) + ",\n";
  text += "  \"cooldown_ms\": " + std::to_string(config.cooldown_ms) + ",\n";
  text += "  \"seed\": " + std::to_string(config.seed) + ",\n";
  text += "  \"steps\": [";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& step = steps[i];
    text += i == 0 ? "\n" : ",\n";
    text += "    {\n";
    text += "      \"target\": " + std::to_string(step.target) + ",\n";
    text += "      \"offered_qps\": ";
    append_fixed(text, step.offered_qps);
    text += ",\n      \"achieved_qps\": ";
    append_fixed(text, step.achieved_qps);
    text += ",\n      \"sent\": " + std::to_string(step.sent) + ",\n";
    text += "      \"late\": " + std::to_string(step.late) + ",\n";
    text += "      \"received\": " + std::to_string(step.received) + ",\n";
    text += "      \"errors\": " + std::to_string(step.errors) + ",\n";
    text += "      \"samples\": " + std::to_string(step.samples) + ",\n";
    text += "      \"latency_us\": {\n";
    text += "        \"min\": " + std::to_string(step.min_us) + ",\n";
    text += "        \"mean\": ";
    append_fixed(text, step.mean_us);
    text += ",\n        \"p50\": " + std::to_string(step.p50_us) + ",\n";
    text += "        \"p90\": " + std::to_string(step.p90_us) + ",\n";
    text += "        \"p99\": " + std::to_string(step.p99_us) + ",\n";
    text += "        \"max\": " + std::to_string(step.max_us) + "\n";
    text += "      }\n";
    text += "    }";
  }
  text += steps.empty() ? "]\n" : "\n  ]\n";
  text += "}\n";
  out << text;
}

}  // namespace mtscope::serve
