#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/analytics_format.hpp"
#include "serve/wire.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"

namespace mtscope::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// The one server receiving process signals (install_signal_handlers).
std::atomic<QueryServer*> g_signal_server{nullptr};

extern "C" void mtscope_serve_signal_handler(int signum) {
  // Async-signal-safe: one atomic load plus the eventfd writes inside the
  // request_* methods.
  QueryServer* server = g_signal_server.load(std::memory_order_acquire);
  if (server == nullptr) return;
  if (signum == SIGHUP) {
    server->request_reload();
  } else {
    server->request_stop();
  }
}

util::Error socket_error(const char* what) {
  return util::make_error("serve.socket",
                          std::string(what) + ": " + std::strerror(errno));
}

/// How much of a garbage request line gets echoed back in the "invalid"
/// reply — enough to recognize, never enough to amplify.
constexpr std::size_t kInvalidEchoBytes = 64;

}  // namespace

std::string format_verdict(net::Ipv4Addr addr,
                           const std::optional<TelescopeIndex::Verdict>& verdict) {
  if (!verdict.has_value()) return addr.to_string() + " none";
  std::string out = addr.to_string();
  out += ' ';
  out += to_string(verdict->cls);
  out += ' ';
  out += verdict->prefix ? verdict->prefix->to_string() : "-";
  out += ' ';
  out += verdict->origin ? verdict->origin->to_string() : "-";
  return out;
}

void append_sanitized_echo(std::string& out, std::string_view token, std::size_t limit) {
  const std::size_t n = std::min(token.size(), limit);
  for (std::size_t i = 0; i < n; ++i) {
    const auto byte = static_cast<unsigned char>(token[i]);
    out += (byte >= 0x20 && byte <= 0x7e) ? token[i] : '.';
  }
}

namespace {

/// Run one request's answer, timing it into `timer` when there is one.
template <typename Answer>
void timed(obs::TimingHistogram* timer, Answer&& answer) {
  if (timer == nullptr) {
    answer();
    return;
  }
  const auto t0 = Clock::now();
  answer();
  timer->record_us(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count()));
}

void answer_line(std::string_view line, const TelescopeIndex& index, std::string& out,
                 obs::TimingHistogram* timer, RequestTally& tally) {
  const auto token = util::trim(line);  // strips CRLF and padding
  if (token.empty() || token.front() == '#') return;
  ++tally.replies;
  timed(timer, [&] {
    // Analytics verbs (top-ports / outages / scanners) share one
    // formatter with `mtscope analyze`, so the wire and the CLI can never
    // drift; everything else stays on the IPv4 fast path.
    if (is_analytics_verb(token)) {
      out += answer_analytics_query(index, token);
    } else if (const auto addr = net::Ipv4Addr::parse(token)) {
      out += format_verdict(*addr, index.lookup(*addr));
    } else {
      append_sanitized_echo(out, token, kInvalidEchoBytes);
      out += " invalid";
      ++tally.invalid;
    }
    out += '\n';
  });
}

/// A malformed frame gets one invalid-frame response; the caller resumes
/// at the next 12-byte boundary, so corruption can never desync the
/// stream.
void answer_frame(std::span<const std::uint8_t> frame, const TelescopeIndex& index,
                  std::string& out, obs::TimingHistogram* timer, RequestTally& tally) {
  ++tally.replies;
  timed(timer, [&] {
    const auto decoded = wire::decode_request(frame);
    if (!decoded.ok()) {
      // The addr field is echoed only when the frame's seal held; after a
      // CRC failure no field is trustworthy, so the reply carries 0.
      const auto reason = wire::invalid_reason(decoded.error().code);
      const net::Ipv4Addr addr = reason == wire::InvalidReason::kBadCrc
                                     ? net::Ipv4Addr(0)
                                     : net::Ipv4Addr(util::le_get_u32(frame, 4));
      wire::append_response(out, wire::make_invalid_response(addr, reason));
      ++tally.invalid;
    } else if (decoded.value().verb == wire::Verb::kLookup) {
      const net::Ipv4Addr addr = decoded.value().addr;
      wire::append_response(out, wire::make_verdict_response(addr, index.lookup(addr)));
    } else {
      // count-in canonicalizes the base (host bits masked off) and echoes
      // the canonical form, mirroring what the index actually counted.
      const auto prefix = net::Prefix::canonical(decoded.value().addr, decoded.value().plen);
      wire::append_response(out, wire::make_count_response(prefix.base(), decoded.value().plen,
                                                           index.count_in(prefix)));
    }
  });
}

/// A request line past the cap is a protocol violation, not a slow
/// write: one sanitized invalid reply, everything buffered dropped, then
/// the connection closes.  Counted but never timed — it does not reach
/// the request path.
void kill_overlong(std::string_view line, std::size_t buffered, std::string& out,
                   RequestTally& tally) {
  append_sanitized_echo(out, line, kInvalidEchoBytes);
  out += " invalid\n";
  ++tally.replies;
  ++tally.invalid;
  tally.consumed = buffered;
  tally.fatal = true;
}

}  // namespace

RequestTally answer_requests(RequestProto& proto, std::string_view in, bool eof,
                             const TelescopeIndex& index, std::size_t max_request_bytes,
                             std::string& out, obs::TimingHistogram* timer) {
  RequestTally tally;
  if (proto == RequestProto::kUndecided) {
    // No line-protocol opener (dotted quad, comment, verb) starts with
    // the preamble, so divergence at any byte means a line client.
    const std::size_t probe = std::min(in.size(), wire::kPreamble.size());
    if (in.substr(0, probe) != wire::kPreamble.substr(0, probe)) {
      proto = RequestProto::kLine;
    } else if (probe == wire::kPreamble.size()) {
      proto = RequestProto::kBinary;
      tally.consumed = probe;
    } else if (eof) {
      proto = RequestProto::kLine;  // a half-closed preamble prefix is a line leftover
    } else {
      return tally;
    }
  }

  if (proto == RequestProto::kBinary) {
    const std::span<const std::uint8_t> bytes(reinterpret_cast<const std::uint8_t*>(in.data()),
                                              in.size());
    while (bytes.size() - tally.consumed >= wire::kRequestSize) {
      answer_frame(bytes.subspan(tally.consumed, wire::kRequestSize), index, out, timer, tally);
      tally.consumed += wire::kRequestSize;
    }
    return tally;
  }

  for (;;) {
    const std::size_t newline = in.find('\n', tally.consumed);
    if (newline == std::string_view::npos) break;
    const std::string_view line = in.substr(tally.consumed, newline - tally.consumed);
    if (line.size() > max_request_bytes) {
      kill_overlong(line, in.size(), out, tally);
      return tally;
    }
    answer_line(line, index, out, timer, tally);
    tally.consumed = newline + 1;
  }
  // An unterminated line is condemned as soon as it outgrows the cap.
  if (in.size() - tally.consumed > max_request_bytes) {
    kill_overlong(in.substr(tally.consumed), in.size(), out, tally);
  }
  return tally;
}

/// Per-client state.  `out` is drained from `out_off` so flushing never
/// memmoves; the string is recycled once empty.  Fresh replies for a batch
/// are built in the reactor's scratch buffer and coalesced with the
/// leftover `out` bytes into one sendmsg — only what the kernel refuses
/// (or the fairness cap defers) is copied into `out`.
struct QueryServer::Connection {
  int fd = -1;
  std::string in;
  std::string out;
  std::size_t out_off = 0;
  Clock::time_point last_activity{};
  std::uint32_t interest = 0;
  RequestProto proto = RequestProto::kUndecided;  // settled by answer_requests
  bool paused = false;       // back-pressure: reply backlog over the cap
  bool read_closed = false;  // peer EOF (or drain): no further requests
  bool fatal = false;        // protocol violation: close once out drains

  [[nodiscard]] std::size_t pending() const noexcept { return out.size() - out_off; }
};

// ---------------------------------------------------------------------------
// Reactor: one event loop, one SO_REUSEPORT listener, one connection
// table.  Everything it mutates is thread-confined; it reaches into the
// parent only for the shared SnapshotManager, the config, and the relaxed
// monotonic counters.  Requests are answered by answer_requests(); the
// reactor only moves bytes and adds each batch's tally to the counters.

class QueryServer::Reactor {
 public:
  Reactor(QueryServer& server, int index)
      : server_(server), index_(index) {
    if (server_.metrics_ != nullptr) request_timer_ = std::make_unique<obs::TimingHistogram>();
  }

  ~Reactor() {
    for (auto& [fd, conn] : conns_) {
      loop_.remove(fd);
      ::close(fd);
    }
    conns_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind + listen on `port` (0 = kernel-assigned, first reactor only)
  /// and create the wake eventfd.  With more than one reactor every
  /// listener sets SO_REUSEPORT so the kernel spreads accepts.
  [[nodiscard]] util::Result<std::uint16_t> open(std::uint16_t port) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return socket_error("socket");
    const int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
    if (server_.config_.reactors > 1) {
      if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &enable, sizeof(enable)) != 0) {
        return socket_error("setsockopt(SO_REUSEPORT)");
      }
    }

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      return socket_error("bind");
    }
    if (::listen(listen_fd_, 128) != 0) return socket_error("listen");

    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
      return socket_error("getsockname");
    }

    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wake_fd_ < 0) return socket_error("eventfd");

    loop_.add(listen_fd_, EPOLLIN);
    loop_.add(wake_fd_, EPOLLIN);
    return ntohs(bound.sin_port);
  }

  /// Async-signal-safe: one write(2) on an fd that is set once in open()
  /// and never changes while the reactor may run.
  void wake() noexcept {
    const std::uint64_t one = 1;
    if (wake_fd_ >= 0) {
      [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
    }
  }

  void run() {
    std::vector<EventLoop::Event> events;
    while (true) {
      if (draining_) {
        if (conns_.empty()) break;
        if (Clock::now() >= drain_deadline_) {
          for (auto it = conns_.begin(); it != conns_.end();) {
            const int fd = it->first;
            ++it;
            close_connection(fd);
          }
          break;
        }
      }

      loop_.wait(events, next_timeout_ms());
      for (const auto& event : events) {
        if (event.fd == wake_fd_) {
          handle_wake();
        } else if (event.fd == listen_fd_) {
          accept_ready();
        } else {
          connection_ready(event.fd, event.events);
        }
      }
      // Signals may land without a consumable wake event (EINTR during
      // epoll_wait); the flags are the source of truth.
      if (server_.reload_requested_.load(std::memory_order_acquire) ||
          server_.stop_requested_.load(std::memory_order_acquire)) {
        handle_wake();
      }
      maybe_sweep();
      if (index_ == 0) server_.check_watch();
    }
  }

  [[nodiscard]] std::uint64_t accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Null without a registry attached.
  [[nodiscard]] const obs::TimingHistogram* request_timer() const noexcept {
    return request_timer_.get();
  }

 private:
  /// The idle sweep runs on a coarse deadline — a quarter of the idle
  /// timeout — instead of recomputing every connection's deadline on
  /// every wakeup, which was O(conns) per event.  A connection is retired
  /// between idle_timeout and idle_timeout + cadence after its last
  /// progress, which the timeout contract allows (it promises "no sooner
  /// than", not "exactly at").
  [[nodiscard]] std::int64_t sweep_cadence_ms() const noexcept {
    return std::max<std::int64_t>(1, server_.config_.idle_timeout_ms / 4);
  }

  [[nodiscard]] int next_timeout_ms() const {
    const bool watching =
        index_ == 0 && server_.config_.watch_interval_ms > 0 && !draining_;
    if (conns_.empty() && !draining_ && !watching) return -1;
    const auto now = Clock::now();
    std::int64_t timeout_ms = 60'000;
    const auto until = [&](Clock::time_point deadline) {
      return std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
    };
    if (!conns_.empty()) timeout_ms = std::min(timeout_ms, until(next_sweep_));
    if (watching) timeout_ms = std::min(timeout_ms, until(server_.next_watch_));
    if (draining_) timeout_ms = std::min(timeout_ms, until(drain_deadline_));
    // +1 rounds the sub-millisecond remainder up so a deadline poll never
    // spins hot at timeout 0.
    return static_cast<int>(std::clamp<std::int64_t>(timeout_ms + 1, 1, 60'000));
  }

  void handle_wake() {
    std::uint64_t drained = 0;
    [[maybe_unused]] const auto n = ::read(wake_fd_, &drained, sizeof(drained));

    // Reactor 0 owns the reload: the SnapshotManager install is a single
    // epoch swap every reactor's next batch observes, so loading once is
    // both sufficient and what keeps the file read off the other loops.
    if (index_ == 0 &&
        server_.reload_requested_.exchange(false, std::memory_order_acq_rel)) {
      server_.do_reload();
    }
    if (server_.stop_requested_.load(std::memory_order_acquire) && !draining_) {
      begin_drain();
    }
  }

  void begin_drain() {
    draining_ = true;
    drain_deadline_ =
        Clock::now() + std::chrono::milliseconds(server_.config_.drain_timeout_ms);
    if (listen_fd_ >= 0) {
      loop_.remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    // Answer everything already received, then let flush_output /
    // update_interest retire each connection as its backlog empties.  A
    // connection whose backlog fits the socket buffer right now must be
    // closed here — with reads off and nothing pending its interest mask
    // is empty, so no event would ever fire to retire it.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection& conn = *it->second;
      ++it;  // close_connection erases the entry
      conn.read_closed = true;
      batch_.clear();
      process_input(conn);
      if (!flush_output(conn, batch_) || conn.pending() == 0) {
        close_connection(conn.fd);
        continue;
      }
      update_interest(conn);
    }
  }

  void accept_ready() {
    for (;;) {
      const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        return;  // transient accept failure (e.g. ECONNABORTED): keep serving
      }
      // max_conns caps the whole server; with several reactors accepting
      // concurrently the check is best-effort (a burst can overshoot by
      // at most reactors-1), which is the usual REUSEPORT trade.
      if (server_.active_.load(std::memory_order_relaxed) >=
          static_cast<std::uint64_t>(server_.config_.max_conns)) {
        ::close(fd);
        server_.drops_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const int enable = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));

      auto conn = std::make_unique<Connection>();
      conn->fd = fd;
      conn->last_activity = Clock::now();
      conn->interest = EPOLLIN | EPOLLRDHUP;
      loop_.add(fd, conn->interest);
      if (conns_.empty()) next_sweep_ = Clock::now() + std::chrono::milliseconds(sweep_cadence_ms());
      conns_.emplace(fd, std::move(conn));
      server_.note_accept();

      accepted_.fetch_add(1, std::memory_order_relaxed);
      server_.connections_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void connection_ready(int fd, std::uint32_t events) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;  // closed earlier in this dispatch batch
    Connection& conn = *it->second;

    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      close_connection(fd);
      return;
    }

    batch_.clear();
    if ((events & (EPOLLIN | EPOLLRDHUP)) != 0 && !conn.read_closed && !conn.fatal) {
      // One bounded chunk per event: level-triggered epoll re-arms while
      // input remains, so a pipelining client cannot balloon `in`/`out`
      // between back-pressure checks.
      char chunk[16 * 1024];
      std::size_t want = sizeof(chunk);
      if (conn.proto != RequestProto::kBinary && !conn.in.empty()) {
        // A partial line (or preamble prefix) is already buffered: cap the
        // read so `in` can never grow past max_request_bytes plus the one
        // byte that proves the violation — previously a client could park
        // max_request_bytes + 16KiB - 1 unanswered bytes here.  Binary
        // mode is exempt: frames are fixed-width, so the residual after
        // answer_requests is always shorter than one frame.
        const std::size_t cap = server_.config_.max_request_bytes + 1;
        want = std::min(want, cap > conn.in.size() ? cap - conn.in.size() : std::size_t{1});
      }
      const auto n = ::recv(fd, chunk, want, 0);
      if (n > 0) {
        conn.in.append(chunk, static_cast<std::size_t>(n));
        conn.last_activity = Clock::now();
        process_input(conn);
      } else if (n == 0) {
        // Peer finished sending (possibly via shutdown(SHUT_WR)); answer
        // what is buffered, flush, then close.
        conn.read_closed = true;
        process_input(conn);
      } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        close_connection(fd);
        return;
      }
    }

    if (!flush_output(conn, batch_)) {
      close_connection(fd);
      return;
    }
    if (conn.pending() > server_.config_.max_pending_bytes) conn.paused = true;
    if ((conn.read_closed || conn.fatal) && conn.pending() == 0) {
      close_connection(fd);
      return;
    }
    update_interest(conn);
  }

  /// Answer every complete request in `conn.in` into the reactor's
  /// scratch batch buffer (the caller coalesces it into one sendmsg via
  /// flush_output(conn, batch_)) and add the batch's tally to the server
  /// totals — one update per counter per batch, never per request, and
  /// before the flush, so a client holding its replies sees them counted.
  void process_input(Connection& conn) {
    // One index grab per batch: the lock-free reader path.  Everything in
    // this batch is answered from one consistent epoch even if a reload
    // lands concurrently with the next batch.
    const std::shared_ptr<const TelescopeIndex> index = server_.manager_.current();
    const RequestTally tally =
        answer_requests(conn.proto, conn.in, conn.read_closed, *index,
                        server_.config_.max_request_bytes, batch_, request_timer_.get());
    conn.in.erase(0, tally.consumed);
    if (tally.replies > 0) server_.queries_.fetch_add(tally.replies, std::memory_order_relaxed);
    if (tally.invalid > 0) server_.invalid_.fetch_add(tally.invalid, std::memory_order_relaxed);
    if (tally.fatal) {
      conn.fatal = true;
      server_.drops_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Flush the leftover per-connection buffer plus this event's fresh
  /// batch as one vectored send.  At most max_flush_bytes_per_event bytes
  /// leave per call — past the cap the remainder stays queued and
  /// EPOLLOUT re-arms, so a huge backlog on one connection yields the
  /// reactor to every other ready connection (the fairness contract).
  /// Returns false when the peer is gone (EPIPE / ECONNRESET).
  bool flush_output(Connection& conn, std::string_view batch = {}) {
    std::size_t budget = server_.config_.max_flush_bytes_per_event;
    std::size_t batch_off = 0;
    bool peer_gone = false;
    while (budget > 0 && (conn.pending() > 0 || batch.size() > batch_off)) {
      iovec iov[2];
      int iov_count = 0;
      std::size_t want = 0;
      if (conn.pending() > 0) {
        const std::size_t len = std::min(conn.pending(), budget);
        iov[iov_count++] = {const_cast<char*>(conn.out.data()) + conn.out_off, len};
        want += len;
      }
      if (want < budget && batch.size() > batch_off) {
        const std::size_t len = std::min(batch.size() - batch_off, budget - want);
        iov[iov_count++] = {const_cast<char*>(batch.data()) + batch_off, len};
        want += len;
      }
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(iov_count);
      const auto n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
      if (n > 0) {
        std::size_t sent = static_cast<std::size_t>(n);
        budget -= std::min(budget, sent);
        const std::size_t from_out = std::min(sent, conn.pending());
        conn.out_off += from_out;
        batch_off += sent - from_out;
        conn.last_activity = Clock::now();
        continue;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) peer_gone = true;
      break;
    }
    if (conn.pending() == 0 && conn.out_off > 0) {
      conn.out.clear();
      conn.out_off = 0;
    }
    // What the kernel refused (or the cap deferred) queues for EPOLLOUT.
    if (batch_off < batch.size()) conn.out.append(batch, batch_off, std::string::npos);
    if (peer_gone) return false;
    if (budget == 0 && conn.pending() > 0) {
      server_.partial_flushes_.fetch_add(1, std::memory_order_relaxed);
    }
    if (conn.paused && conn.pending() < server_.config_.max_pending_bytes / 2) {
      conn.paused = false;  // back-pressure released
    }
    return true;
  }

  void update_interest(Connection& conn) {
    std::uint32_t wanted = 0;
    if (!conn.paused && !conn.read_closed && !conn.fatal) wanted |= EPOLLIN | EPOLLRDHUP;
    if (conn.pending() > 0) wanted |= EPOLLOUT;
    if (wanted != conn.interest) {
      loop_.modify(conn.fd, wanted);
      conn.interest = wanted;
    }
  }

  void close_connection(int fd) {
    const auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    loop_.remove(fd);
    ::close(fd);
    conns_.erase(it);
    server_.active_.fetch_sub(1, std::memory_order_relaxed);
  }

  void maybe_sweep() {
    if (conns_.empty()) return;
    const auto now = Clock::now();
    if (now < next_sweep_) return;
    next_sweep_ = now + std::chrono::milliseconds(sweep_cadence_ms());
    const auto limit = std::chrono::milliseconds(server_.config_.idle_timeout_ms);
    std::vector<int> expired;
    for (const auto& [fd, conn] : conns_) {
      if (now - conn->last_activity > limit) expired.push_back(fd);
    }
    // Covers the back-pressured slow reader: paused connections make no
    // read progress and a full socket buffer blocks write progress, so
    // their last_activity freezes until this sweep retires them.  Counted
    // before the close, so a peer that sees EOF also sees the timeout.
    server_.timeouts_.fetch_add(expired.size(), std::memory_order_relaxed);
    for (const int fd : expired) close_connection(fd);
  }

  QueryServer& server_;
  const int index_;
  EventLoop loop_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;
  bool draining_ = false;
  Clock::time_point drain_deadline_{};
  Clock::time_point next_sweep_{};
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::string batch_;  // scratch reply buffer, one event's verdicts
  std::atomic<std::uint64_t> accepted_{0};
  // This reactor's serve.server.request_us samples; null without a
  // registry, so the request path then reads no clock.
  std::unique_ptr<obs::TimingHistogram> request_timer_;
};

// ---------------------------------------------------------------------------
// QueryServer: lifecycle, reactor fan-out, and the shared reload path.

QueryServer::QueryServer(ServerConfig config, obs::MetricsRegistry* metrics)
    : config_(std::move(config)), metrics_(metrics) {
  if (config_.reactors < 1) config_.reactors = 1;
}

QueryServer::~QueryServer() {
  QueryServer* expected = this;
  g_signal_server.compare_exchange_strong(expected, nullptr);
  reactors_.clear();
}

util::Result<bool> QueryServer::start() {
  const auto installed = manager_.load_and_install(config_.snapshot_path, metrics_);
  if (!installed.ok()) return installed.error();

  reactors_.reserve(static_cast<std::size_t>(config_.reactors));
  for (int i = 0; i < config_.reactors; ++i) {
    auto reactor = std::make_unique<Reactor>(*this, i);
    // Reactor 0 resolves port 0 to the kernel's pick; the rest bind the
    // same port through SO_REUSEPORT so accepts spread across loops.
    const auto opened = reactor->open(i == 0 ? config_.port : bound_port_);
    if (!opened.ok()) return opened.error();
    if (i == 0) bound_port_ = opened.value();
    reactors_.push_back(std::move(reactor));
  }

  if (config_.watch_interval_ms > 0) {
    // Record the identity of the file just loaded so the first poll only
    // fires once a publisher actually replaces it.
    watch_sig_valid_ = stat_snapshot(watch_sig_);
    next_watch_ = Clock::now() + std::chrono::milliseconds(config_.watch_interval_ms);
  }
  started_ = true;
  return true;
}

void QueryServer::request_stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  for (const auto& reactor : reactors_) reactor->wake();
}

void QueryServer::request_reload() noexcept {
  reload_requested_.store(true, std::memory_order_release);
  if (!reactors_.empty()) reactors_.front()->wake();
}

void QueryServer::install_signal_handlers() {
  g_signal_server.store(this, std::memory_order_release);
  struct sigaction action{};
  action.sa_handler = mtscope_serve_signal_handler;
  ::sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: epoll_wait returns EINTR and re-checks flags
  ::sigaction(SIGHUP, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

ServerStats QueryServer::stats() const noexcept {
  ServerStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.active = active_.load(std::memory_order_relaxed);
  s.peak_active = peak_active_.load(std::memory_order_relaxed);
  s.queries = queries_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  s.drops = drops_.load(std::memory_order_relaxed);
  s.partial_flushes = partial_flushes_.load(std::memory_order_relaxed);
  return s;
}

std::vector<std::uint64_t> QueryServer::reactor_connections() const {
  std::vector<std::uint64_t> out;
  out.reserve(reactors_.size());
  for (const auto& reactor : reactors_) out.push_back(reactor->accepted());
  return out;
}

int QueryServer::run() {
  if (!started_) return 1;
  std::vector<std::thread> threads;
  threads.reserve(reactors_.size() - 1);
  for (std::size_t i = 1; i < reactors_.size(); ++i) {
    threads.emplace_back([reactor = reactors_[i].get()] { reactor->run(); });
  }
  reactors_.front()->run();
  for (auto& thread : threads) thread.join();

  // The ServerStats totals are the only counters: the registry receives
  // their final values once, and the reactors' request timers pool in
  // reactor-index order, so the snapshot is independent of scheduling.
  if (metrics_ != nullptr) {
    const ServerStats s = stats();
    const std::pair<const char*, std::uint64_t> totals[] = {
        {"serve.server.connections", s.connections},
        {"serve.server.queries", s.queries},
        {"serve.server.invalid", s.invalid},
        {"serve.server.timeouts", s.timeouts},
        {"serve.server.drops", s.drops},
        {"serve.server.partial_flushes", s.partial_flushes},
    };
    for (const auto& [name, value] : totals) metrics_->counter(name).add(value);
    // Reload outcomes appear only once one happened.
    if (s.reloads > 0) metrics_->counter("serve.server.reloads").add(s.reloads);
    if (s.reload_failures > 0) {
      metrics_->counter("serve.server.reload_failures").add(s.reload_failures);
    }
    // Peak concurrency: by now the drain has closed every connection, so
    // the live count would always read 0.
    metrics_->gauge("serve.server.active").max_with(static_cast<std::int64_t>(s.peak_active));
    auto& request_timer = metrics_->timer("serve.server.request_us");
    for (const auto& reactor : reactors_) request_timer.merge(*reactor->request_timer());
  }
  return 0;
}

void QueryServer::note_accept() noexcept {
  const std::uint64_t now_open = active_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak = peak_active_.load(std::memory_order_relaxed);
  while (peak < now_open &&
         !peak_active_.compare_exchange_weak(peak, now_open, std::memory_order_relaxed)) {
  }
}

void QueryServer::do_reload() {
  auto loaded = TelescopeIndex::load_file(config_.snapshot_path, metrics_);
  if (loaded.ok()) {
    // Count before the install: the install's acq_rel epoch bump orders
    // this increment before the new epoch, so a reader that observes the
    // epoch (acquire) also observes the reload — the counter may lead the
    // epoch, never lag it.
    reloads_.fetch_add(1, std::memory_order_release);
    manager_.install(std::move(loaded).value(), metrics_);
  } else {
    // The previous epoch keeps serving; operators see the failure in the
    // stats and the unchanged serve.snapshot.epoch gauge.
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  // Either way the watcher's reference point is what is on disk now: a
  // failed load must not be re-attempted every poll tick, only once the
  // publisher replaces the file again.
  if (config_.watch_interval_ms > 0) watch_sig_valid_ = stat_snapshot(watch_sig_);
}

bool QueryServer::stat_snapshot(FileSig& out) const noexcept {
  struct ::stat st{};
  if (::stat(config_.snapshot_path.c_str(), &st) != 0) return false;
  out.dev = static_cast<std::uint64_t>(st.st_dev);
  out.ino = static_cast<std::uint64_t>(st.st_ino);
  out.size = static_cast<std::int64_t>(st.st_size);
  out.mtime_s = static_cast<std::int64_t>(st.st_mtim.tv_sec);
  out.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_nsec);
  return true;
}

void QueryServer::check_watch() {
  if (config_.watch_interval_ms <= 0) return;
  if (stop_requested_.load(std::memory_order_acquire)) return;
  const auto now = Clock::now();
  if (now < next_watch_) return;
  next_watch_ = now + std::chrono::milliseconds(config_.watch_interval_ms);
  FileSig sig;
  if (!stat_snapshot(sig)) return;  // transient (publisher mid-swap?); next tick retries
  if (watch_sig_valid_ && sig == watch_sig_) return;
  do_reload();
}

}  // namespace mtscope::serve
