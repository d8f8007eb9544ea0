// QueryServer: the operated meta-telescope — a concurrent TCP server that
// answers per-IP classification queries from a loaded snapshot.
//
// Protocol (DESIGN.md §12): line-oriented over TCP.  Each request is one
// IPv4 dotted quad terminated by '\n' (a trailing '\r' and surrounding
// whitespace are stripped, so CRLF clients and hand-edited IP lists work);
// blank lines and '#' comments are ignored.  Each reply is one line with
// the same fields the CLI's query subcommand prints:
//
//   <ip> <class> <prefix> <origin-as>\n     classified block
//   <ip> none\n                             not in the meta-telescope map
//   <token> invalid\n                        unparseable request line
//
// The echoed <token> is sanitized: bytes outside printable ASCII are
// replaced with '.', so binary garbage is never reflected onto the wire.
//
// Binary protocol (MTBIN, serve/wire.hpp): a connection whose first bytes
// are exactly the 8-byte preamble "MTBIN/1\n" switches to fixed-width
// CRC32-sealed frames — 12-byte requests (lookup / count-in), 20-byte
// responses — with no per-request text parsing or formatting.  Both
// protocols share one port, one reactor loop, the same sendmsg reply
// coalescing, and the same back-pressure/fairness caps; a line client is
// never affected because no line-protocol opener matches the preamble.
// A malformed frame gets one invalid-frame response and the stream
// resumes at the next frame boundary (fixed widths cannot desync), so
// corruption is answered, never crashed on.
//
// One request core: answer_requests() turns a connection's buffered
// bytes into replies for both protocols — preamble negotiation, every
// complete line (IPv4 lookup, analytics verb, comment, bad token,
// overlong kill) or every complete frame (lookup, count-in, malformed) —
// with no socket in sight, so tests drive it byte by byte.  The reactor
// around it only moves bytes: recv, flush, back-pressure, sweep, drain.
//
// Counting contract (every protocol, every path): each produced reply
// increments `queries`; replies reporting a malformed request (bad IP
// line, overlong line, malformed frame) also increment `invalid`; and
// when the violation kills the connection (only the overlong line cap)
// `drops` is incremented as well.  answer_requests() returns these as a
// RequestTally and the reactor adds it to ServerStats once per batch.
//
// Architecture: N independent epoll reactors (serve/event_loop.hpp), one
// per core with `--reactors N`, each owning its own SO_REUSEPORT listener,
// eventfd, and connection table — the kernel load-balances accepts across
// listeners, and no connection ever migrates between reactors, so every
// mutable structure stays single-writer and the reactors share nothing
// but the SnapshotManager epoch and a handful of monotonic counters.
// Lookups run on the SnapshotManager's lock-free reader path: a reactor
// grabs the current shared_ptr once per input batch and queries the
// immutable index with no further synchronization, which is also why a
// reload needs no cross-reactor coordination — every reactor's next batch
// simply observes the new epoch.
//
// Robustness contract:
//  * Bounded buffers.  At most one bounded chunk is read per readable
//    event (level-triggered epoll re-arms while input remains); a request
//    line longer than max_request_bytes — whether it arrived complete or
//    is still unterminated — gets one "invalid" reply and the connection
//    is closed.  The cap is exact: with a partial line pending, reads are
//    clamped so the input buffer never exceeds max_request_bytes + 1.
//    Replies queue in a per-connection buffer; past
//    max_pending_bytes the server stops reading that connection
//    (back-pressure) until the client drains below half.
//  * Write fairness.  A flush writes at most max_flush_bytes_per_event
//    bytes per event (one sendmsg over the drained buffer plus the fresh
//    batch), then re-arms EPOLLOUT — one connection with a huge reply
//    backlog cannot monopolize its reactor while other ready connections
//    starve (serve.server.partial_flushes counts capped flushes).
//  * Idle timeout.  A connection making no read or write progress for
//    idle_timeout_ms is closed (serve.server.timeouts).  This is also how
//    a back-pressured slow reader eventually gets disconnected.  The
//    sweep runs on a coarse deadline (idle_timeout_ms / 4), not on every
//    wakeup, so deadline accounting costs O(conns) per sweep period
//    instead of per event.
//  * Hot reload.  request_reload() (or SIGHUP via
//    install_signal_handlers()) atomically swaps the snapshot through the
//    SnapshotManager epoch path; reactor 0 performs the load, every
//    reactor picks the new epoch up at its next input batch.  A failed
//    reload (missing/corrupt file) keeps the old epoch serving.
//    In-flight queries are never dropped: each batch is answered from
//    exactly one epoch.
//  * Watch mode (zero-touch publish).  With watch_interval_ms > 0,
//    reactor 0 polls snapshot_path's identity (dev/inode/size/mtime) on
//    that cadence and runs the same reload path when it changes — no
//    signal needed, which is how an ingest daemon's atomic publishes
//    (ingest/publish.hpp: write-temp + fsync + rename) flow into a live
//    server.  The rename guarantees the watcher never loads a torn file;
//    a changed-but-corrupt file fails typed, keeps the old epoch, and is
//    not retried until the signature changes again.
//  * Graceful drain.  request_stop() (or SIGTERM/SIGINT) closes every
//    listener, answers every request already received on every reactor,
//    flushes every queued reply (up to drain_timeout_ms), then run()
//    returns 0 once the last reactor has drained.
//
// request_stop() / request_reload() are async-signal-safe and
// thread-safe: they set an atomic flag and write the reactors' eventfds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/ipv4.hpp"
#include "obs/metrics.hpp"
#include "serve/event_loop.hpp"
#include "serve/telescope_index.hpp"
#include "util/result.hpp"

namespace mtscope::serve {

/// One reply line, exactly as the CLI's print_verdict renders it (without
/// the trailing newline the server appends): shared so the wire protocol
/// and `mtscope query` output can never drift apart.
[[nodiscard]] std::string format_verdict(net::Ipv4Addr addr,
                                         const std::optional<TelescopeIndex::Verdict>& verdict);

/// Copy up to `limit` bytes of `token` into `out`, replacing every byte
/// outside printable ASCII [0x20, 0x7e] with '.' — the server must never
/// reflect control characters or raw binary back at a client.
void append_sanitized_echo(std::string& out, std::string_view token, std::size_t limit);

/// The protocol a connection speaks, decided by its first bytes.
enum class RequestProto : std::uint8_t { kUndecided, kLine, kBinary };

/// What one answer_requests() call did — the counting contract's inputs.
struct RequestTally {
  std::size_t consumed = 0;   // leading bytes of `in` answered; the caller drops them
  std::uint64_t replies = 0;  // replies appended to `out` (queries)
  std::uint64_t invalid = 0;  // of those, replies to malformed requests
  bool fatal = false;         // overlong line: its reply is the last, then close (a drop)
};

/// Answer every complete request at the front of `in`, appending the
/// replies to `out`.  While `proto` is undecided, the first bytes settle
/// it: exactly the MTBIN preamble selects binary frames (and is consumed),
/// any divergence selects the line protocol with every byte kept, and a
/// strict prefix of the preamble waits for more input unless `eof`.
/// A line longer than `max_request_bytes` — complete, or unterminated and
/// already past the cap — gets one sanitized invalid reply, consumes all
/// of `in` and sets `fatal`.  With a timer, every reply but the overlong
/// kill is timed into it; without one no clock is read.
[[nodiscard]] RequestTally answer_requests(RequestProto& proto, std::string_view in, bool eof,
                                           const TelescopeIndex& index,
                                           std::size_t max_request_bytes, std::string& out,
                                           obs::TimingHistogram* timer);

struct ServerConfig {
  std::string snapshot_path;            // loaded at start() and on each reload
  std::uint16_t port = 0;               // 0 = kernel-assigned (see port())
  int reactors = 1;                     // event loops, one SO_REUSEPORT listener each
  int max_conns = 1024;                 // accepted beyond this are closed at once
  int idle_timeout_ms = 30'000;         // no-progress connections are dropped
  int drain_timeout_ms = 5'000;         // cap on flushing replies after stop
  int watch_interval_ms = 0;            // poll snapshot_path for replacement; 0 = SIGHUP only
  std::size_t max_request_bytes = 4096;     // longest accepted request line
  std::size_t max_pending_bytes = 256 * 1024;  // reply backlog before back-pressure
  std::size_t max_flush_bytes_per_event = 256 * 1024;  // write-fairness cap per event
};

/// Monotonic server totals, readable from any thread (tests, benches, the
/// CLI's exit banner).  Aggregated across every reactor; with a registry
/// attached, run() writes them into it once the reactors have stopped.
struct ServerStats {
  std::uint64_t connections = 0;  // accepted, lifetime
  std::uint64_t active = 0;       // currently open
  std::uint64_t peak_active = 0;  // most open at once, lifetime
  std::uint64_t queries = 0;      // replies produced, lines or frames (incl. invalid)
  std::uint64_t invalid = 0;      // malformed requests (bad lines, bad frames)
  std::uint64_t reloads = 0;      // successful snapshot swaps
  std::uint64_t reload_failures = 0;
  std::uint64_t timeouts = 0;     // idle/no-progress disconnects
  std::uint64_t drops = 0;        // over-capacity rejects + buffer-overrun kills
  std::uint64_t partial_flushes = 0;  // flushes capped by max_flush_bytes_per_event
};

class QueryServer {
 public:
  /// With a registry, run() reports serve.server.{connections,active,
  /// queries,invalid,timeouts,drops,partial_flushes} (plus reloads and
  /// reload_failures once one happened) from the ServerStats totals —
  /// serve.server.active is peak_active, the most connections open at
  /// once — and the serve.server.request_us latency histogram, which each reactor
  /// records privately and run() pools in reactor-index order — so the
  /// snapshot is deterministic for the same work regardless of
  /// scheduling.  Read it after run() returns.
  explicit QueryServer(ServerConfig config, obs::MetricsRegistry* metrics = nullptr);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Load + install the snapshot, bind + listen (one SO_REUSEPORT
  /// listener per reactor).  Expected failures (bad snapshot file, port
  /// in use) come back as typed errors.
  [[nodiscard]] util::Result<bool> start();

  /// The bound port — the kernel's pick when config.port was 0.  Every
  /// reactor's listener shares it.  Valid after a successful start().
  [[nodiscard]] std::uint16_t port() const noexcept { return bound_port_; }

  /// Run every reactor (reactor 0 on the calling thread, the rest on
  /// their own threads) and block until a stop request has fully drained
  /// all of them.  Returns 0 on a clean drain (the SIGTERM contract), 1
  /// if start() was never called successfully.
  int run();

  /// Begin graceful drain on every reactor.  Async-signal-safe,
  /// idempotent.
  void request_stop() noexcept;

  /// Swap in config.snapshot_path at reactor 0's next iteration; the
  /// other reactors observe the new epoch at their next input batch.
  /// Async-signal-safe; failures leave the current epoch serving.
  void request_reload() noexcept;

  /// Route SIGHUP -> request_reload, SIGTERM/SIGINT -> request_stop to
  /// this instance (one live signal-handling server per process; the
  /// destructor detaches).
  void install_signal_handlers();

  [[nodiscard]] const SnapshotManager& manager() const noexcept { return manager_; }
  [[nodiscard]] ServerStats stats() const noexcept;

  /// Lifetime accepted-connection count per reactor, for accept-
  /// distribution checks — SO_REUSEPORT hashes connections across the
  /// listeners, so under many clients every reactor should see some.
  [[nodiscard]] std::vector<std::uint64_t> reactor_connections() const;

 private:
  struct Connection;
  class Reactor;

  void do_reload();     // reactor 0's thread only: the swap itself
  void note_accept() noexcept;  // active_ + 1, raising peak_active_
  void check_watch();   // reactor 0's thread only: watch-mode poll

  /// File identity for watch mode: a successful atomic publish always
  /// changes the inode (rename swaps a freshly written temp file in).
  struct FileSig {
    std::uint64_t dev = 0;
    std::uint64_t ino = 0;
    std::int64_t size = 0;
    std::int64_t mtime_s = 0;
    std::int64_t mtime_ns = 0;

    friend bool operator==(const FileSig&, const FileSig&) noexcept = default;
  };
  [[nodiscard]] bool stat_snapshot(FileSig& out) const noexcept;

  ServerConfig config_;
  obs::MetricsRegistry* metrics_;
  SnapshotManager manager_;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::uint16_t bound_port_ = 0;
  bool started_ = false;

  // Watch-mode state: touched only by reactor 0's thread after start().
  std::chrono::steady_clock::time_point next_watch_{};
  FileSig watch_sig_{};
  bool watch_sig_valid_ = false;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> reload_requested_{false};

  // Cross-thread-readable totals, shared by every reactor (relaxed
  // fetch_add — sums commute).  active_ mirrors the live connection count
  // because stats() must not touch the reactor-owned maps from another
  // thread; it is also what enforces max_conns across reactors.
  // peak_active_ is its high-water mark, raised at accept time.
  std::atomic<std::uint64_t> active_{0};
  std::atomic<std::uint64_t> peak_active_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<std::uint64_t> reloads_{0};
  std::atomic<std::uint64_t> reload_failures_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> partial_flushes_{0};
};

}  // namespace mtscope::serve
