// The benchmark's own open-loop client and reply verifier.
//
// Open loop: every connection keeps an absolute schedule (request i is due
// at t0 + i / rate) and sends whatever is due regardless of outstanding
// replies; a generator that falls behind sends the deficit as soon as it
// can instead of dropping it.  Above one request per 20 us on a
// connection, due requests leave in batches spanning at most 20 us (one
// send per request would make the client, not the server, the bottleneck).
// Each request is timed from when it was due: wait = due -> sent,
// service = sent -> reply, latency = due -> reply, and sends more than
// kLateSendUs after their due time are counted.  saturate() is the closed
// loop used for capacity.
//
// Latency samples leave out requests due in a phase's warm-up: the first
// kWarmupNs by default, at most a fifth of the phase.
//
// Verification: every reply is checked against a local TelescopeIndex of
// the epoch it came from.  A connection's replies may only move forward
// through the EpochBook's epochs, and only up to the newest published one;
// the first epoch at or after the connection's current one that reproduces
// the reply byte for byte is taken as its epoch, and a reply no such epoch
// reproduces is a wrong verdict.  The first reply observed from a newer
// epoch stamps that epoch's served time, which is what freshness is
// measured against.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/ipv4.hpp"
#include "serve/server.hpp"
#include "serve/telescope_index.hpp"

namespace perfbench {

inline constexpr double kLateSendUs = 100.0;
inline constexpr std::int64_t kWarmupNs = 500'000'000;

/// The maps the system under test is expected to serve, in order.  One
/// producer appends epochs while client threads read them.
class EpochBook {
 public:
  /// `verbs` are the analytics request lines the client may send; their
  /// answers are computed once per epoch, when the epoch is added.
  EpochBook(std::size_t capacity, std::vector<std::string> verbs);

  /// Append the next epoch; `measured` marks epochs whose freshness is
  /// reported (and which count as failed if never served).  Returns the
  /// epoch ordinal.  Also derives the epoch's freshness probes: addresses
  /// in /24s whose verdict differs from the previous epoch.
  std::size_t add(std::shared_ptr<const mtscope::serve::TelescopeIndex> index, bool measured);

  /// The moment the epoch's input was complete (freshness clock start).
  void set_closed(std::size_t epoch, std::int64_t ns);

  /// Replies are matched only against epochs up to the newest published
  /// one.  A publisher the benchmark drives raises the mark just before
  /// its atomic rename.  For one it cannot hook (IngestDaemon publishes on
  /// its own thread), `installed` names the epoch the server holds now; a
  /// reply that no published epoch reproduces asks it before failing.
  /// Both only ever raise the mark.
  void set_published(std::size_t epoch);
  void set_installed_probe(std::function<std::size_t()> installed) {
    installed_ = std::move(installed);
  }
  [[nodiscard]] std::size_t published() const noexcept {
    return published_.load(std::memory_order_acquire);
  }
  /// Raise the mark to what the installed probe reports; returns the mark.
  std::size_t refresh_published();

  [[nodiscard]] std::size_t size() const noexcept { return size_.load(std::memory_order_acquire); }
  [[nodiscard]] const mtscope::serve::TelescopeIndex& index(std::size_t epoch) const {
    return *entries_[epoch]->index;
  }
  [[nodiscard]] const std::vector<mtscope::net::Ipv4Addr>& probes(std::size_t epoch) const {
    return entries_[epoch]->probes;
  }
  [[nodiscard]] const std::string& verb_answer(std::size_t epoch, std::size_t verb) const {
    return entries_[epoch]->verb_answers[verb];
  }
  [[nodiscard]] std::int64_t closed_ns(std::size_t epoch) const {
    return entries_[epoch]->closed_ns.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::int64_t served_ns(std::size_t epoch) const {
    return entries_[epoch]->served_ns.load(std::memory_order_acquire);
  }

  /// First reply observed from `epoch` (first caller wins).
  void note_served(std::size_t epoch, std::int64_t ns);

  /// Newest epoch any reply has come from.
  [[nodiscard]] std::size_t newest_served() const noexcept {
    return newest_served_.load(std::memory_order_acquire);
  }

  /// Freshness (ms) of every measured epoch that was served; `missed`
  /// receives the measured epochs that never were.
  [[nodiscard]] std::vector<double> freshness_ms(std::uint64_t* missed) const;

 private:
  struct Entry {
    std::shared_ptr<const mtscope::serve::TelescopeIndex> index;
    std::vector<mtscope::net::Ipv4Addr> probes;
    std::vector<std::string> verb_answers;
    bool measured = false;
    std::atomic<std::int64_t> closed_ns{0};
    std::atomic<std::int64_t> served_ns{0};
  };
  std::vector<std::string> verbs_;
  std::vector<std::unique_ptr<Entry>> entries_;  // sized once; never reallocates
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> newest_served_{0};
  std::atomic<std::size_t> published_{0};
  std::function<std::size_t()> installed_;
};

/// What the client asks: lookup addresses (the seed's flow destinations
/// plus a uniform share) and analytics verb lines.
struct QuerySet {
  std::vector<mtscope::net::Ipv4Addr> addrs;
  std::vector<std::string> verbs;
};

struct ClientMix {
  double count_in_share = 0.0;  // MTBIN frames that are count-in range queries
  double probe_share = 0.0;     // MTBIN lookups aimed at the next epoch's probes
  double verb_share = 0.0;      // line requests that are analytics verbs
};

/// Lookup timings of one protocol (lookups and probes; range queries and
/// analytics verbs are verified and counted but not timed here), for
/// requests due after the phase's warm-up.  Kept only when the phase asks
/// for them.
struct ProtoSamples {
  std::vector<std::int64_t> due_ns;
  std::vector<float> latency_us;
  std::vector<float> wait_us;
  std::vector<float> service_us;
};

struct PhaseResult {
  ProtoSamples bin;
  ProtoSamples line;
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;      // refused, reset, timed out or never answered
  std::uint64_t wrong = 0;       // replies no epoch reproduces
  std::uint64_t late_sends = 0;
  std::uint64_t lookups = 0;     // lookups verified (for the hit ratio)
  std::uint64_t hits = 0;        // ... whose /24 was in the map
  double seconds = 0.0;
  static constexpr std::int64_t kBucketNs = 100'000'000;
  std::vector<std::uint64_t> replies_per_bucket;  // replies per 100 ms since the phase start
  double cpu_s = 0.0;            // client threads
  std::string first_error;

  /// Nearest-rank latency quantile `q` over every sample of the phase.
  [[nodiscard]] static double quantile(const ProtoSamples& samples, double q);

  /// Nearest-rank quantile `q` over the lookups (both protocols) due within
  /// `half_width_ns` of any of `moments`.
  [[nodiscard]] double quantile_near(std::span<const std::int64_t> moments,
                                     std::int64_t half_width_ns, double q) const;

  /// Replies per second in each 100 ms bucket of the phase, leaving out
  /// the first and last (ramp-up, drain) when there are more than two.
  [[nodiscard]] std::vector<double> bucket_rates() const;

  /// Pool `other` into this result (samples, counts, CPU time); the reply
  /// buckets are summed bucket by bucket, so pool only concurrent phases
  /// or ones whose rate is not read afterwards.
  void absorb(const PhaseResult& other);
};

class LookupClient {
 public:
  LookupClient(EpochBook& book, const QuerySet& queries, ClientMix mix,
               std::uint64_t seed);
  ~LookupClient();
  LookupClient(const LookupClient&) = delete;
  LookupClient& operator=(const LookupClient&) = delete;

  /// Open `bin_conns` MTBIN and `line_conns` line connections to
  /// 127.0.0.1:port.  Worker threads (at most `threads`) are pinned to
  /// `cpus` for every phase.  With `balance`, connection i is placed on
  /// that server's reactor i % reactors.
  [[nodiscard]] bool connect(std::uint16_t port, int bin_conns, int line_conns, int threads,
                             std::vector<int> cpus,
                             const mtscope::serve::QueryServer* balance = nullptr);

  /// One lookup on a fresh connection, blocking; returns false on any
  /// failure.  Used to time set-up (first accepted unit of work).
  [[nodiscard]] static bool probe_once(std::uint16_t port, mtscope::net::Ipv4Addr addr);

  /// Run one open-loop phase at the given per-connection rates until
  /// `seconds` pass or `*stop` turns true, then wait (bounded) for every
  /// outstanding reply.  Exact per-request samples are kept only with
  /// `keep_samples`.
  [[nodiscard]] PhaseResult run(double seconds, double bin_rate, double line_rate,
                                const std::atomic<bool>* stop = nullptr, bool keep_samples = true);

  /// Warm-up left out of every later phase's samples (set_warmup(0) keeps
  /// them all).
  void set_warmup(double seconds) { warmup_ns_ = static_cast<std::int64_t>(seconds * 1e9); }

  /// Closed loop for `seconds`: every connection keeps `depth` requests
  /// outstanding (each due when sent), so the reply rate is what the
  /// client + server pair sustains at saturation.
  [[nodiscard]] PhaseResult saturate(double seconds, std::size_t depth);

  void close();

 private:
  struct Conn;
  struct Worker;

  [[nodiscard]] PhaseResult phase(double seconds, double bin_rate, double line_rate,
                                  const std::atomic<bool>* stop, bool keep_samples,
                                  std::size_t depth);

  EpochBook& book_;
  const QuerySet& queries_;
  ClientMix mix_;
  std::uint64_t seed_;
  int threads_ = 1;
  std::vector<int> cpus_;
  std::int64_t warmup_ns_ = kWarmupNs;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace perfbench
