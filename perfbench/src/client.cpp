#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <span>
#include <thread>

#include "net/prefix.hpp"
#include "serve/analytics_format.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "util.hpp"

namespace perfbench {

namespace serve = mtscope::serve;
namespace wire = mtscope::serve::wire;
namespace net = mtscope::net;

// ---------------------------------------------------------------------------
// EpochBook

namespace {

constexpr std::size_t kMaxProbes = 512;

/// Addresses in /24s whose verdict (class or presence) differs between the
/// two maps, sampled evenly down to kMaxProbes.
std::vector<net::Ipv4Addr> changed_blocks(const serve::TelescopeIndex& before,
                                          const serve::TelescopeIndex& after) {
  const auto& a = before.snapshot().blocks;
  const auto& b = after.snapshot().blocks;
  std::vector<std::uint32_t> changed;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j == b.size() || (i < a.size() && a[i].block_index() < b[j].block_index())) {
      changed.push_back(a[i++].block_index());
    } else if (i == a.size() || b[j].block_index() < a[i].block_index()) {
      changed.push_back(b[j++].block_index());
    } else {
      if (a[i].cls() != b[j].cls()) changed.push_back(a[i].block_index());
      ++i;
      ++j;
    }
  }
  std::vector<net::Ipv4Addr> probes;
  const std::size_t step = std::max<std::size_t>(1, changed.size() / kMaxProbes);
  for (std::size_t k = 0; k < changed.size() && probes.size() < kMaxProbes; k += step) {
    probes.emplace_back((changed[k] << 8) | 0x2a);
  }
  return probes;
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double unit(std::uint64_t& state) {
  return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

}  // namespace

EpochBook::EpochBook(std::size_t capacity, std::vector<std::string> verbs)
    : verbs_(std::move(verbs)), entries_(capacity) {}

std::size_t EpochBook::add(std::shared_ptr<const serve::TelescopeIndex> index, bool measured) {
  const std::size_t epoch = size_.load(std::memory_order_relaxed);
  if (epoch >= entries_.size()) return epoch;  // capacity is sized by the caller
  auto entry = std::make_unique<Entry>();
  if (epoch > 0) entry->probes = changed_blocks(*entries_[epoch - 1]->index, *index);
  for (const auto& verb : verbs_) {
    entry->verb_answers.push_back(serve::answer_analytics_query(*index, verb));
  }
  entry->index = std::move(index);
  entry->measured = measured;
  entries_[epoch] = std::move(entry);
  size_.store(epoch + 1, std::memory_order_release);
  return epoch;
}

void EpochBook::set_closed(std::size_t epoch, std::int64_t ns) {
  if (epoch < size()) entries_[epoch]->closed_ns.store(ns, std::memory_order_release);
}

void EpochBook::set_published(std::size_t epoch) {
  std::size_t mark = published_.load(std::memory_order_relaxed);
  while (mark < epoch && !published_.compare_exchange_weak(mark, epoch, std::memory_order_acq_rel)) {
  }
}

std::size_t EpochBook::refresh_published() {
  if (installed_) set_published(installed_());
  return published();
}

void EpochBook::note_served(std::size_t epoch, std::int64_t ns) {
  std::int64_t unset = 0;
  entries_[epoch]->served_ns.compare_exchange_strong(unset, ns, std::memory_order_acq_rel);
  std::size_t newest = newest_served_.load(std::memory_order_relaxed);
  while (newest < epoch &&
         !newest_served_.compare_exchange_weak(newest, epoch, std::memory_order_acq_rel)) {
  }
}

std::vector<double> EpochBook::freshness_ms(std::uint64_t* missed) const {
  std::vector<double> out;
  for (std::size_t e = 0; e < size(); ++e) {
    if (!entries_[e]->measured) continue;
    const std::int64_t closed = closed_ns(e);
    const std::int64_t served = served_ns(e);
    if (served == 0 || closed == 0) {
      if (missed != nullptr) *missed += 1;
      continue;
    }
    out.push_back(static_cast<double>(served - closed) / 1e6);
  }
  return out;
}

// ---------------------------------------------------------------------------
// PhaseResult

double PhaseResult::quantile(const ProtoSamples& samples, double q) {
  return percentile(std::vector<double>(samples.latency_us.begin(), samples.latency_us.end()), q);
}

double PhaseResult::quantile_near(std::span<const std::int64_t> moments, std::int64_t half_width_ns,
                                  double q) const {
  std::vector<double> near;
  for (const ProtoSamples* samples : {&bin, &line}) {
    for (std::size_t i = 0; i < samples->due_ns.size(); ++i) {
      const std::int64_t due = samples->due_ns[i];
      if (std::any_of(moments.begin(), moments.end(),
                      [&](std::int64_t m) { return due >= m - half_width_ns && due <= m + half_width_ns; })) {
        near.push_back(samples->latency_us[i]);
      }
    }
  }
  return percentile(std::move(near), q);
}

std::vector<double> PhaseResult::bucket_rates() const {
  std::vector<double> rates;
  const std::size_t edge = replies_per_bucket.size() > 2 ? 1 : 0;
  for (std::size_t b = edge; b + edge < replies_per_bucket.size(); ++b) {
    rates.push_back(static_cast<double>(replies_per_bucket[b]) * 1e9 / static_cast<double>(kBucketNs));
  }
  return rates;
}

void PhaseResult::absorb(const PhaseResult& other) {
  const auto append = [](ProtoSamples& into, const ProtoSamples& from) {
    into.due_ns.insert(into.due_ns.end(), from.due_ns.begin(), from.due_ns.end());
    into.latency_us.insert(into.latency_us.end(), from.latency_us.begin(), from.latency_us.end());
    into.wait_us.insert(into.wait_us.end(), from.wait_us.begin(), from.wait_us.end());
    into.service_us.insert(into.service_us.end(), from.service_us.begin(), from.service_us.end());
  };
  append(bin, other.bin);
  append(line, other.line);
  attempted += other.attempted;
  answered += other.answered;
  failed += other.failed;
  wrong += other.wrong;
  late_sends += other.late_sends;
  lookups += other.lookups;
  hits += other.hits;
  seconds += other.seconds;
  if (replies_per_bucket.size() < other.replies_per_bucket.size()) {
    replies_per_bucket.resize(other.replies_per_bucket.size());
  }
  for (std::size_t b = 0; b < other.replies_per_bucket.size(); ++b) {
    replies_per_bucket[b] += other.replies_per_bucket[b];
  }
  cpu_s += other.cpu_s;
  if (first_error.empty()) first_error = other.first_error;
}

// ---------------------------------------------------------------------------
// LookupClient

namespace {

enum class Kind : std::uint8_t { kLookup, kCountIn, kVerb };

constexpr std::int64_t kHoldNs = 20'000;

struct Pending {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::uint64_t end_offset = 0;  // cumulative request bytes through this one
  std::uint32_t addr = 0;
  std::uint16_t verb = 0;
  Kind kind = Kind::kLookup;
  std::uint8_t plen = 0;
};

int open_socket(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const auto n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

struct LookupClient::Conn {
  int fd = -1;
  bool binary = false;
  bool dead = false;
  std::size_t epoch_lo = 0;
  std::uint64_t rng = 0;
  std::size_t probe_cursor = 0;

  // Per phase.
  double interval_ns = 0;
  std::uint64_t sequence = 0;
  std::int64_t t0 = 0;
  std::string out;
  std::size_t out_off = 0;
  std::uint64_t bytes_enqueued = 0;
  std::uint64_t bytes_sent = 0;
  std::deque<Pending> pending;
  std::size_t stamped = 0;  // leading pending entries already sent
  std::string in;

  [[nodiscard]] std::int64_t next_due() const {
    return t0 + static_cast<std::int64_t>(static_cast<double>(sequence) * interval_ns);
  }
};

bool LookupClient::probe_once(std::uint16_t port, net::Ipv4Addr addr) {
  const int fd = open_socket(port);
  if (fd < 0) return false;
  std::string request(wire::kPreamble);
  wire::append_request(request, {wire::Verb::kLookup, 0, addr});
  bool ok = send_all(fd, request);
  std::uint8_t reply[wire::kResponseSize];
  std::size_t got = 0;
  while (ok && got < sizeof(reply)) {
    const auto n = ::recv(fd, reply + got, sizeof(reply) - got, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) ok = false;
    else got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return ok && wire::decode_response(reply).ok();
}

LookupClient::LookupClient(EpochBook& book, const QuerySet& queries, ClientMix mix,
                           std::uint64_t seed)
    : book_(book), queries_(queries), mix_(mix), seed_(seed) {}

LookupClient::~LookupClient() { close(); }

namespace {

/// Which reactor accepted the connection just opened (-1 if none did
/// within a second).
int accepting_reactor(const serve::QueryServer& server, const std::vector<std::uint64_t>& before) {
  for (const std::int64_t deadline = now_ns() + 1'000'000'000; now_ns() < deadline;) {
    const auto after = server.reactor_connections();
    for (std::size_t r = 0; r < after.size() && r < before.size(); ++r) {
      if (after[r] != before[r]) return static_cast<int>(r);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return -1;
}

}  // namespace

bool LookupClient::connect(std::uint16_t port, int bin_conns, int line_conns, int threads,
                           std::vector<int> cpus, const serve::QueryServer* balance) {
  threads_ = std::max(1, std::min(threads, bin_conns + line_conns));
  cpus_ = std::move(cpus);
  for (int i = 0; i < bin_conns + line_conns; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->binary = i < bin_conns;
    conn->rng = seed_ * 1'000'003 + static_cast<std::uint64_t>(i);
    // The kernel hashes each connection to one reactor's listener; retry
    // until connection i lands on reactor i % reactors, so every run puts
    // the same load on every reactor.
    const int reactors = balance == nullptr ? 1 : static_cast<int>(balance->reactor_connections().size());
    for (int attempt = 0; attempt < 200; ++attempt) {
      const auto before = reactors > 1 ? balance->reactor_connections() : std::vector<std::uint64_t>{};
      conn->fd = open_socket(port);
      if (conn->fd < 0 || reactors <= 1) break;
      if (accepting_reactor(*balance, before) == i % reactors) break;
      ::close(conn->fd);
      conn->fd = -1;
    }
    if (conn->fd < 0) return false;
    if (conn->binary && !send_all(conn->fd, wire::kPreamble)) return false;
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(conn));
  }
  return true;
}

void LookupClient::close() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
    conn->fd = -1;
  }
  conns_.clear();
}

/// One client thread: owns a subset of the connections for one phase.
struct LookupClient::Worker {
  EpochBook& book;
  const QuerySet& queries;
  ClientMix mix;
  std::vector<Conn*> conns;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t sample_from_ns = 0;  // requests due earlier are warm-up
  const std::atomic<bool>* stop = nullptr;
  bool keep_samples = true;
  std::size_t depth = 0;  // > 0: closed loop with this many requests outstanding
  PhaseResult result;

  void enqueue(Conn& conn, std::int64_t due) {
    Pending p;
    p.due_ns = due;
    const double r = unit(conn.rng);
    const std::uint64_t pick = splitmix(conn.rng);
    p.addr = queries.addrs[pick % queries.addrs.size()].value();
    const auto before = conn.out.size();
    if (conn.binary) {
      const std::size_t next_epoch = book.newest_served() + 1;
      if (r < mix.probe_share && next_epoch < book.size() && !book.probes(next_epoch).empty()) {
        const auto& probes = book.probes(next_epoch);
        p.addr = probes[conn.probe_cursor++ % probes.size()].value();
      } else if (r >= 1.0 - mix.count_in_share) {
        p.kind = Kind::kCountIn;
        p.plen = static_cast<std::uint8_t>(16 + (pick >> 40) % 9);
      }
      wire::append_request(conn.out, {p.kind == Kind::kCountIn ? wire::Verb::kCountIn
                                                               : wire::Verb::kLookup,
                                      p.plen, net::Ipv4Addr(p.addr)});
    } else if (r < mix.verb_share && !queries.verbs.empty()) {
      p.kind = Kind::kVerb;
      p.verb = static_cast<std::uint16_t>((pick >> 32) % queries.verbs.size());
      conn.out += queries.verbs[p.verb];
      conn.out += '\n';
    } else {
      conn.out += net::Ipv4Addr(p.addr).to_string();
      conn.out += '\n';
    }
    conn.bytes_enqueued += conn.out.size() - before;
    p.end_offset = conn.bytes_enqueued;
    conn.pending.push_back(p);
    result.attempted += 1;
  }

  void fail_conn(Conn& conn, const char* what) {
    if (!conn.dead && result.first_error.empty()) {
      result.first_error = std::string(what) + ": " + std::strerror(errno);
    }
    conn.dead = true;
    result.failed += conn.pending.size();
    conn.pending.clear();
    conn.stamped = 0;
    conn.out.clear();
    conn.out_off = 0;
  }

  void flush(Conn& conn, std::int64_t now) {
    while (conn.out_off < conn.out.size()) {
      const auto n = ::send(conn.fd, conn.out.data() + conn.out_off,
                            conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        fail_conn(conn, "send");
        return;
      }
      conn.out_off += static_cast<std::size_t>(n);
      conn.bytes_sent += static_cast<std::uint64_t>(n);
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    while (conn.stamped < conn.pending.size() &&
           conn.pending[conn.stamped].end_offset <= conn.bytes_sent) {
      Pending& p = conn.pending[conn.stamped++];
      p.sent_ns = now;
      if (static_cast<double>(now - p.due_ns) / 1e3 > kLateSendUs) result.late_sends += 1;
    }
  }

  /// Does epoch `e`'s map reproduce this reply exactly?
  bool matches(std::size_t e, const Pending& p, const wire::Response* bin,
               std::string_view line) {
    const serve::TelescopeIndex& index = book.index(e);
    const net::Ipv4Addr addr(p.addr);
    switch (p.kind) {
      case Kind::kLookup:
        if (bin != nullptr) return *bin == wire::make_verdict_response(addr, index.lookup(addr));
        return line == serve::format_verdict(addr, index.lookup(addr));
      case Kind::kCountIn: {
        const auto prefix = net::Prefix::canonical(addr, p.plen);
        return *bin == wire::make_count_response(prefix.base(), p.plen, index.count_in(prefix));
      }
      case Kind::kVerb:
        return line == book.verb_answer(e, p.verb);
    }
    return false;
  }

  void complete(Conn& conn, const wire::Response* bin, std::string_view line, std::int64_t now) {
    if (conn.pending.empty() || conn.stamped == 0) {
      result.wrong += 1;
      if (result.first_error.empty()) result.first_error = "reply with no request outstanding";
      return;
    }
    const Pending p = conn.pending.front();
    conn.pending.pop_front();
    conn.stamped -= 1;
    result.answered += 1;
    const auto bucket = static_cast<std::size_t>(std::max<std::int64_t>(0, now - start_ns) /
                                                 PhaseResult::kBucketNs);
    if (bucket >= result.replies_per_bucket.size()) result.replies_per_bucket.resize(bucket + 1);
    result.replies_per_bucket[bucket] += 1;

    // Only published epochs may answer; if none reproduces the reply, the
    // server may hold an epoch the mark has not caught up with yet.
    std::size_t limit = std::min(book.size(), book.published() + 1);
    std::size_t e = conn.epoch_lo;
    while (e < limit && !matches(e, p, bin, line)) ++e;
    if (e == limit) {
      limit = std::min(book.size(), book.refresh_published() + 1);
      while (e < limit && !matches(e, p, bin, line)) ++e;
    }
    if (e >= limit) {
      result.wrong += 1;
      if (result.first_error.empty()) {
        result.first_error = "wrong verdict for " + net::Ipv4Addr(p.addr).to_string() +
                             (bin != nullptr ? " (MTBIN)" : " (line): " + std::string(line)) +
                             " at epoch >= " + std::to_string(conn.epoch_lo);
      }
      return;
    }
    if (e != conn.epoch_lo || book.served_ns(e) == 0) book.note_served(e, now);
    conn.epoch_lo = e;
    if (p.kind != Kind::kLookup) return;

    result.lookups += 1;
    if (book.index(e).classify(net::Ipv4Addr(p.addr)).has_value()) result.hits += 1;
    if (!keep_samples || p.due_ns < sample_from_ns) return;
    ProtoSamples& samples = conn.binary ? result.bin : result.line;
    samples.due_ns.push_back(p.due_ns);
    samples.latency_us.push_back(static_cast<float>(now - p.due_ns) / 1e3f);
    samples.wait_us.push_back(static_cast<float>(p.sent_ns - p.due_ns) / 1e3f);
    samples.service_us.push_back(static_cast<float>(now - p.sent_ns) / 1e3f);
  }

  void receive(Conn& conn) {
    char chunk[65536];
    while (true) {
      const auto n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) fail_conn(conn, "recv");
        break;
      }
      if (n == 0) {
        errno = ECONNRESET;
        fail_conn(conn, "server closed the connection");
        break;
      }
      const std::int64_t now = now_ns();
      conn.in.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      if (conn.binary) {
        while (conn.in.size() - start >= wire::kResponseSize) {
          const auto frame = std::span(reinterpret_cast<const std::uint8_t*>(conn.in.data()) + start,
                                       wire::kResponseSize);
          const auto decoded = wire::decode_response(frame);
          start += wire::kResponseSize;
          if (!decoded.ok()) {
            result.wrong += 1;
            if (result.first_error.empty()) {
              result.first_error = "undecodable MTBIN reply: " + decoded.error().to_string();
            }
            if (!conn.pending.empty() && conn.stamped > 0) {
              conn.pending.pop_front();
              conn.stamped -= 1;
            }
            continue;
          }
          complete(conn, &decoded.value(), {}, now);
        }
      } else {
        for (std::size_t nl; (nl = conn.in.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          complete(conn, nullptr, std::string_view(conn.in).substr(start, nl - start), now);
        }
      }
      conn.in.erase(0, start);
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
    }
  }

  void run() {
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    const double cpu0 = thread_cpu_s();
    std::vector<pollfd> fds(conns.size());
    bool sending = true;
    std::int64_t drain_deadline = 0;
    while (true) {
      std::int64_t now = now_ns();
      if (sending && (now >= end_ns || (stop != nullptr && stop->load(std::memory_order_acquire)))) {
        sending = false;
        drain_deadline = now + 2'000'000'000;
      }
      std::int64_t wake = now + 1'000'000;
      bool outstanding = false;
      for (Conn* conn : conns) {
        if (sending && conn->interval_ns > 0) {
          while (conn->next_due() <= now) {
            const std::int64_t due = conn->next_due();
            conn->sequence += 1;
            if (conn->dead) {
              result.attempted += 1;
              result.failed += 1;
              continue;
            }
            enqueue(*conn, due);
          }
          wake = std::min(wake, conn->next_due());
        }
        // Closed loop: keep `depth` requests outstanding, each due now.
        while (sending && depth > 0 && !conn->dead && conn->pending.size() < depth) {
          enqueue(*conn, now);
        }
        if (conn->dead) continue;
        if (conn->stamped < conn->pending.size()) {
          // Above one request per kHoldNs a connection's requests go out in
          // batches spanning at most kHoldNs (the hold shows up as wait).
          const std::int64_t hold = conn->interval_ns > 0 && conn->interval_ns < kHoldNs ? kHoldNs : 0;
          const std::int64_t oldest = conn->pending[conn->stamped].due_ns;
          if (!sending || now - oldest >= hold) {
            flush(*conn, now);
          } else {
            wake = std::min(wake, oldest + hold);
          }
        }
        if (!conn->dead) receive(*conn);
        if (!conn->dead && conn->stamped < conn->pending.size() && conn->out_off < conn->out.size()) {
          wake = std::min(wake, now);  // socket full: retry after polling
        }
        outstanding = outstanding || !conn->pending.empty();
      }
      if (!sending && (!outstanding || now >= drain_deadline)) break;

      now = now_ns();
      const std::int64_t wait_ns = sending ? wake - now : 1'000'000;
      if (wait_ns > 2'000) {
        for (std::size_t i = 0; i < conns.size(); ++i) {
          fds[i].fd = conns[i]->dead ? -1 : conns[i]->fd;
          fds[i].events = static_cast<short>(
              POLLIN | (conns[i]->out_off < conns[i]->out.size() ? POLLOUT : 0));
          fds[i].revents = 0;
        }
        const timespec timeout{0, static_cast<long>(std::min<std::int64_t>(wait_ns, 1'000'000))};
        (void)::ppoll(fds.data(), fds.size(), &timeout, nullptr);
      }
    }
    for (Conn* conn : conns) {
      result.failed += conn->pending.size();
      if (!conn->pending.empty() && result.first_error.empty()) {
        result.first_error = "replies never arrived";
      }
      conn->pending.clear();
      conn->stamped = 0;
    }
    result.cpu_s = thread_cpu_s() - cpu0;
  }
};

PhaseResult LookupClient::run(double seconds, double bin_rate, double line_rate,
                              const std::atomic<bool>* stop, bool keep_samples) {
  return phase(seconds, bin_rate, line_rate, stop, keep_samples, 0);
}

PhaseResult LookupClient::saturate(double seconds, std::size_t depth) {
  return phase(seconds, 0, 0, nullptr, false, depth);
}

PhaseResult LookupClient::phase(double seconds, double bin_rate, double line_rate,
                                const std::atomic<bool>* stop, bool keep_samples,
                                std::size_t depth) {
  const std::int64_t start = now_ns() + 1'000'000;
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t sample_from = start + std::min(warmup_ns_, (end - start) / 5);
  std::vector<std::unique_ptr<Worker>> workers;
  for (int t = 0; t < threads_; ++t) {
    workers.push_back(std::make_unique<Worker>(
        Worker{book_, queries_, mix_, {}, start, end, sample_from, stop, keep_samples, depth, {}}));
  }
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = *conns_[i];
    const double rate = conn.binary ? bin_rate : line_rate;
    conn.interval_ns = rate > 0 ? 1e9 / rate : 0;
    conn.sequence = 0;
    // Stagger connections across one interval so their sends interleave.
    conn.t0 = start + static_cast<std::int64_t>(conn.interval_ns * static_cast<double>(i) /
                                                static_cast<double>(conns_.size()));
    Worker& worker = *workers[i % workers.size()];
    worker.conns.push_back(&conn);
    if (keep_samples) {
      // Grow the sample arrays up front: reallocating them mid-phase
      // stalls the client thread for milliseconds.
      ProtoSamples& samples = conn.binary ? worker.result.bin : worker.result.line;
      const auto expected = samples.latency_us.size() +
                            static_cast<std::size_t>(rate * std::min(seconds, 60.0) * 1.05);
      samples.due_ns.reserve(expected);
      samples.latency_us.reserve(expected);
      samples.wait_us.reserve(expected);
      samples.service_us.reserve(expected);
    }
  }
  std::vector<std::thread> threads;
  for (auto& worker : workers) {
    threads.emplace_back([this, w = worker.get()] {
      pin_current_thread(cpus_);
      w->run();
    });
  }
  for (auto& thread : threads) thread.join();

  PhaseResult total;
  for (auto& worker : workers) total.absorb(worker->result);
  total.seconds = static_cast<double>(now_ns() - start) / 1e9;
  return total;
}

}  // namespace perfbench
