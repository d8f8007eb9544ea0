// The TCP query server end to end over real loopback sockets: protocol
// correctness (verdict lines byte-identical to the CLI's, CRLF/padding
// tolerance, invalid-line replies), concurrency (many clients with
// interleaved partial writes), robustness (slow-reader back-pressure and
// disconnect, overlong-line rejection, over-capacity rejects), SIGHUP hot
// reload under load with verdict continuity, and the SIGTERM graceful
// drain contract (every queued reply flushed, exit 0).  The MultiReactor
// suite covers the SO_REUSEPORT fan-out: accept distribution, epoch swap
// under cross-reactor load, drain with backlogs on several reactors, and
// the deterministic per-reactor metrics merge.  The RequestCore suite
// drives the socket-free request core (answer_requests) directly: every
// request stream must answer identically however it is split.  Under
// MTSCOPE_SANITIZE=thread/address this binary doubles as the
// tsan_server_smoke / asan_server_smoke sanitizer ctests.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ingest/publish.hpp"
#include "serve/analytics_format.hpp"
#include "serve/snapshot.hpp"
#include "serve/telescope_index.hpp"
#include "serve/wire.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mtscope {
namespace {

using namespace std::chrono_literals;
using serve::BlockClass;
using serve::BlockEntry;
using serve::PrefixEntry;
using serve::TelescopeSnapshot;

// ---------------------------------------------------------------------------
// Hand-built snapshots: two variants classifying the same probe blocks
// differently, so a reload flips observable verdicts.

TelescopeSnapshot make_snapshot(int variant) {
  TelescopeSnapshot snap;
  snap.meta.seed = 1;
  snap.meta.created_unix_s = 1'700'000'000;
  snap.meta.source = variant == 0 ? "test v1" : "test v2";
  snap.prefixes.push_back(PrefixEntry{0x0a000000u, 65001, 8});   // 10.0.0.0/8
  snap.prefixes.push_back(PrefixEntry{0xc0a80000u, 65002, 16});  // 192.168.0.0/16

  const auto block = [](std::uint8_t a, std::uint8_t b, std::uint8_t c) {
    return net::Block24::containing(net::Ipv4Addr::from_octets(a, b, c, 0));
  };
  if (variant == 0) {
    snap.blocks.push_back(BlockEntry::make(block(10, 0, 0), BlockClass::kDark, 0));
    snap.blocks.push_back(BlockEntry::make(block(10, 0, 1), BlockClass::kUnclean, 0));
    snap.blocks.push_back(BlockEntry::make(block(192, 168, 5), BlockClass::kGray, 1));
    snap.blocks.push_back(
        BlockEntry::make(block(203, 0, 113), BlockClass::kDark, BlockEntry::kNoPrefix));
    snap.dark_count = 2;
    snap.unclean_count = 1;
    snap.gray_count = 1;
  } else {
    // Every shared block flips class; 203.0.113/24 disappears and
    // 198.51.100/24 appears, so misses flip too.
    snap.blocks.push_back(BlockEntry::make(block(10, 0, 0), BlockClass::kGray, 0));
    snap.blocks.push_back(BlockEntry::make(block(10, 0, 1), BlockClass::kDark, 0));
    snap.blocks.push_back(BlockEntry::make(block(192, 168, 5), BlockClass::kDark, 1));
    snap.blocks.push_back(
        BlockEntry::make(block(198, 51, 100), BlockClass::kUnclean, BlockEntry::kNoPrefix));
    snap.dark_count = 2;
    snap.unclean_count = 1;
    snap.gray_count = 1;
  }
  return snap;
}

std::string snapshot_file(const std::string& name, int variant) {
  const std::string path = ::testing::TempDir() + "serve_" + name + ".snap";
  const auto written = serve::write_snapshot_file(make_snapshot(variant), path);
  EXPECT_TRUE(written.ok()) << written.error().to_string();
  return path;
}

/// Expected reply line for `ip` under snapshot `variant`, computed with
/// the same index + formatter the server uses.
std::string expected_line(const std::string& ip, int variant) {
  static std::map<int, std::unique_ptr<serve::TelescopeIndex>> cache;
  auto& index = cache[variant];
  if (!index) index = std::make_unique<serve::TelescopeIndex>(make_snapshot(variant));
  const auto addr = net::Ipv4Addr::parse(ip);
  EXPECT_TRUE(addr.has_value()) << ip;
  return serve::format_verdict(*addr, index->lookup(*addr));
}

// ---------------------------------------------------------------------------
// A blocking loopback client with receive/send timeouts so a server bug
// fails the test instead of hanging it.

struct Client {
  int fd = -1;

  explicit Client(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return;
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }

  ~Client() {
    if (fd >= 0) ::close(fd);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool connected() const { return fd >= 0; }

  /// False on any send failure (EPIPE/ECONNRESET after a server kick).
  bool send_all(std::string_view data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const auto n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  void shutdown_write() const { ::shutdown(fd, SHUT_WR); }

  /// Read until `count` newline-terminated lines arrive; stops early on
  /// EOF/timeout.  Lines come back without the trailing newline.
  std::vector<std::string> read_lines(std::size_t count) {
    std::vector<std::string> lines;
    std::string buffer;
    char chunk[4096];
    while (lines.size() < count) {
      const auto n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = buffer.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        lines.push_back(buffer.substr(start, nl - start));
      }
      buffer.erase(0, start);
    }
    return lines;
  }

  /// True if the peer closed (recv 0) or reset the connection.
  bool reads_eof() {
    char chunk[4096];
    for (;;) {
      const auto n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return errno == ECONNRESET || errno == EPIPE;
    }
  }
};

// ---------------------------------------------------------------------------
// Server-on-a-thread fixture.

struct RunningServer {
  std::unique_ptr<serve::QueryServer> server;
  std::thread thread;
  int exit_code = -1;

  explicit RunningServer(serve::ServerConfig config,
                         obs::MetricsRegistry* metrics = nullptr) {
    server = std::make_unique<serve::QueryServer>(std::move(config), metrics);
    const auto started = server->start();
    EXPECT_TRUE(started.ok()) << started.error().to_string();
    if (started.ok()) {
      thread = std::thread([this] { exit_code = server->run(); });
    }
  }

  ~RunningServer() { stop(); }

  [[nodiscard]] std::uint16_t port() const { return server->port(); }

  void stop() {
    if (thread.joinable()) {
      server->request_stop();
      thread.join();
    }
  }
};

bool wait_until(const std::function<bool()>& predicate,
                std::chrono::milliseconds deadline = 10s) {
  const auto give_up = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < give_up) {
    if (predicate()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return predicate();
}

serve::ServerConfig test_config(const std::string& snapshot_path) {
  serve::ServerConfig config;
  config.snapshot_path = snapshot_path;
  config.port = 0;  // kernel-assigned; read back via server.port()
  config.idle_timeout_ms = 10'000;
  return config;
}

// ---------------------------------------------------------------------------
// Protocol formatting.

TEST(FormatVerdict, MatchesPrintVerdictShape) {
  const auto addr = *net::Ipv4Addr::parse("10.0.0.7");
  EXPECT_EQ(serve::format_verdict(addr, std::nullopt), "10.0.0.7 none");

  serve::TelescopeIndex::Verdict verdict;
  verdict.block = net::Block24::containing(addr);
  verdict.cls = BlockClass::kDark;
  verdict.prefix = net::Prefix(net::Ipv4Addr(0x0a000000u), 8);
  verdict.origin = net::AsNumber(65001);
  EXPECT_EQ(serve::format_verdict(addr, verdict), "10.0.0.7 dark 10.0.0.0/8 AS65001");

  verdict.prefix.reset();
  verdict.origin.reset();
  EXPECT_EQ(serve::format_verdict(addr, verdict), "10.0.0.7 dark - -");
}

// ---------------------------------------------------------------------------
// Basic serving: one client, every line shape.

TEST(ServeServer, AnswersVerdictLinesIncludingCrlfAndPadding) {
  RunningServer rs(test_config(snapshot_file("basic", 0)));
  Client client(rs.port());
  ASSERT_TRUE(client.connected());

  // CRLF line, padded line, comment, blank, plain lines, and garbage: the
  // server must answer 5 request lines and skip the comment/blank.
  ASSERT_TRUE(client.send_all("10.0.0.7\r\n  192.168.5.9  \n# comment\n\n"
                              "203.0.113.1\n8.8.8.8\n+1.2.3.4\n"));
  const auto lines = client.read_lines(5);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0], expected_line("10.0.0.7", 0));
  EXPECT_EQ(lines[1], expected_line("192.168.5.9", 0));
  EXPECT_EQ(lines[2], expected_line("203.0.113.1", 0));
  EXPECT_EQ(lines[3], expected_line("8.8.8.8", 0));
  EXPECT_EQ(lines[4], "+1.2.3.4 invalid");

  // The fixture classifies for real, not vacuously.
  EXPECT_EQ(lines[0], "10.0.0.7 dark 10.0.0.0/8 AS65001");
  EXPECT_EQ(lines[1], "192.168.5.9 gray 192.168.0.0/16 AS65002");
  EXPECT_EQ(lines[2], "203.0.113.1 dark - -");
  EXPECT_EQ(lines[3], "8.8.8.8 none");

  const auto stats = rs.server->stats();
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.connections, 1u);
}

TEST(ServeServer, PeerHalfCloseStillGetsEveryReply) {
  RunningServer rs(test_config(snapshot_file("halfclose", 0)));
  Client client(rs.port());
  ASSERT_TRUE(client.connected());
  std::string request;
  for (int i = 0; i < 100; ++i) request += "10.0.0." + std::to_string(i) + "\n";
  ASSERT_TRUE(client.send_all(request));
  client.shutdown_write();
  const auto lines = client.read_lines(100);
  ASSERT_EQ(lines.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(lines[static_cast<std::size_t>(i)],
              expected_line("10.0.0." + std::to_string(i), 0));
  }
  EXPECT_TRUE(client.reads_eof());
}

// ---------------------------------------------------------------------------
// Concurrency: many clients, interleaved partial writes.

TEST(ServeServer, ManyConcurrentClientsWithPartialWrites) {
  obs::MetricsRegistry metrics;
  RunningServer rs(test_config(snapshot_file("concurrent", 0)), &metrics);

  constexpr int kClients = 6;
  constexpr int kQueries = 200;

  // Precompute every client's request lines and expected replies on the
  // main thread — expected_line() builds indexes behind a non-thread-safe
  // cache, and the worker threads must stay pure socket I/O.
  std::vector<std::vector<std::string>> all_ips(kClients);
  std::vector<std::vector<std::string>> all_expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int q = 0; q < kQueries; ++q) {
      // A mix of hits, misses and per-client distinct hosts.
      const std::string host = std::to_string((c * 41 + q) % 256);
      const std::string ip = q % 3 == 0   ? "10.0.0." + host
                             : q % 3 == 1 ? "192.168.5." + host
                                          : "99." + host + ".0.1";  // always a miss
      all_ips[static_cast<std::size_t>(c)].push_back(ip + "\n");
      all_expected[static_cast<std::size_t>(c)].push_back(expected_line(ip, 0));
    }
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client(rs.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      const auto& ips = all_ips[static_cast<std::size_t>(c)];
      const auto& expected = all_expected[static_cast<std::size_t>(c)];
      for (std::size_t q = 0; q < ips.size(); ++q) {
        const auto& line = ips[q];
        // Interleave partial writes: split every 4th line mid-address so
        // the server sees arbitrary TCP segmentation.
        if (q % 4 == 0 && line.size() > 3) {
          if (!client.send_all(std::string_view(line).substr(0, 3))) ++failures;
          std::this_thread::yield();
          if (!client.send_all(std::string_view(line).substr(3))) ++failures;
        } else if (!client.send_all(line)) {
          ++failures;
        }
      }
      const auto lines = client.read_lines(expected.size());
      if (lines.size() != expected.size()) {
        ++failures;
        return;
      }
      for (std::size_t q = 0; q < expected.size(); ++q) {
        if (lines[q] != expected[q]) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = rs.server->stats();
  EXPECT_EQ(stats.queries, static_cast<std::uint64_t>(kClients) * kQueries);
  EXPECT_EQ(stats.connections, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.invalid, 0u);

  rs.stop();
  EXPECT_EQ(metrics.counter_value("serve.server.queries"),
            static_cast<std::uint64_t>(kClients) * kQueries);
  EXPECT_EQ(metrics.counter_value("serve.server.connections"),
            static_cast<std::uint64_t>(kClients));
  const auto* timer = metrics.find_timer("serve.server.request_us");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->count(), static_cast<std::uint64_t>(kClients) * kQueries);
}

// ---------------------------------------------------------------------------
// Robustness: back-pressure, protocol violations, capacity.

TEST(ServeServer, SlowReaderIsBackpressuredThenDisconnected) {
  auto config = test_config(snapshot_file("slowreader", 0));
  config.max_pending_bytes = 8 * 1024;  // back-pressure kicks in early
  config.idle_timeout_ms = 300;         // and the stalled client dies fast
  RunningServer rs(std::move(config));

  Client slow(rs.port());
  ASSERT_TRUE(slow.connected());
  // ~1.5 MB of queries, never reading a reply: far beyond loopback socket
  // buffers plus the 8 KiB reply cap, so the server must stop reading and
  // then time the connection out.  The send may legitimately short-write
  // once the server pauses; that is the back-pressure being observed.
  std::string burst;
  for (int i = 0; i < 4096; ++i) burst += "10.0.0." + std::to_string(i % 256) + "\n";
  for (int i = 0; i < 32 && slow.send_all(burst); ++i) {
  }
  EXPECT_TRUE(wait_until([&] { return rs.server->stats().timeouts >= 1; }))
      << "slow reader was never disconnected";

  // The server remains healthy for well-behaved clients.
  Client fine(rs.port());
  ASSERT_TRUE(fine.connected());
  ASSERT_TRUE(fine.send_all("10.0.0.7\n"));
  const auto lines = fine.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], expected_line("10.0.0.7", 0));
}

TEST(ServeServer, OverlongLineGetsOneInvalidReplyThenClose) {
  auto config = test_config(snapshot_file("overlong", 0));
  config.max_request_bytes = 128;
  RunningServer rs(std::move(config));

  Client client(rs.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all(std::string(512, 'a')));  // no newline ever
  const auto lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], std::string(64, 'a') + " invalid");
  EXPECT_TRUE(client.reads_eof());
  EXPECT_TRUE(wait_until([&] { return rs.server->stats().drops >= 1; }));

  // Counting contract (DESIGN.md §12): the one invalid reply produced for
  // the overlong line counts as a query AND an invalid AND a drop — the
  // pre-fix code skipped the query bump on this path.
  const auto stats = rs.server->stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.invalid, 1u);
  EXPECT_EQ(stats.drops, 1u);
}

TEST(ServeServer, RequestBytesCapIsExactAtTheBoundary) {
  auto config = test_config(snapshot_file("capboundary", 0));
  config.max_request_bytes = 64;
  RunningServer rs(std::move(config));

  // A line of exactly max_request_bytes (before the newline) is legal:
  // leading padding is trimmed by the parser, so this answers normally.
  {
    Client client(rs.port());
    ASSERT_TRUE(client.connected());
    std::string line(64 - 8, ' ');
    line += "10.0.0.7";  // 64 bytes exactly, then the terminator
    ASSERT_TRUE(client.send_all(line + "\n"));
    const auto lines = client.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], expected_line("10.0.0.7", 0));
  }

  // Exactly max_request_bytes buffered with no newline yet must NOT be
  // killed — the limit is on the line, and the line may still terminate.
  // The pre-fix cap let a client sit at max + 16 KiB - 1 instead.
  {
    Client client(rs.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all(std::string(64 - 8, ' ')));
    std::this_thread::sleep_for(20ms);
    ASSERT_TRUE(client.send_all("10.0.0.7\n"));
    const auto lines = client.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], expected_line("10.0.0.7", 0));
  }

  // One byte over — with or without a newline — is rejected and closed,
  // even when the whole overlong line arrives in a single chunk (the
  // pre-fix per-chunk check missed a complete line with its newline).
  {
    Client client(rs.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all(std::string(65, 'b') + "\n"));
    const auto lines = client.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], std::string(64, 'b') + " invalid");
    EXPECT_TRUE(client.reads_eof());
  }
  EXPECT_TRUE(wait_until([&] { return rs.server->stats().drops >= 1; }));
  EXPECT_EQ(rs.server->stats().drops, 1u);
}

TEST(ServeServer, ConnectionsBeyondMaxConnsAreDropped) {
  auto config = test_config(snapshot_file("capacity", 0));
  config.max_conns = 2;
  RunningServer rs(std::move(config));

  Client first(rs.port());
  Client second(rs.port());
  ASSERT_TRUE(first.connected());
  ASSERT_TRUE(second.connected());
  // Confirm both are established server-side before the third knocks.
  ASSERT_TRUE(first.send_all("10.0.0.1\n"));
  ASSERT_TRUE(second.send_all("10.0.0.2\n"));
  ASSERT_EQ(first.read_lines(1).size(), 1u);
  ASSERT_EQ(second.read_lines(1).size(), 1u);

  Client third(rs.port());
  ASSERT_TRUE(third.connected());  // accepted by the kernel...
  EXPECT_TRUE(third.reads_eof());  // ...closed at once by the server
  EXPECT_TRUE(wait_until([&] { return rs.server->stats().drops >= 1; }));
  EXPECT_EQ(rs.server->stats().connections, 2u);
}

// ---------------------------------------------------------------------------
// Hot reload: SIGHUP under load, verdict continuity.

TEST(ServeServer, SighupReloadUnderLoadKeepsEveryVerdictValid) {
  const std::string path = snapshot_file("reload", 0);
  RunningServer rs(test_config(path));
  rs.server->install_signal_handlers();

  // Probes whose verdicts all differ between the two snapshot variants.
  const std::vector<std::string> probes = {"10.0.0.7", "10.0.1.9", "192.168.5.1",
                                           "203.0.113.5", "198.51.100.2"};
  std::vector<std::string> valid_old;
  std::vector<std::string> valid_new;
  for (const auto& ip : probes) {
    valid_old.push_back(expected_line(ip, 0));
    valid_new.push_back(expected_line(ip, 1));
    ASSERT_NE(valid_old.back(), valid_new.back()) << ip;
  }

  std::atomic<bool> reloaded{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> total_replies{0};
  std::atomic<std::uint64_t> new_epoch_replies{0};

  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      Client client(rs.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      std::string batch;
      for (const auto& ip : probes) batch += ip + "\n";
      // Keep querying until the reload has landed, then two more batches
      // so post-swap traffic is guaranteed to be observed.
      int after = 0;
      while (after < 2) {
        if (reloaded.load()) ++after;
        if (!client.send_all(batch)) {
          ++failures;
          return;
        }
        const auto lines = client.read_lines(probes.size());
        if (lines.size() != probes.size()) {
          ++failures;
          return;
        }
        for (std::size_t i = 0; i < lines.size(); ++i) {
          // Continuity: every reply is a complete verdict from either
          // epoch — never a torn, empty or misrouted line.
          if (lines[i] == valid_new[i]) {
            ++new_epoch_replies;
          } else if (lines[i] != valid_old[i]) {
            ++failures;
          }
          ++total_replies;
        }
      }
    });
  }

  // Let load build, swap the file, deliver a real SIGHUP.
  std::this_thread::sleep_for(50ms);
  {
    const auto written = serve::write_snapshot_file(make_snapshot(1), path);
    ASSERT_TRUE(written.ok()) << written.error().to_string();
  }
  ASSERT_EQ(::kill(::getpid(), SIGHUP), 0);
  ASSERT_TRUE(wait_until([&] { return rs.server->manager().epoch() == 2; }))
      << "SIGHUP did not trigger a reload";
  reloaded.store(true);

  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(total_replies.load(), static_cast<std::uint64_t>(kClients) * probes.size() * 2);
  // The post-reload batches must answer from the new epoch.
  EXPECT_GE(new_epoch_replies.load(), static_cast<std::uint64_t>(kClients) * probes.size());
  EXPECT_EQ(rs.server->stats().reloads, 1u);
  EXPECT_EQ(rs.server->stats().reload_failures, 0u);
}

TEST(ServeServer, FailedReloadKeepsTheOldEpochServing) {
  const std::string path = snapshot_file("badreload", 0);
  RunningServer rs(test_config(path));

  // Corrupt the file, then ask for a reload: the swap must be refused.
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a snapshot", f);
    std::fclose(f);
  }
  rs.server->request_reload();
  ASSERT_TRUE(wait_until([&] { return rs.server->stats().reload_failures >= 1; }));
  EXPECT_EQ(rs.server->manager().epoch(), 1u);
  EXPECT_EQ(rs.server->stats().reloads, 0u);

  Client client(rs.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all("10.0.0.7\n"));
  const auto lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], expected_line("10.0.0.7", 0));
}

TEST(ServeServer, ReloadCountNeverLagsTheObservedEpoch) {
  // A reader that sees epoch e must already see the e - 1 reloads that
  // installed it (epoch 1 is the start-up install): the server counts a
  // reload before it installs the epoch.
  const std::string path = snapshot_file("reloadorder", 0);
  RunningServer rs(test_config(path));
  constexpr std::uint64_t kReloads = 40;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> lagging{0};
  std::atomic<std::uint64_t> observations{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t epoch = rs.server->manager().epoch();
      const std::uint64_t reloads = rs.server->stats().reloads;
      if (reloads + 1 < epoch) lagging.fetch_add(1);
      observations.fetch_add(1, std::memory_order_relaxed);
    }
  });
  bool all_installed = true;
  for (std::uint64_t k = 0; k < kReloads && all_installed; ++k) {
    const auto written =
        serve::write_snapshot_file(make_snapshot(static_cast<int>(k % 2)), path);
    EXPECT_TRUE(written.ok()) << written.error().to_string();
    rs.server->request_reload();
    all_installed = wait_until([&] { return rs.server->manager().epoch() == k + 2; });
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(all_installed) << "a reload never landed";
  EXPECT_GT(observations.load(), 0u);
  EXPECT_EQ(lagging.load(), 0u) << "a reader saw an epoch before its reload was counted";
  EXPECT_EQ(rs.server->stats().reloads, kReloads);
}

TEST(ServeServer, ActiveGaugeReportsThePeakOfConcurrentConnections) {
  obs::MetricsRegistry metrics;
  RunningServer rs(test_config(snapshot_file("peakactive", 0)), &metrics);
  constexpr std::uint64_t kClients = 5;
  {
    std::vector<std::unique_ptr<Client>> clients;
    for (std::uint64_t c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<Client>(rs.port()));
      ASSERT_TRUE(clients.back()->connected());
      ASSERT_TRUE(clients.back()->send_all("10.0.0.7\n"));
      ASSERT_EQ(clients.back()->read_lines(1).size(), 1u);
    }
    EXPECT_EQ(rs.server->stats().active, kClients);
    EXPECT_EQ(rs.server->stats().peak_active, kClients);
  }
  // Every client has hung up; the peak stays.
  ASSERT_TRUE(wait_until([&] { return rs.server->stats().active == 0; }));
  EXPECT_EQ(rs.server->stats().peak_active, kClients);

  rs.stop();
  const auto* active = metrics.find_gauge("serve.server.active");
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value(), static_cast<std::int64_t>(kClients));
}

// ---------------------------------------------------------------------------
// Watch mode: the zero-touch publish pipeline's read side.  The watcher
// must pick up an atomic publish without any signal, refuse a corrupt one
// exactly once (no retry hot-loop), and never even attempt a reload for a
// torn publish that left the target untouched.

TEST(ServeServer, WatchModeSurvivesFaultyPublishesAndPicksUpTheGoodOne) {
  const std::string path = snapshot_file("watchfault", 0);
  auto config = test_config(path);
  config.watch_interval_ms = 10;
  RunningServer rs(std::move(config));
  ASSERT_EQ(rs.server->manager().epoch(), 1u);

  // A torn publish never touches the target: the watcher must see nothing
  // to do.  (ingest::publish_snapshot stages through <path>.tmp and the
  // injected fault aborts before the rename.)
  {
    ingest::PublishFaults faults;
    faults.truncate_after_bytes = 10;
    const auto torn = ingest::publish_snapshot(make_snapshot(1), path, &faults);
    ASSERT_FALSE(torn.ok());
    EXPECT_EQ(torn.error().code, "publish.torn");
  }
  std::this_thread::sleep_for(100ms);  // several watch intervals
  EXPECT_EQ(rs.server->manager().epoch(), 1u);
  EXPECT_EQ(rs.server->stats().reload_failures, 0u) << "torn publish reached the watcher";

  // A silently corrupted publish does swap the file, so the watcher tries,
  // the snapshot CRCs refuse it, and the old epoch keeps serving.  The
  // failure must be counted exactly once: the watcher re-arms on the new
  // signature instead of retrying the same bad file every interval.
  {
    ingest::PublishFaults faults;
    faults.corrupt_first_byte = true;
    const auto corrupt = ingest::publish_snapshot(make_snapshot(1), path, &faults);
    ASSERT_TRUE(corrupt.ok()) << corrupt.error().to_string();
  }
  ASSERT_TRUE(wait_until([&] { return rs.server->stats().reload_failures >= 1; }));
  EXPECT_EQ(rs.server->manager().epoch(), 1u);
  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(rs.server->stats().reload_failures, 1u) << "watcher hot-looped on the bad file";

  // Old epoch still answering, byte-for-byte.
  {
    Client client(rs.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all("10.0.0.7\n"));
    const auto lines = client.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], expected_line("10.0.0.7", 0));
  }

  // Recovery: a clean atomic publish is picked up with no signal at all.
  {
    const auto published = ingest::publish_snapshot(make_snapshot(1), path);
    ASSERT_TRUE(published.ok()) << published.error().to_string();
  }
  ASSERT_TRUE(wait_until([&] { return rs.server->manager().epoch() == 2; }))
      << "watcher never picked up the clean publish";
  EXPECT_EQ(rs.server->stats().reloads, 1u);
  EXPECT_EQ(rs.server->stats().reload_failures, 1u);

  Client client(rs.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all("10.0.0.7\n"));
  const auto lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], expected_line("10.0.0.7", 1));
}

// ---------------------------------------------------------------------------
// Graceful drain: SIGTERM flushes the reply backlog and run() exits 0.

TEST(ServeServer, SigtermDrainsPendingRepliesAndExitsZero) {
  auto config = test_config(snapshot_file("drain", 0));
  config.max_pending_bytes = 4 * 1024 * 1024;  // answer everything, queue freely
  RunningServer rs(std::move(config));
  rs.server->install_signal_handlers();

  constexpr int kQueries = 20'000;  // ~600 KB of replies, beyond socket buffers
  Client client(rs.port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  burst.reserve(static_cast<std::size_t>(kQueries) * 12);
  for (int i = 0; i < kQueries; ++i) {
    burst += "10.0." + std::to_string(i % 2) + "." + std::to_string(i % 256) + "\n";
  }
  ASSERT_TRUE(client.send_all(burst));

  // Wait until the server has answered every request (most replies are
  // still queued because this client is not reading), then SIGTERM.
  ASSERT_TRUE(wait_until([&] { return rs.server->stats().queries >= kQueries; }))
      << "server answered " << rs.server->stats().queries << " of " << kQueries;
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);

  const auto lines = client.read_lines(kQueries);
  EXPECT_EQ(lines.size(), static_cast<std::size_t>(kQueries));
  EXPECT_TRUE(client.reads_eof());

  rs.thread.join();
  EXPECT_EQ(rs.exit_code, 0);

  // The listener is gone: fresh connections are refused.
  Client late(rs.port());
  EXPECT_FALSE(late.connected());
}

// ---------------------------------------------------------------------------
// Invalid-echo sanitization: the server must never reflect raw binary or
// control characters back onto the wire.

TEST(SanitizedEcho, ReplacesNonPrintableBytesAndTruncates) {
  std::string out;
  serve::append_sanitized_echo(out, "plain.token", 64);
  EXPECT_EQ(out, "plain.token");

  out.clear();
  serve::append_sanitized_echo(out, std::string_view("\x01\x02 ok \x7f\xff\n\t", 10), 64);
  EXPECT_EQ(out, ".. ok ....");

  out.clear();  // the limit truncates before sanitizing
  serve::append_sanitized_echo(out, std::string(100, 'a') + "\x03", 8);
  EXPECT_EQ(out, "aaaaaaaa");

  out.clear();  // boundary bytes: 0x1f/0x7f masked, 0x20/0x7e kept
  serve::append_sanitized_echo(out, std::string_view("\x1f\x20\x7e\x7f", 4), 64);
  EXPECT_EQ(out, ". ~.");
}

TEST(ServeServer, GarbageRequestLinesAreEchoedSanitized) {
  RunningServer rs(test_config(snapshot_file("garbage", 0)));
  Client client(rs.port());
  ASSERT_TRUE(client.connected());

  // Control characters, high bytes, and an ANSI escape attempt — each an
  // unparseable line the server answers with a sanitized echo.  The \x1b
  // would re-style the terminal of anyone eyeballing the stream with nc.
  ASSERT_TRUE(client.send_all(std::string_view("\x01garbage\x02\n", 10)));
  ASSERT_TRUE(client.send_all(std::string_view("\x1b[31mred\n", 9)));
  ASSERT_TRUE(client.send_all(std::string_view("\xde\xad\xbe\xef\n", 5)));
  const auto lines = client.read_lines(3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], ".garbage. invalid");
  EXPECT_EQ(lines[1], ".[31mred invalid");
  EXPECT_EQ(lines[2], ".... invalid");
  EXPECT_EQ(rs.server->stats().invalid, 3u);
}

TEST(ServeServer, OverlongBinaryLineEchoIsSanitized) {
  auto config = test_config(snapshot_file("overlongbin", 0));
  config.max_request_bytes = 128;
  RunningServer rs(std::move(config));

  Client client(rs.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all(std::string(512, '\x02')));  // no newline ever
  const auto lines = client.read_lines(1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], std::string(64, '.') + " invalid");
  EXPECT_TRUE(client.reads_eof());
}

// ---------------------------------------------------------------------------
// Write fairness: one connection's reply backlog must not monopolize the
// reactor.  Every flush is capped at max_flush_bytes_per_event, so other
// ready connections get service between the backlog's EPOLLOUT rounds.

TEST(ServeServer, BackloggedConnectionDoesNotStarveOthers) {
  auto config = test_config(snapshot_file("fairness", 0));
  config.max_pending_bytes = 4 * 1024 * 1024;     // answer everything, queue freely
  config.max_flush_bytes_per_event = 1024;        // tiny cap: many partial flushes
  RunningServer rs(std::move(config));

  // ~600 KB of replies into a client that never reads: far beyond the
  // loopback socket buffers, so a large pending backlog builds up and
  // every flush toward it hits the cap.
  constexpr int kBurst = 20'000;
  Client hog(rs.port());
  ASSERT_TRUE(hog.connected());
  std::string burst;
  burst.reserve(static_cast<std::size_t>(kBurst) * 12);
  for (int i = 0; i < kBurst; ++i) {
    burst += "10.0." + std::to_string(i % 2) + "." + std::to_string(i % 256) + "\n";
  }
  ASSERT_TRUE(hog.send_all(burst));
  ASSERT_TRUE(wait_until([&] { return rs.server->stats().queries >= kBurst; }));

  // With the backlog stalled mid-drain, a well-behaved client must still
  // get prompt answers (pre-fix, flush_output looped to EAGAIN first).
  const auto t0 = std::chrono::steady_clock::now();
  Client probe(rs.port());
  ASSERT_TRUE(probe.connected());
  ASSERT_TRUE(probe.send_all("10.0.0.7\n"));
  const auto lines = probe.read_lines(1);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], expected_line("10.0.0.7", 0));
  EXPECT_LT(elapsed, 2s) << "probe starved behind the backlogged connection";
  EXPECT_GT(rs.server->stats().partial_flushes, 0u)
      << "the fairness cap never engaged - the backlog was flushed unbounded";

  // The hog eventually drains fine once it starts reading.
  const auto drained = hog.read_lines(kBurst);
  EXPECT_EQ(drained.size(), static_cast<std::size_t>(kBurst));
}

// ---------------------------------------------------------------------------
// Coarse idle sweep: deadlines are checked on a sweep cadence
// (idle_timeout / 4), not per wakeup — a silent connection must still be
// retired, no sooner than the timeout and not much later than timeout +
// cadence.

TEST(ServeServer, CoarseSweepRetiresIdleConnectionWithinOneCadence) {
  auto config = test_config(snapshot_file("coarsesweep", 0));
  config.idle_timeout_ms = 200;
  RunningServer rs(std::move(config));

  const auto t0 = std::chrono::steady_clock::now();
  Client idle(rs.port());
  ASSERT_TRUE(idle.connected());
  EXPECT_TRUE(idle.reads_eof()) << "idle connection was never retired";
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 200) << "retired before its idle timeout";
  EXPECT_LT(elapsed.count(), 5'000) << "sweep cadence missed by an order of magnitude";
  EXPECT_EQ(rs.server->stats().timeouts, 1u);
}

// ---------------------------------------------------------------------------
// Multi-reactor integration: accept distribution, hot reload under
// cross-reactor load, and drain with backlogs on several reactors.

TEST(MultiReactor, AcceptsSpreadAcrossReactors) {
  auto config = test_config(snapshot_file("spread", 0));
  config.reactors = 2;
  RunningServer rs(std::move(config));

  constexpr int kConns = 32;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kConns; ++i) {
    clients.push_back(std::make_unique<Client>(rs.port()));
    ASSERT_TRUE(clients.back()->connected());
  }
  // Each proves it is established server-side (accept4 has run).
  for (int i = 0; i < kConns; ++i) {
    ASSERT_TRUE(clients[static_cast<std::size_t>(i)]->send_all("10.0.0.7\n"));
    ASSERT_EQ(clients[static_cast<std::size_t>(i)]->read_lines(1).size(), 1u);
  }

  const auto per_reactor = rs.server->reactor_connections();
  ASSERT_EQ(per_reactor.size(), 2u);
  EXPECT_EQ(per_reactor[0] + per_reactor[1], static_cast<std::uint64_t>(kConns));
  // SO_REUSEPORT hashes the 4-tuple across listeners; 32 connections all
  // landing on one of two reactors has probability 2^-31.
  EXPECT_GT(per_reactor[0], 0u);
  EXPECT_GT(per_reactor[1], 0u);
  EXPECT_EQ(rs.server->stats().connections, static_cast<std::uint64_t>(kConns));
}

TEST(MultiReactor, ReloadUnderCrossReactorLoadDropsNothing) {
  const std::string path = snapshot_file("xreload", 0);
  auto config = test_config(path);
  config.reactors = 3;
  RunningServer rs(std::move(config));

  constexpr int kClients = 6;
  constexpr int kQueries = 300;
  // Precomputed on the main thread: expected_line()'s cache is not
  // thread-safe.
  const std::string before = expected_line("10.0.0.7", 0);
  const std::string after = expected_line("10.0.0.7", 1);
  ASSERT_NE(before, after);

  std::atomic<int> completed{0};
  std::atomic<int> failures{0};
  std::atomic<int> saw_new_epoch{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      Client client(rs.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      bool flipped = false;
      for (int q = 0; q < kQueries; ++q) {
        if (!client.send_all("10.0.0.7\n")) {
          ++failures;
          return;
        }
        const auto lines = client.read_lines(1);
        if (lines.size() != 1) {
          ++failures;  // a dropped query
          return;
        }
        if (lines[0] == after) {
          flipped = true;
        } else if (lines[0] != before || flipped) {
          // Wrong bytes, or the epoch went backwards on this connection.
          ++failures;
        }
        ++completed;
      }
      if (flipped) ++saw_new_epoch;
    });
  }

  // Let every reactor serve under load, then swap the snapshot mid-flight.
  while (completed.load() < kClients * kQueries / 3) std::this_thread::yield();
  {
    const auto written = serve::write_snapshot_file(make_snapshot(1), path);
    ASSERT_TRUE(written.ok()) << written.error().to_string();
  }
  rs.server->request_reload();

  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(completed.load(), kClients * kQueries) << "queries were dropped";
  EXPECT_EQ(rs.server->manager().epoch(), 2u);
  EXPECT_EQ(rs.server->stats().reloads, 1u);
  EXPECT_EQ(rs.server->stats().queries,
            static_cast<std::uint64_t>(kClients) * kQueries);
  // The swap landed while clients were mid-conversation on every reactor;
  // at least one connection must have observed it live (the load pacing
  // above makes "all finished before the reload" effectively impossible).
  EXPECT_GT(saw_new_epoch.load(), 0);

  // Post-reload, a fresh connection (hashed to whichever reactor) serves
  // the new epoch exactly.
  for (int i = 0; i < 3; ++i) {
    Client client(rs.port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_all("10.0.0.7\n"));
    const auto lines = client.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], after);
  }
}

TEST(MultiReactor, DrainFlushesBacklogsOnEveryReactor) {
  auto config = test_config(snapshot_file("xdrain", 0));
  config.reactors = 3;
  config.max_pending_bytes = 4 * 1024 * 1024;  // answer everything, queue freely
  RunningServer rs(std::move(config));

  // Six bursty clients spread across the three listeners, none reading:
  // every reactor ends up with queued reply backlogs when the stop lands.
  constexpr int kClients = 6;
  constexpr int kQueries = 5'000;  // ~150 KB of replies per client
  std::vector<std::unique_ptr<Client>> clients;
  std::string burst;
  burst.reserve(static_cast<std::size_t>(kQueries) * 12);
  for (int i = 0; i < kQueries; ++i) {
    burst += "10.0." + std::to_string(i % 2) + "." + std::to_string(i % 256) + "\n";
  }
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(rs.port()));
    ASSERT_TRUE(clients.back()->connected());
    ASSERT_TRUE(clients.back()->send_all(burst));
  }
  ASSERT_TRUE(wait_until([&] {
    return rs.server->stats().queries >=
           static_cast<std::uint64_t>(kClients) * kQueries;
  })) << "server answered " << rs.server->stats().queries << " queries";

  rs.server->request_stop();
  for (auto& client : clients) {
    const auto lines = client->read_lines(kQueries);
    EXPECT_EQ(lines.size(), static_cast<std::size_t>(kQueries));
    EXPECT_TRUE(client->reads_eof());
  }
  rs.thread.join();
  EXPECT_EQ(rs.exit_code, 0);

  const auto per_reactor = rs.server->reactor_connections();
  std::uint64_t total = 0;
  for (const auto n : per_reactor) total += n;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kClients));
}

TEST(MultiReactor, MetricsMergeDeterministicallyAcrossReactors) {
  obs::MetricsRegistry metrics;
  auto config = test_config(snapshot_file("xmetrics", 0));
  config.reactors = 2;
  RunningServer rs(std::move(config), &metrics);

  constexpr int kClients = 8;
  constexpr int kQueries = 50;
  for (int c = 0; c < kClients; ++c) {
    Client client(rs.port());
    ASSERT_TRUE(client.connected());
    for (int q = 0; q < kQueries; ++q) {
      ASSERT_TRUE(client.send_all("10.0.0.7\n"));
      ASSERT_EQ(client.read_lines(1).size(), 1u);
    }
  }

  rs.stop();
  // Totals are exact regardless of how REUSEPORT split the work.
  EXPECT_EQ(metrics.counter_value("serve.server.queries"),
            static_cast<std::uint64_t>(kClients) * kQueries);
  EXPECT_EQ(metrics.counter_value("serve.server.connections"),
            static_cast<std::uint64_t>(kClients));
  const auto* timer = metrics.find_timer("serve.server.request_us");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->count(), static_cast<std::uint64_t>(kClients) * kQueries);
}

// ---------------------------------------------------------------------------
// MTBIN: the binary protocol negotiated by preamble on the same port
// (DESIGN.md §12).  Framing, negotiation edge cases, the counting
// contract, live corruption robustness, and the line/binary differential.

namespace wire = serve::wire;

/// Read exactly `want` bytes (or until EOF/timeout).
std::string read_exact(Client& client, std::size_t want) {
  std::string data;
  char chunk[4096];
  while (data.size() < want) {
    const auto n =
        ::recv(client.fd, chunk, std::min(sizeof(chunk), want - data.size()), 0);
    if (n <= 0) break;
    data.append(chunk, static_cast<std::size_t>(n));
  }
  return data;
}

/// Read and decode `count` response frames; stops early on EOF/timeout or
/// an undecodable frame.
std::vector<wire::Response> read_frames(Client& client, std::size_t count) {
  const auto data = read_exact(client, count * wire::kResponseSize);
  std::vector<wire::Response> frames;
  std::span<const std::uint8_t> bytes(reinterpret_cast<const std::uint8_t*>(data.data()),
                                      data.size());
  while (bytes.size() >= wire::kResponseSize) {
    const auto decoded = wire::decode_response(bytes);
    EXPECT_TRUE(decoded.ok()) << decoded.error().to_string();
    if (!decoded.ok()) break;
    frames.push_back(decoded.value());
    bytes = bytes.subspan(wire::kResponseSize);
  }
  return frames;
}

std::string lookup_frame(const std::string& ip) {
  wire::Request request;
  request.verb = wire::Verb::kLookup;
  request.addr = *net::Ipv4Addr::parse(ip);
  std::string out;
  wire::append_request(out, request);
  return out;
}

TEST(MtbinServer, NegotiatesAndMatchesTheIndexExactly) {
  RunningServer rs(test_config(snapshot_file("mtbin_basic", 0)));
  Client client(rs.port());
  ASSERT_TRUE(client.connected());

  const std::vector<std::string> probes = {"10.0.0.7", "192.168.5.9", "203.0.113.1",
                                           "8.8.8.8"};
  std::string request{wire::kPreamble};
  for (const auto& ip : probes) request += lookup_frame(ip);
  ASSERT_TRUE(client.send_all(request));

  const auto frames = read_frames(client, probes.size());
  ASSERT_EQ(frames.size(), probes.size());
  const serve::TelescopeIndex index(make_snapshot(0));
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto addr = *net::Ipv4Addr::parse(probes[i]);
    EXPECT_EQ(frames[i], wire::make_verdict_response(addr, index.lookup(addr)))
        << probes[i];
  }
  // Dark hit, gray hit, prefixless hit, miss — the probe set is not vacuous.
  EXPECT_EQ(frames[0].cls, 0u);
  EXPECT_TRUE(frames[0].has_prefix);
  EXPECT_EQ(frames[0].origin_asn, 65001u);
  EXPECT_EQ(frames[2].cls, 0u);
  EXPECT_FALSE(frames[2].has_prefix);
  EXPECT_EQ(frames[3].cls, wire::kClassNone);

  const auto stats = rs.server->stats();
  EXPECT_EQ(stats.queries, probes.size());
  EXPECT_EQ(stats.invalid, 0u);
}

TEST(MtbinServer, SplitPreambleAndSplitFramesStillNegotiate) {
  RunningServer rs(test_config(snapshot_file("mtbin_split", 0)));
  Client client(rs.port());
  ASSERT_TRUE(client.connected());

  // The preamble split mid-token, then a frame split mid-field: the
  // negotiator must wait for more bytes instead of misreading the prefix
  // as a line, and the frame decoder must wait for the full 12 bytes.
  const std::string frame = lookup_frame("10.0.0.7");
  ASSERT_TRUE(client.send_all(std::string_view{wire::kPreamble}.substr(0, 3)));
  std::this_thread::sleep_for(20ms);
  ASSERT_TRUE(client.send_all(std::string{wire::kPreamble.substr(3)} + frame.substr(0, 5)));
  std::this_thread::sleep_for(20ms);
  ASSERT_TRUE(client.send_all(frame.substr(5) + lookup_frame("8.8.8.8")));

  const auto frames = read_frames(client, 2);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].addr, *net::Ipv4Addr::parse("10.0.0.7"));
  EXPECT_EQ(frames[0].cls, 0u);
  EXPECT_EQ(frames[1].addr, *net::Ipv4Addr::parse("8.8.8.8"));
  EXPECT_EQ(frames[1].cls, wire::kClassNone);
}

TEST(MtbinServer, PreambleDivergenceStaysOnTheLineProtocol) {
  RunningServer rs(test_config(snapshot_file("mtbin_diverge", 0)));

  // Shares 5 bytes with the preamble, then diverges: a line client whose
  // first token happens to start with "MTBIN" keeps the line protocol.
  Client almost(rs.port());
  ASSERT_TRUE(almost.connected());
  ASSERT_TRUE(almost.send_all("MTBINGO\n10.0.0.7\n"));
  const auto lines = almost.read_lines(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "MTBINGO invalid");
  EXPECT_EQ(lines[1], expected_line("10.0.0.7", 0));

  // An ordinary first line is line protocol from byte one.
  Client plain(rs.port());
  ASSERT_TRUE(plain.connected());
  ASSERT_TRUE(plain.send_all("10.0.0.7\n"));
  EXPECT_EQ(plain.read_lines(1), std::vector<std::string>{expected_line("10.0.0.7", 0)});
}

TEST(MtbinServer, CountInCanonicalizesAndCounts) {
  RunningServer rs(test_config(snapshot_file("mtbin_count", 0)));
  Client client(rs.port());
  ASSERT_TRUE(client.connected());

  const auto count_frame = [](const std::string& ip, std::uint8_t plen) {
    wire::Request request;
    request.verb = wire::Verb::kCountIn;
    request.plen = plen;
    request.addr = *net::Ipv4Addr::parse(ip);
    std::string out;
    wire::append_request(out, request);
    return out;
  };

  // Variant 0 classifies 10.0.0/24 + 10.0.1/24 (in 10/8), 192.168.5/24,
  // and 203.0.113/24 — four blocks total.  A non-canonical base must be
  // masked to the prefix and echoed canonical.
  std::string request{wire::kPreamble};
  request += count_frame("10.0.1.7", 8);       // canonical base 10.0.0.0
  request += count_frame("192.168.0.0", 16);
  request += count_frame("0.0.0.0", 0);        // the whole v4 space
  request += count_frame("10.0.0.0", 24);
  ASSERT_TRUE(client.send_all(request));

  const auto frames = read_frames(client, 4);
  ASSERT_EQ(frames.size(), 4u);
  for (const auto& frame : frames) EXPECT_EQ(frame.status, wire::Status::kCount);
  EXPECT_EQ(frames[0].count, 2u);
  EXPECT_EQ(frames[0].addr, *net::Ipv4Addr::parse("10.0.0.0")) << "echo not canonical";
  EXPECT_EQ(frames[0].plen, 8u);
  EXPECT_EQ(frames[1].count, 1u);
  EXPECT_EQ(frames[2].count, 4u);
  EXPECT_EQ(frames[3].count, 1u);
}

TEST(MtbinServer, MalformedFramesGetTypedRepliesAndKeepTheConnection) {
  RunningServer rs(test_config(snapshot_file("mtbin_invalid", 0)));
  Client client(rs.port());
  ASSERT_TRUE(client.connected());

  const auto resealed = [](std::size_t at, std::uint8_t value) {
    std::string out = lookup_frame("10.0.0.7");
    out[at] = static_cast<char>(value);
    std::array<std::uint8_t, wire::kRequestSize> bytes{};
    std::memcpy(bytes.data(), out.data(), out.size());
    util::le_patch_u32(bytes, 8, util::crc32(std::span(bytes).first(8)));
    return std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  };

  std::string request{wire::kPreamble};
  request += resealed(0, 9);      // bad verb
  request += resealed(2, 1);      // bad reserved
  request += resealed(1, 25);     // bad plen (lookup with plen != 0)
  std::string crc = lookup_frame("10.0.0.7");
  crc[4] = static_cast<char>(crc[4] ^ 0x40);  // corrupt without resealing
  request += crc;
  request += lookup_frame("10.0.0.7");  // and the stream carries on
  ASSERT_TRUE(client.send_all(request));

  const auto frames = read_frames(client, 5);
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(frames[0].status, wire::Status::kInvalid);
  EXPECT_EQ(frames[0].cls, static_cast<std::uint8_t>(wire::InvalidReason::kBadVerb));
  EXPECT_EQ(frames[1].status, wire::Status::kInvalid);
  EXPECT_EQ(frames[1].cls, static_cast<std::uint8_t>(wire::InvalidReason::kBadReserved));
  EXPECT_EQ(frames[2].status, wire::Status::kInvalid);
  EXPECT_EQ(frames[2].cls, static_cast<std::uint8_t>(wire::InvalidReason::kBadPlen));
  EXPECT_EQ(frames[3].status, wire::Status::kInvalid);
  EXPECT_EQ(frames[3].cls, static_cast<std::uint8_t>(wire::InvalidReason::kBadCrc));
  EXPECT_EQ(frames[4].status, wire::Status::kVerdict);
  EXPECT_EQ(frames[4].cls, 0u);

  // Counting contract: every frame produced a reply (queries), the four
  // malformed ones were invalid, and none killed the connection (drops).
  const auto stats = rs.server->stats();
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_EQ(stats.invalid, 4u);
  EXPECT_EQ(stats.drops, 0u);
}

TEST(MtbinServer, LiveCorruptionSweepNeverDesyncs) {
  RunningServer rs(test_config(snapshot_file("mtbin_corrupt", 0)));
  Client client(rs.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_all(std::string{wire::kPreamble}));

  // 256 rounds of (one corrupted frame, one clean frame) down a single
  // connection — test_snapshot's seeded flip idiom, live.  CRC32 catches
  // every single-byte flip, so each round must yield exactly one bad_crc
  // invalid reply followed by the clean frame's verdict: the stream never
  // desyncs, the connection never dies.
  util::Rng rng(0xc0ffee);
  constexpr int kRounds = 256;
  for (int i = 0; i < kRounds; ++i) {
    const std::string ip = "10.0." + std::to_string(i % 2) + "." + std::to_string(i % 256);
    std::string corrupted = lookup_frame(ip);
    const auto at = static_cast<std::size_t>(rng.uniform(corrupted.size()));
    const auto flip = static_cast<std::uint8_t>(1 + rng.uniform(255));
    corrupted[at] = static_cast<char>(static_cast<std::uint8_t>(corrupted[at]) ^ flip);
    ASSERT_TRUE(client.send_all(corrupted + lookup_frame(ip)));

    const auto frames = read_frames(client, 2);
    ASSERT_EQ(frames.size(), 2u) << "round " << i << " desynced";
    EXPECT_EQ(frames[0].status, wire::Status::kInvalid) << "round " << i;
    EXPECT_EQ(frames[0].cls, static_cast<std::uint8_t>(wire::InvalidReason::kBadCrc));
    EXPECT_EQ(frames[1].status, wire::Status::kVerdict) << "round " << i;
    EXPECT_EQ(frames[1].addr, *net::Ipv4Addr::parse(ip)) << "round " << i;
  }

  const auto stats = rs.server->stats();
  EXPECT_EQ(stats.queries, 2u * kRounds);
  EXPECT_EQ(stats.invalid, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_EQ(stats.connections, 1u);
}

// ---------------------------------------------------------------------------
// The differential: both protocols must answer every probe with the same
// (class, prefix, origin-AS) triple, pinned over live loopback against a
// paper-scale snapshot (thousands of classified /24s under real prefixes).

TelescopeSnapshot paper_snapshot() {
  TelescopeSnapshot snap;
  snap.meta.seed = 7;
  snap.meta.created_unix_s = 1'700'000'000;
  snap.meta.source = "differential paper-scale";
  snap.prefixes.push_back(PrefixEntry{0x0a000000u, 65001, 8});   // 10.0.0.0/8
  snap.prefixes.push_back(PrefixEntry{0xac100000u, 64900, 12});  // 172.16.0.0/12
  snap.prefixes.push_back(PrefixEntry{0xc0a80000u, 65002, 16});  // 192.168.0.0/16
  std::uint64_t per_class[3] = {0, 0, 0};
  const auto add = [&](std::uint8_t a, std::uint8_t b, std::uint8_t c, int cls_index,
                       std::uint32_t prefix_index) {
    snap.blocks.push_back(BlockEntry::make(
        net::Block24::containing(net::Ipv4Addr::from_octets(a, b, c, 0)),
        static_cast<BlockClass>(cls_index), prefix_index));
    ++per_class[cls_index];
  };
  // Ascending block order, classes cycling: 1024 blocks under 10/8, 64
  // under 172.16/12, 128 under 192.168/16, one prefixless straggler.
  for (int b = 0; b < 4; ++b) {
    for (int c = 0; c < 256; ++c) add(10, std::uint8_t(b), std::uint8_t(c), (b + c) % 3, 0);
  }
  for (int c = 0; c < 64; ++c) add(172, 16, std::uint8_t(c), c % 3, 1);
  for (int c = 0; c < 256; c += 2) add(192, 168, std::uint8_t(c), c % 3, 2);
  add(203, 0, 113, 0, BlockEntry::kNoPrefix);
  snap.dark_count = per_class[0];
  snap.unclean_count = per_class[1];
  snap.gray_count = per_class[2];
  return snap;
}

/// Rebuild the line-protocol reply from a decoded binary verdict — the
/// cross-protocol bridge the differential compares through.
std::string line_from_binary(const wire::Response& response) {
  std::string line = response.addr.to_string();
  if (response.cls == wire::kClassNone) return line + " none";
  line += ' ';
  line += serve::to_string(static_cast<BlockClass>(response.cls));
  line += ' ';
  line += response.has_prefix
              ? net::Prefix(net::Ipv4Addr(response.prefix_base), response.plen).to_string()
              : "-";
  line += ' ';
  line += response.has_origin ? "AS" + std::to_string(response.origin_asn) : "-";
  return line;
}

TEST(MtbinServer, DifferentialLineVsBinaryOnPaperScaleSnapshot) {
  const std::string path = ::testing::TempDir() + "serve_differential.snap";
  {
    const auto written = serve::write_snapshot_file(paper_snapshot(), path);
    ASSERT_TRUE(written.ok()) << written.error().to_string();
  }
  RunningServer rs(test_config(path));

  // Probes spanning every population: hits in each prefix family, the
  // prefixless block, edge /24s, and misses just outside each range.
  std::vector<std::string> probes;
  for (int i = 0; i < 500; ++i) {
    probes.push_back("10." + std::to_string(i % 5) + "." + std::to_string((i * 7) % 256) +
                     "." + std::to_string(i % 256));
  }
  for (int i = 0; i < 200; ++i) {
    probes.push_back("172.16." + std::to_string((i * 3) % 96) + "." + std::to_string(i % 256));
  }
  for (int i = 0; i < 200; ++i) {
    probes.push_back("192.168." + std::to_string((i * 5) % 256) + "." + std::to_string(i));
  }
  for (int i = 0; i < 100; ++i) {
    probes.push_back(std::to_string(20 + i) + ".1.2.3");  // misses
  }
  probes.insert(probes.end(), {"10.3.255.255", "10.4.0.0", "172.16.63.255", "172.16.64.0",
                               "203.0.113.9", "203.0.114.0", "0.0.0.0", "255.255.255.255"});

  // One line client, one binary client, same probe order.
  Client line_client(rs.port());
  Client bin_client(rs.port());
  ASSERT_TRUE(line_client.connected());
  ASSERT_TRUE(bin_client.connected());
  std::string line_request;
  std::string bin_request{wire::kPreamble};
  for (const auto& ip : probes) {
    line_request += ip + "\n";
    bin_request += lookup_frame(ip);
  }
  ASSERT_TRUE(line_client.send_all(line_request));
  ASSERT_TRUE(bin_client.send_all(bin_request));

  const auto lines = line_client.read_lines(probes.size());
  const auto frames = read_frames(bin_client, probes.size());
  ASSERT_EQ(lines.size(), probes.size());
  ASSERT_EQ(frames.size(), probes.size());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(frames[i].addr, *net::Ipv4Addr::parse(probes[i])) << probes[i];
    EXPECT_EQ(lines[i], line_from_binary(frames[i])) << probes[i];
    if (frames[i].cls != wire::kClassNone) ++hits;
  }
  // The sweep exercised real classifications, not a wall of "none".
  EXPECT_GT(hits, probes.size() / 2);
  EXPECT_EQ(rs.server->stats().queries, 2 * probes.size());
  EXPECT_EQ(rs.server->stats().invalid, 0u);
}

// ---------------------------------------------------------------------------
// RequestCore: answer_requests() with no socket.  The property the
// reactor relies on: a request stream gives byte-identical replies and
// identical tallies whether it arrives whole, split at any byte offset, or
// one byte at a time.

constexpr std::size_t kCoreMaxRequest = 64;

const serve::TelescopeIndex& core_index() {
  static const serve::TelescopeIndex index(make_snapshot(0));
  return index;
}

struct CoreRun {
  serve::RequestProto proto = serve::RequestProto::kUndecided;
  std::string replies;
  std::uint64_t answered = 0;
  std::uint64_t invalid = 0;
  std::uint64_t timed = 0;
  std::size_t consumed = 0;
  bool fatal = false;
};

/// Feed `stream` to the core in chunks ending at each of `cuts` (the last
/// is stream.size()), the way a reactor does: append, answer, drop what
/// was consumed, stop at a fatal reply; then signal EOF once.
CoreRun feed_core(std::string_view stream, const std::vector<std::size_t>& cuts) {
  CoreRun run;
  obs::TimingHistogram timer;
  std::string in;
  const auto answer = [&](bool eof) {
    const auto tally = serve::answer_requests(run.proto, in, eof, core_index(), kCoreMaxRequest,
                                              run.replies, &timer);
    in.erase(0, tally.consumed);
    run.consumed += tally.consumed;
    run.answered += tally.replies;
    run.invalid += tally.invalid;
    run.fatal = tally.fatal;
  };
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    in.append(stream.substr(at, cut - at));
    at = cut;
    answer(false);
    if (run.fatal) break;
  }
  if (!run.fatal) answer(true);
  run.timed = timer.count();
  return run;
}

/// Whole, every single cut, and byte-at-a-time feeds must agree.  After a
/// fatal reply the rest of the buffer is dropped, so how much was consumed
/// depends on how much had arrived; every other field must match.
void expect_split_invariant(std::string_view stream, const CoreRun& whole) {
  const auto same = [&](const CoreRun& run, const std::string& how) {
    EXPECT_EQ(run.proto, whole.proto) << how;
    EXPECT_EQ(run.replies, whole.replies) << how;
    EXPECT_EQ(run.answered, whole.answered) << how;
    EXPECT_EQ(run.invalid, whole.invalid) << how;
    EXPECT_EQ(run.timed, whole.timed) << how;
    EXPECT_EQ(run.fatal, whole.fatal) << how;
    if (!whole.fatal) {
      EXPECT_EQ(run.consumed, whole.consumed) << how;
    }
  };
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    same(feed_core(stream, {cut, stream.size()}), "cut at " + std::to_string(cut));
  }
  std::vector<std::size_t> bytewise;
  for (std::size_t i = 1; i <= stream.size(); ++i) bytewise.push_back(i);
  same(feed_core(stream, bytewise), "byte at a time");
}

TEST(RequestCore, LineStreamIsSplitInvariant) {
  // Valid, bad token, CRLF, comment, blank, analytics verb, padding, and
  // an unterminated tail that is never answered, not even at EOF.
  const std::string stream =
      "10.0.0.7\nnot-an-ip\n192.168.5.9\r\n# comment\n\ntop-ports\n  10.0.1.3  \n10.0.0";
  const CoreRun whole = feed_core(stream, {stream.size()});
  EXPECT_EQ(whole.proto, serve::RequestProto::kLine);
  EXPECT_EQ(whole.replies, expected_line("10.0.0.7", 0) + "\nnot-an-ip invalid\n" +
                               expected_line("192.168.5.9", 0) + "\n" +
                               serve::answer_analytics_query(core_index(), "top-ports") + "\n" +
                               expected_line("10.0.1.3", 0) + "\n");
  EXPECT_EQ(whole.answered, 5u);
  EXPECT_EQ(whole.invalid, 1u);
  EXPECT_EQ(whole.timed, 5u);
  EXPECT_EQ(whole.consumed, stream.size() - 6);
  EXPECT_FALSE(whole.fatal);
  expect_split_invariant(stream, whole);
}

TEST(RequestCore, OverlongLineKillsTheStreamWhereverItIsSplit) {
  const std::string overlong(100, 'x');
  const std::string stream = "10.0.0.7\n" + overlong + "\n10.0.0.8\n";
  const CoreRun whole = feed_core(stream, {stream.size()});
  // One sanitized echo capped at 64 bytes, nothing answered after it, and
  // the kill is counted (answered, invalid, fatal) but never timed.
  EXPECT_EQ(whole.replies, expected_line("10.0.0.7", 0) + "\n" + overlong.substr(0, 64) +
                               " invalid\n");
  EXPECT_EQ(whole.answered, 2u);
  EXPECT_EQ(whole.invalid, 1u);
  EXPECT_EQ(whole.timed, 1u);
  EXPECT_TRUE(whole.fatal);
  EXPECT_EQ(whole.consumed, stream.size());
  expect_split_invariant(stream, whole);
}

TEST(RequestCore, MtbinStreamIsSplitInvariant) {
  wire::Request count_in;
  count_in.verb = wire::Verb::kCountIn;
  count_in.plen = 8;
  count_in.addr = *net::Ipv4Addr::parse("10.0.1.7");
  std::string corrupt = lookup_frame("10.0.0.7");
  corrupt[6] = static_cast<char>(corrupt[6] ^ 0x10);

  std::string stream{wire::kPreamble};
  stream += lookup_frame("10.0.0.7");
  wire::append_request(stream, count_in);
  stream += corrupt;
  stream += lookup_frame("203.0.113.9");
  stream += lookup_frame("8.8.8.8").substr(0, 5);  // a partial frame stays buffered

  const CoreRun whole = feed_core(stream, {stream.size()});
  EXPECT_EQ(whole.proto, serve::RequestProto::kBinary);
  std::string expected;
  const auto verdict = [&](const char* ip) {
    const auto addr = *net::Ipv4Addr::parse(ip);
    wire::append_response(expected, wire::make_verdict_response(addr, core_index().lookup(addr)));
  };
  verdict("10.0.0.7");
  wire::append_response(expected,
                        wire::make_count_response(*net::Ipv4Addr::parse("10.0.0.0"), 8, 2));
  wire::append_response(
      expected, wire::make_invalid_response(net::Ipv4Addr(0), wire::InvalidReason::kBadCrc));
  verdict("203.0.113.9");
  EXPECT_EQ(whole.replies, expected);
  EXPECT_EQ(whole.answered, 4u);
  EXPECT_EQ(whole.invalid, 1u);
  EXPECT_EQ(whole.timed, 4u);
  EXPECT_EQ(whole.consumed, stream.size() - 5);
  EXPECT_FALSE(whole.fatal);
  expect_split_invariant(stream, whole);
}

TEST(RequestCore, PreamblePrefixAtEofFallsBackToTheLineProtocol) {
  serve::RequestProto proto = serve::RequestProto::kUndecided;
  std::string out;
  const std::string_view prefix = wire::kPreamble.substr(0, 5);
  auto tally =
      serve::answer_requests(proto, prefix, false, core_index(), kCoreMaxRequest, out, nullptr);
  EXPECT_EQ(proto, serve::RequestProto::kUndecided);  // still waiting for bytes
  EXPECT_EQ(tally.consumed, 0u);
  tally = serve::answer_requests(proto, prefix, true, core_index(), kCoreMaxRequest, out, nullptr);
  EXPECT_EQ(proto, serve::RequestProto::kLine);
  EXPECT_EQ(tally.replies, 0u);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace mtscope
