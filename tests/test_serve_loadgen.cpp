// The stepped load generator (serve/loadgen.hpp): percentile and step-list
// parsing units, the JSON curve writer, and open-/closed-loop smokes
// against a real in-process QueryServer — every step must account for all
// of its requests (sent == received, zero errors) and produce sane
// latency numbers, and an overloaded open loop must carry its schedule
// deficit as late sends.  Under MTSCOPE_SANITIZE=thread/address this binary
// doubles as the tsan_loadgen_smoke / asan_loadgen_smoke sanitizer
// ctests (sender/receiver threads sharing the in-flight queue, paced
// against a multi-reactor server).
#include "serve/loadgen.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "serve/snapshot.hpp"

namespace mtscope {
namespace {

// ---------------------------------------------------------------------------
// Nearest-rank percentiles.

TEST(LoadgenPercentile, NearestRankContract) {
  // The caller sorts once and reads every percentile from the same span —
  // the old by-value signature copied and re-sorted per call.
  const std::vector<std::uint64_t> sorted{10, 20, 30, 40, 50};
  EXPECT_EQ(serve::percentile_us(sorted, 50.0), 30u);   // ceil(0.5*5)=3rd
  EXPECT_EQ(serve::percentile_us(sorted, 90.0), 50u);   // ceil(0.9*5)=5th
  EXPECT_EQ(serve::percentile_us(sorted, 99.0), 50u);
  EXPECT_EQ(serve::percentile_us(sorted, 100.0), 50u);
  EXPECT_EQ(serve::percentile_us(sorted, 20.0), 10u);   // ceil(0.2*5)=1st
  EXPECT_EQ(serve::percentile_us(sorted, 1.0), 10u);    // clamps to the 1st
  const std::vector<std::uint64_t> one{7};
  EXPECT_EQ(serve::percentile_us(one, 99.0), 7u);
  EXPECT_EQ(serve::percentile_us({}, 50.0), 0u);  // zero samples must not UB
}

// ---------------------------------------------------------------------------
// Step-list grammar.

TEST(LoadgenSteps, ParsesCommaSeparatedPositives) {
  const auto steps = serve::parse_step_list("1000,5000,20000");
  ASSERT_TRUE(steps.ok());
  EXPECT_EQ(steps.value(), (std::vector<std::uint64_t>{1000, 5000, 20000}));

  const auto single = serve::parse_step_list("42");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.value(), (std::vector<std::uint64_t>{42}));
}

TEST(LoadgenSteps, RejectsMalformedLists) {
  for (const char* bad : {"", "1000,", ",1000", "10,,20", "abc", "10x", "0", "10,0", "-5"}) {
    const auto steps = serve::parse_step_list(bad);
    EXPECT_FALSE(steps.ok()) << "accepted '" << bad << "'";
    if (!steps.ok()) EXPECT_EQ(steps.error().code, "loadgen.steps") << bad;
  }
}

// ---------------------------------------------------------------------------
// Config validation.

TEST(LoadgenConfigCheck, RejectsUnusableConfigs) {
  serve::LoadgenConfig config;
  config.steps = {1000};
  EXPECT_EQ(serve::run_loadgen(config).error().code, "loadgen.config");  // port 0

  config.port = 59999;
  config.steps.clear();
  EXPECT_EQ(serve::run_loadgen(config).error().code, "loadgen.config");  // no steps

  config.steps = {1000};
  config.connections = 0;
  EXPECT_EQ(serve::run_loadgen(config).error().code, "loadgen.config");

  config.connections = 1;
  config.measure_ms = 0;
  EXPECT_EQ(serve::run_loadgen(config).error().code, "loadgen.config");
}

TEST(LoadgenConfigCheck, ConnectFailureIsTyped) {
  serve::LoadgenConfig config;
  config.port = 1;  // nothing listens on tcp/1
  config.steps = {100};
  config.connections = 1;
  const auto run = serve::run_loadgen(config);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.error().code, "loadgen.socket");
}

// ---------------------------------------------------------------------------
// The JSON curve writer: stable shape, parseable by the CI gate.

TEST(LoadgenJson, WritesStableCurveDocument) {
  serve::LoadgenConfig config;
  config.port = 4242;
  config.mode = serve::LoadMode::kClosed;
  config.connections = 2;
  config.steps = {8};

  serve::StepResult step;
  step.target = 8;
  step.sent = 1000;
  step.received = 1000;
  step.samples = 1000;
  step.offered_qps = 2000.0;
  step.achieved_qps = 1999.5;
  step.min_us = 5;
  step.mean_us = 12.25;
  step.p50_us = 11;
  step.p90_us = 20;
  step.p99_us = 42;
  step.max_us = 90;

  std::ostringstream out;
  serve::write_loadgen_json(out, config, {step});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"mode\": \"closed\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"target\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"offered_qps\": 2000.0"), std::string::npos);
  EXPECT_NE(json.find("\"achieved_qps\": 1999.5"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": 12.2"), std::string::npos);  // %.1f rounding
  // Balanced braces/brackets — the cheap structural sanity check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));

  std::ostringstream empty;
  serve::write_loadgen_json(empty, config, {});
  EXPECT_NE(empty.str().find("\"steps\": []"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End to end against a real server.

serve::TelescopeSnapshot tiny_snapshot() {
  serve::TelescopeSnapshot snap;
  snap.meta.seed = 5;
  snap.meta.created_unix_s = 1'700'000'000;
  snap.meta.source = "loadgen test";
  snap.prefixes.push_back(serve::PrefixEntry{0x3c000000u, 65100, 6});  // 60.0.0.0/6
  snap.blocks.push_back(serve::BlockEntry::make(
      net::Block24::containing(net::Ipv4Addr::from_octets(60, 0, 0, 0)),
      serve::BlockClass::kDark, 0));
  snap.dark_count = 1;
  return snap;
}

struct LoadgenServer {
  std::string path;
  std::unique_ptr<serve::QueryServer> server;
  std::thread thread;

  explicit LoadgenServer(int reactors) {
    path = ::testing::TempDir() + "loadgen_target.snap";
    const auto written = serve::write_snapshot_file(tiny_snapshot(), path);
    EXPECT_TRUE(written.ok());
    serve::ServerConfig config;
    config.snapshot_path = path;
    config.port = 0;
    config.reactors = reactors;
    config.max_conns = 64;
    config.max_pending_bytes = 4 * 1024 * 1024;
    server = std::make_unique<serve::QueryServer>(std::move(config));
    const auto started = server->start();
    EXPECT_TRUE(started.ok()) << started.error().to_string();
    thread = std::thread([this] { server->run(); });
  }

  ~LoadgenServer() {
    server->request_stop();
    thread.join();
  }
};

void expect_clean_steps(const std::vector<serve::StepResult>& steps, std::size_t count) {
  ASSERT_EQ(steps.size(), count);
  for (const auto& step : steps) {
    EXPECT_EQ(step.errors, 0u) << "step " << step.target;
    EXPECT_GT(step.samples, 0u) << "step " << step.target;
    // Every measured request was answered: the cool-down phase plus the
    // half-close drain guarantee nothing sampled is still in flight.
    EXPECT_EQ(step.sent, step.samples) << "step " << step.target;
    EXPECT_GT(step.achieved_qps, 0.0);
    EXPECT_LE(step.min_us, step.p50_us);
    EXPECT_LE(step.p50_us, step.p90_us);
    EXPECT_LE(step.p90_us, step.p99_us);
    EXPECT_LE(step.p99_us, step.max_us);
  }
}

TEST(LoadgenRun, OpenLoopSweepAgainstMultiReactorServer) {
  LoadgenServer target(2);
  serve::LoadgenConfig config;
  config.port = target.server->port();
  config.mode = serve::LoadMode::kOpen;
  config.connections = 2;
  config.steps = {2'000, 10'000};
  config.warmup_ms = 50;
  config.measure_ms = 200;
  config.cooldown_ms = 50;
  const auto run = serve::run_loadgen(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  expect_clean_steps(run.value(), 2);
  // The paced open loop offers close to the target; on a loaded CI box
  // allow generous slack but reject an order-of-magnitude miss.
  EXPECT_GT(run.value()[0].offered_qps, 200.0);
  EXPECT_GT(run.value()[1].offered_qps, run.value()[0].offered_qps);
}

TEST(LoadgenRun, BinaryProtocolOpenLoopSweep) {
  LoadgenServer target(2);
  serve::LoadgenConfig config;
  config.port = target.server->port();
  config.mode = serve::LoadMode::kOpen;
  config.proto = serve::WireProtocol::kBinary;
  config.connections = 2;
  config.steps = {2'000, 10'000};
  config.warmup_ms = 50;
  config.measure_ms = 200;
  config.cooldown_ms = 50;
  const auto run = serve::run_loadgen(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  expect_clean_steps(run.value(), 2);
  // Every reply the server produced over MTBIN was a well-formed frame:
  // a framing error (bad CRC, short read) would surface as errors > 0 or
  // a sent/samples mismatch, both rejected by expect_clean_steps.
}

TEST(LoadgenRun, BinaryClosedLoopDepthSweep) {
  LoadgenServer target(1);
  serve::LoadgenConfig config;
  config.port = target.server->port();
  config.mode = serve::LoadMode::kClosed;
  config.proto = serve::WireProtocol::kBinary;
  config.connections = 2;
  config.steps = {1, 8};
  config.warmup_ms = 50;
  config.measure_ms = 200;
  config.cooldown_ms = 50;
  const auto run = serve::run_loadgen(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  expect_clean_steps(run.value(), 2);
  EXPECT_GT(run.value()[1].received, run.value()[0].received);
}

TEST(LoadgenRun, ClosedLoopDepthSweep) {
  LoadgenServer target(1);
  serve::LoadgenConfig config;
  config.port = target.server->port();
  config.mode = serve::LoadMode::kClosed;
  config.connections = 2;
  config.steps = {1, 8};
  config.warmup_ms = 50;
  config.measure_ms = 200;
  config.cooldown_ms = 50;
  const auto run = serve::run_loadgen(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  expect_clean_steps(run.value(), 2);
  // Depth 8 keeps more requests in flight than depth 1, so it must
  // complete more of them in the same window.
  EXPECT_GT(run.value()[1].received, run.value()[0].received);
}

TEST(LoadgenRun, OpenLoopCarriesTheDeficitAndCountsLateSends) {
  // 50M q/s on one connection is far past what the sender can format and
  // the server can answer, so the schedule runs ahead of the sends.  The
  // deficit must be carried — every request timed from when it fell due
  // and the overdue ones counted late — not silently dropped.
  LoadgenServer target(1);
  serve::LoadgenConfig config;
  config.port = target.server->port();
  config.mode = serve::LoadMode::kOpen;
  config.connections = 1;
  config.steps = {50'000'000};
  config.warmup_ms = 0;
  config.measure_ms = 50;
  config.cooldown_ms = 0;
  const auto run = serve::run_loadgen(config);
  ASSERT_TRUE(run.ok()) << run.error().to_string();
  expect_clean_steps(run.value(), 1);
  const auto& step = run.value()[0];
  EXPECT_GT(step.late, 0u);
  EXPECT_LE(step.late, step.sent);
  // A late request's latency includes its wait past the due time (more
  // than 100us), so with over 1% of sends late the p99 cannot be below it.
  if (step.late * 100 > step.sent) {
    EXPECT_GE(step.p99_us, 100u);
  }
  // The schedule bounds what is offered: never more than it asked for.
  EXPECT_LE(step.sent, 50'000'000u / 1000 * 50);

  std::ostringstream out;
  serve::write_loadgen_json(out, config, run.value());
  EXPECT_NE(out.str().find("\"late\": " + std::to_string(step.late)), std::string::npos);
}

}  // namespace
}  // namespace mtscope
