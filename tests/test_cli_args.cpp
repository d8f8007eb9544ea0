// The CLI argument surface: every accept/reject decision and diagnostic
// string of cli::parse_args is pinned here, so an accidental change to the
// option grammar (or an error message a script greps for) fails a test
// instead of surfacing in someone's cron job.
#include "cli_options.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace mtscope {
namespace {

struct ParseOutcome {
  bool ok = false;
  cli::Options opt;
  std::string error;
};

ParseOutcome parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"mtscope"};
  argv.insert(argv.end(), args.begin(), args.end());
  ParseOutcome outcome;
  outcome.ok = cli::parse_args(static_cast<int>(argv.size()), argv.data(), outcome.opt,
                               outcome.error);
  return outcome;
}

// --- command selection ------------------------------------------------------

TEST(CliArgs, MissingCommand) {
  const auto r = parse({});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "missing command");
}

TEST(CliArgs, UnknownCommand) {
  const auto r = parse({"transmogrify"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "unknown command: transmogrify");
}

TEST(CliArgs, AllCommandsAccepted) {
  for (const char* cmd : {"infer", "query", "serve", "loadgen", "stream", "ingest", "analyze",
                          "capture", "datasets", "ports"}) {
    const auto r = parse({cmd});
    EXPECT_TRUE(r.ok) << cmd << ": " << r.error;
    EXPECT_EQ(r.opt.command, cmd);
  }
}

// --- defaults ---------------------------------------------------------------

TEST(CliArgs, InferDefaults) {
  const auto r = parse({"infer"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.seed, 42u);
  EXPECT_FALSE(r.opt.tiny);
  EXPECT_EQ(r.opt.days, 1);
  EXPECT_EQ(r.opt.threads, 1u);
  EXPECT_EQ(r.opt.shards, 0u);
  EXPECT_TRUE(r.opt.tolerance);
  EXPECT_TRUE(r.opt.metrics_path.empty());
  EXPECT_TRUE(r.opt.snapshot_out.empty());
}

// --- numeric validation -----------------------------------------------------

TEST(CliArgs, ThreadsParses) {
  const auto r = parse({"infer", "--threads", "8", "--shards", "16"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.threads, 8u);
  EXPECT_EQ(r.opt.shards, 16u);
}

TEST(CliArgs, ThreadsZeroRejected) {
  const auto r = parse({"infer", "--threads", "0"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "--threads must be >= 1");
}

TEST(CliArgs, ShardsZeroRejected) {
  const auto r = parse({"infer", "--shards", "0"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "--shards must be >= 1");
}

TEST(CliArgs, PartiallyNumericTokenRejected) {
  const auto r = parse({"infer", "--threads", "4x"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "invalid value for --threads: '4x' (expected a non-negative integer)");
}

TEST(CliArgs, NegativeSeedRejected) {
  const auto r = parse({"infer", "--seed", "-1"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "invalid value for --seed: '-1' (expected a non-negative integer)");
}

TEST(CliArgs, DaysZeroRejected) {
  const auto r = parse({"infer", "--days", "0"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "--days must be >= 1");
}

// --- missing values ---------------------------------------------------------

TEST(CliArgs, MissingValueForMetricsOut) {
  const auto r = parse({"infer", "--metrics-out"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "missing value for --metrics-out");
}

TEST(CliArgs, MissingValueForSnapshot) {
  const auto r = parse({"query", "--snapshot"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "missing value for --snapshot");
}

TEST(CliArgs, MissingValueForThreads) {
  const auto r = parse({"infer", "--threads"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "missing value for --threads");
}

// --- unknown options --------------------------------------------------------

TEST(CliArgs, UnknownOptionRejected) {
  const auto r = parse({"infer", "--frobnicate"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "unknown option: --frobnicate");
}

// --- enumerated values ------------------------------------------------------

TEST(CliArgs, ScaleValidatesMembers) {
  EXPECT_TRUE(parse({"infer", "--scale", "tiny"}).opt.tiny);
  EXPECT_FALSE(parse({"infer", "--scale", "full"}).opt.tiny);
  const auto r = parse({"infer", "--scale", "medium"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "invalid value for --scale: 'medium' (expected tiny or full)");
}

// --- hilbert (two-token option) --------------------------------------------

TEST(CliArgs, HilbertTakesOctetAndPath) {
  const auto r = parse({"infer", "--hilbert", "60", "map.pgm"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.hilbert_octet, 60);
  EXPECT_EQ(r.opt.hilbert_path, "map.pgm");
}

TEST(CliArgs, HilbertOctetRangeChecked) {
  const auto r = parse({"infer", "--hilbert", "256", "map.pgm"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "--hilbert octet must be in [0, 255]");
}

TEST(CliArgs, HilbertMissingPath) {
  const auto r = parse({"infer", "--hilbert", "60"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "missing output path for --hilbert");
}

// --- query surface ----------------------------------------------------------

TEST(CliArgs, QueryOptionsParse) {
  const auto r = parse({"query", "--snapshot", "run.snap", "--ips", "-", "--metrics-out",
                        "m.json"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.snapshot_path, "run.snap");
  EXPECT_EQ(r.opt.ips_path, "-");
  EXPECT_EQ(r.opt.metrics_path, "m.json");
}

// --- serve surface ----------------------------------------------------------

TEST(CliArgs, ServeDefaults) {
  const auto r = parse({"serve"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.port, -1);  // unset: cmd_serve demands an explicit --port
  EXPECT_EQ(r.opt.max_conns, 1024u);
  EXPECT_EQ(r.opt.idle_timeout_ms, 30'000u);
}

TEST(CliArgs, ServeOptionsParse) {
  const auto r = parse({"serve", "--snapshot", "run.snap", "--port", "7070",
                        "--max-conns", "64", "--idle-timeout-ms", "5000",
                        "--metrics-out", "m.json"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.snapshot_path, "run.snap");
  EXPECT_EQ(r.opt.port, 7070);
  EXPECT_EQ(r.opt.max_conns, 64u);
  EXPECT_EQ(r.opt.idle_timeout_ms, 5000u);
  EXPECT_EQ(r.opt.metrics_path, "m.json");
}

TEST(CliArgs, ServePortZeroIsEphemeral) {
  const auto r = parse({"serve", "--port", "0"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.port, 0);
}

TEST(CliArgs, ServePortRangeChecked) {
  const auto r = parse({"serve", "--port", "65536"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "--port must be in [0, 65535]");
}

TEST(CliArgs, ServeMaxConnsZeroRejected) {
  const auto r = parse({"serve", "--max-conns", "0"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "--max-conns must be >= 1");
}

TEST(CliArgs, ServeIdleTimeoutZeroRejected) {
  const auto r = parse({"serve", "--idle-timeout-ms", "0"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "--idle-timeout-ms must be >= 1");
}

TEST(CliArgs, MissingValueForPort) {
  const auto r = parse({"serve", "--port"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "missing value for --port");
}

TEST(CliArgs, ServeReactorsParses) {
  const auto r = parse({"serve", "--port", "7070", "--reactors", "4"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.reactors, 4u);
}

TEST(CliArgs, ServeReactorsDefaultsToOne) {
  const auto r = parse({"serve", "--port", "7070"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.reactors, 1u);
}

TEST(CliArgs, ServeReactorsZeroRejected) {
  const auto r = parse({"serve", "--reactors", "0"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "--reactors must be >= 1");
}

TEST(CliArgs, ServeReactorsRangeChecked) {
  const auto r = parse({"serve", "--reactors", "257"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "--reactors must be in [1, 256]");
}

// --- loadgen surface --------------------------------------------------------

TEST(CliArgs, LoadgenDefaults) {
  const auto r = parse({"loadgen"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.command, "loadgen");
  EXPECT_EQ(r.opt.host, "127.0.0.1");
  EXPECT_EQ(r.opt.load_mode, "open");
  EXPECT_TRUE(r.opt.steps.empty());  // cmd_loadgen demands explicit --steps
  EXPECT_EQ(r.opt.conns, 4u);
  EXPECT_EQ(r.opt.warmup_ms, 200u);
  EXPECT_EQ(r.opt.measure_ms, 1000u);
  EXPECT_EQ(r.opt.cooldown_ms, 200u);
}

TEST(CliArgs, LoadgenOptionsParse) {
  const auto r = parse({"loadgen", "--port", "7070", "--host", "10.0.0.9",
                        "--mode", "closed", "--steps", "1000,5000", "--conns", "8",
                        "--warmup-ms", "50", "--measure-ms", "500",
                        "--cooldown-ms", "100", "--out", "curve.json"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.port, 7070);
  EXPECT_EQ(r.opt.host, "10.0.0.9");
  EXPECT_EQ(r.opt.load_mode, "closed");
  EXPECT_EQ(r.opt.steps, "1000,5000");
  EXPECT_EQ(r.opt.conns, 8u);
  EXPECT_EQ(r.opt.warmup_ms, 50u);
  EXPECT_EQ(r.opt.measure_ms, 500u);
  EXPECT_EQ(r.opt.cooldown_ms, 100u);
  EXPECT_EQ(r.opt.stream_out, "curve.json");
}

TEST(CliArgs, LoadgenModeValidatesMembers) {
  const auto r = parse({"loadgen", "--mode", "sideways"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "invalid value for --mode: 'sideways' (expected open or closed)");
}

TEST(CliArgs, ProtoDefaultsToLineAndValidatesMembers) {
  const auto defaulted = parse({"loadgen"});
  ASSERT_TRUE(defaulted.ok) << defaulted.error;
  EXPECT_EQ(defaulted.opt.proto, "line");

  const auto binary = parse({"loadgen", "--proto", "binary"});
  ASSERT_TRUE(binary.ok) << binary.error;
  EXPECT_EQ(binary.opt.proto, "binary");

  const auto bad = parse({"loadgen", "--proto", "mtbin"});
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error, "invalid value for --proto: 'mtbin' (expected line or binary)");
}

TEST(CliArgs, LoadgenMeasureZeroRejected) {
  const auto r = parse({"loadgen", "--measure-ms", "0"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "--measure-ms must be >= 1");
}

TEST(CliArgs, LoadgenWarmupZeroAccepted) {
  const auto r = parse({"loadgen", "--warmup-ms", "0", "--cooldown-ms", "0"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.warmup_ms, 0u);
  EXPECT_EQ(r.opt.cooldown_ms, 0u);
}

// --- snapshot-out + usage text ---------------------------------------------

TEST(CliArgs, SnapshotOutParses) {
  const auto r = parse({"infer", "--snapshot-out", "run.snap"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.snapshot_out, "run.snap");
}

TEST(CliArgs, UsageTextMentionsEveryCommand) {
  const std::string usage = cli::usage_text();
  for (const char* cmd : {"infer", "query", "serve", "loadgen", "stream", "ingest", "analyze",
                          "capture", "datasets", "ports"}) {
    EXPECT_NE(usage.find(cmd), std::string::npos) << cmd;
  }
  EXPECT_NE(usage.find("--snapshot-out"), std::string::npos);
  EXPECT_NE(usage.find("--port"), std::string::npos);
  EXPECT_NE(usage.find("--idle-timeout-ms"), std::string::npos);
  EXPECT_NE(usage.find("--reactors"), std::string::npos);
  EXPECT_NE(usage.find("--steps"), std::string::npos);
  EXPECT_NE(usage.find("--mode"), std::string::npos);
  EXPECT_NE(usage.find("--proto line|binary"), std::string::npos);
  EXPECT_NE(usage.find("--analytics"), std::string::npos);
  EXPECT_NE(usage.find("--query"), std::string::npos);
}

// --- analyze ----------------------------------------------------------------

TEST(CliArgs, AnalyzeDefaults) {
  const auto r = parse({"analyze"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.opt.snapshot_path.empty());
  EXPECT_TRUE(r.opt.analyze_query.empty());
  EXPECT_EQ(r.opt.top, 10u);
  EXPECT_FALSE(r.opt.analytics);
}

TEST(CliArgs, AnalyzeOptionsParse) {
  const auto r = parse(
      {"analyze", "--snapshot", "epoch.snap", "--query", "top-ports 10.0.0.0/8", "--top", "3"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.opt.snapshot_path, "epoch.snap");
  EXPECT_EQ(r.opt.analyze_query, "top-ports 10.0.0.0/8");
  EXPECT_EQ(r.opt.top, 3u);
}

TEST(CliArgs, AnalyzeQueryRequiresValue) {
  const auto r = parse({"analyze", "--query"});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "missing value for --query");
}

TEST(CliArgs, InferAnalyticsFlagParses) {
  const auto r = parse({"infer", "--analytics", "--snapshot-out", "run.snap"});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.opt.analytics);
  EXPECT_EQ(r.opt.snapshot_out, "run.snap");
}

}  // namespace
}  // namespace mtscope
