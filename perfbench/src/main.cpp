// perfbench: the end-to-end benchmark of the operated meta-telescope.
//
//   perfbench --workload lookup_mix|live_week|batch_week --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE]
//             [--smoke] [--fault wrong-verdict]
//
// Prints one context line (inputs, host, placement, errors) and, last, the
// result line: {"correct", "attempted", "failed", "metrics"} with every
// end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
// Exits 1 on any wrong verdict or non-identical published epoch.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.hpp"

namespace {

using namespace perfbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload lookup_mix|live_week|batch_week "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE] [--smoke] "
               "[--fault wrong-verdict]\n",
               why);
  return 2;
}

bool make_dirs(const std::string& path) {
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      const std::string prefix = path.substr(0, i);
      if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.work_dir = ".bench_build/work";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::strcmp(v, "1") == 0;
      have_trace = std::strcmp(v, "0") == 0 || config.trace;
    } else if (arg == "--work-dir") {
      config.work_dir = v;
    } else if (arg == "--trace-out") {
      config.trace_out = v;
    } else if (arg == "--fault") {
      if (std::strcmp(v, "wrong-verdict") != 0) return usage("unknown fault");
      config.wrong_verdict = true;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_seed || !have_trace || !(config.seconds > 0)) return usage("missing --seed, --seconds or --trace");
  if (!make_dirs(config.work_dir)) return usage("cannot create the work directory");

  RunOutcome outcome;
  if (config.workload == "lookup_mix") {
    config.host = host_context(2);
    outcome = run_lookup_mix(config);
  } else if (config.workload == "live_week") {
    config.host = host_context(1);
    outcome = run_live_week(config);
  } else if (config.workload == "batch_week") {
    config.host = host_context(1);
    outcome = run_batch_week(config);
  } else {
    return usage("unknown workload");
  }

  if (config.trace) fill_idle_layers(outcome);
  std::string errors = "[";
  for (std::size_t i = 0; i < outcome.errors.size(); ++i) {
    errors += (i ? ", " : "") + json_string(outcome.errors[i]);
    note("error: %s", outcome.errors[i].c_str());
  }
  errors += "]";
  std::printf("{\"context\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, %s, "
              "\"errors\": %s}}\n",
              json_string(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0,
              outcome.context.empty() ? "\"inputs\": {}" : outcome.context.c_str(), errors.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, outcome.attempted)),
              static_cast<unsigned long long>(outcome.failed),
              (config.trace ? outcome.layers : outcome.e2e).to_json().c_str());
  return outcome.correct ? 0 : 1;
}
