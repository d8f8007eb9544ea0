// What the three workloads share: run configuration, the in-process
// QueryServer lifecycle, set-up timing, the serve request-path
// calibrations of the traced runs, and the metric names every run reports.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util.hpp"

namespace perfbench {

/// Set-up is timed this many times per run and reported as the median.
inline constexpr int kSetupReps = 11;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;         // minimal input sizes (the benchmark's own tests)
  bool wrong_verdict = false; // corrupt one reference map: the run must fail
  std::string work_dir;       // scratch files (stream, FIFO, snapshots)
  std::string trace_out;      // span dump of the traced run
  HostContext host;
};

/// What a run reports.  `e2e` holds every end-to-end metric, `layers`
/// every per-layer metric (traced runs only); `context` is a JSON object
/// with input sizes, host context and thread placement.
struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  Metrics e2e;
  Metrics layers;
  std::string context;
  /// Name prefixes of the per-layer metrics the workload leaves idle.
  std::vector<std::string> idle_layers;

  void error(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

RunOutcome run_lookup_mix(const RunConfig& config);
RunOutcome run_live_week(const RunConfig& config);
RunOutcome run_batch_week(const RunConfig& config);

/// A QueryServer running on its own thread, pinned to `cpus` (its extra
/// reactors inherit the placement).
class ServerHarness {
 public:
  ServerHarness() = default;
  ~ServerHarness() { stop(); }
  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  [[nodiscard]] bool start(const mtscope::serve::ServerConfig& config, std::vector<int> cpus,
                           bool with_metrics);
  void stop();

  [[nodiscard]] mtscope::serve::QueryServer& server() { return *server_; }
  [[nodiscard]] std::uint16_t port() const { return server_->port(); }
  /// Valid after stop().
  [[nodiscard]] const mtscope::obs::MetricsRegistry& registry() const { return registry_; }

 private:
  mtscope::obs::MetricsRegistry registry_;
  std::unique_ptr<mtscope::serve::QueryServer> server_;
  std::thread thread_;
};

/// Seconds from constructing a server on `snapshot_path` to its first
/// answered lookup.
[[nodiscard]] double time_server_setup(const std::string& snapshot_path,
                                       mtscope::net::Ipv4Addr addr);

/// Per-operation costs of the serve request path on `index`, timed from
/// the benchmark around the public functions the server calls (traced
/// runs only): serve.wire.*, serve.line.*, serve.index.*,
/// serve.analytics_verb_us.
void calibrate_serve_path(const mtscope::serve::TelescopeIndex& index, const QuerySet& queries,
                          Tracer& tracer, Metrics& layers);

/// lookup_*_p50_us end-to-end metrics from the phase at the nominal rate.
void lookup_metrics(const PhaseResult& phase, Metrics& e2e);

/// client.* and proc.* per-layer metrics of one phase.
void client_metrics(const PhaseResult& phase, double process_cpu_s, Metrics& layers);

/// client.swap_window_p99_us: lookups due within 100 ms of the first reply
/// from each new epoch, where reload stalls land.
void swap_window_metric(const PhaseResult& phase, const EpochBook& book, Metrics& layers);

/// serve.server.* and serve.snapshot.{load_ms,swap_us} from the server's
/// obs registry (read back after stop()).
void server_registry_metrics(const mtscope::obs::MetricsRegistry& registry,
                             std::uint64_t partial_flushes, Metrics& layers);

/// Report every per-layer metric the traced run left unset as 0: a layer
/// named in `idle_layers` did no work on this workload; any other unset
/// metric is a measurement that failed, and an error of the run.
void fill_idle_layers(RunOutcome& outcome);

/// The freshness, setup, throughput and memory metrics every workload
/// reports, plus served_ratio from the run's attempted/failed totals.
void common_metrics(RunOutcome& outcome, const std::vector<double>& freshness_ms,
                    double setup_s, double throughput_per_s, double peak_rss);

/// Thread placement + host context as a JSON object body.
[[nodiscard]] std::string host_json(const HostContext& host, const std::string& placement);

}  // namespace perfbench
