#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "net/prefix.hpp"
#include "serve/analytics_format.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace serve = mtscope::serve;
namespace wire = mtscope::serve::wire;
namespace net = mtscope::net;

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, named after the src/ module it measures.
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.ms", "ms"},
    {"pipeline.collect.parse_ms", "ms"},
    {"pipeline.collect.insert_ms", "ms"},
    {"pipeline.collect.merge_ms", "ms"},
    {"pipeline.store.bytes_per_block", "B"},
    {"pipeline.store.arena_spills", "count"},
    {"pipeline.store.merge_ms", "ms"},
    {"pipeline.funnel_ms", "ms"},
    {"pipeline.funnel.blocks", "count"},
    {"pipeline.tolerance_ms", "ms"},
    {"ingest.stream.decode_ms", "ms"},
    {"ingest.stream.bytes", "B"},
    {"ingest.window.insert_ms", "ms"},
    {"ingest.window.merge_p50_ms", "ms"},
    {"ingest.window.merge_max_ms", "ms"},
    {"ingest.window.evict_ms", "ms"},
    {"ingest.window.rows_evicted", "count"},
    {"ingest.publish_ms", "ms"},
    {"ingest.publish.bytes", "B"},
    {"ingest.backlog_bytes", "B"},
    {"ingest.producer_blocked_ms", "ms"},
    {"analytics.tap_ms", "ms"},
    {"analytics.matrix.merge_ms", "ms"},
    {"analytics.build_ms", "ms"},
    {"analytics.cells.rx", "count"},
    {"analytics.cells.src_ports", "count"},
    {"analytics.cells.src_touch", "count"},
    {"analytics.matrix.bytes", "B"},
    {"serve.snapshot.build_ms", "ms"},
    {"serve.snapshot.load_ms", "ms"},
    {"serve.snapshot.swap_us", "us"},
    {"serve.reload_lag_ms", "ms"},
    {"serve.wire.decode_ns", "ns"},
    {"serve.wire.encode_ns", "ns"},
    {"serve.line.parse_ns", "ns"},
    {"serve.line.format_ns", "ns"},
    {"serve.index.lookup_ns", "ns"},
    {"serve.index.count_in_ns", "ns"},
    {"serve.index.hit_ratio", "ratio"},
    {"serve.analytics_verb_us", "us"},
    {"serve.server.request_p50_us", "us"},
    {"serve.server.request_p99_us", "us"},
    {"serve.server.partial_flushes", "count"},
    {"client.wait_p50_us", "us"},
    {"client.wait_p99_us", "us"},
    {"client.service_p50_us", "us"},
    {"client.service_p99_us", "us"},
    {"client.lookup_bin_p90_us", "us"},
    {"client.lookup_line_p90_us", "us"},
    {"client.lookup_bin_p99_us", "us"},
    {"client.lookup_line_p99_us", "us"},
    {"client.swap_window_p99_us", "us"},
    {"client.late_sends", "count"},
    {"client.cpu_pct", "%"},
    {"proc.cpu_s.client", "s"},
    {"proc.cpu_s.system", "s"},
    {"trace.overhead_pct", "%"},
    {"trace.freshness_accounted_pct", "%"},
    {"trace.spans", "count"},
};

/// Median of three timed repetitions of `body`, in ns per operation.
template <typename Body>
double per_op_ns(Tracer& tracer, const char* name, std::size_t ops, Body&& body) {
  std::vector<double> reps;
  for (int rep = 0; rep < 3; ++rep) {
    const Scope span(tracer, name, rep);
    const std::int64_t t0 = now_ns();
    body();
    reps.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(std::max<std::size_t>(1, ops)));
  }
  return median(std::move(reps));
}

}  // namespace

bool ServerHarness::start(const serve::ServerConfig& config, std::vector<int> cpus,
                          bool with_metrics) {
  server_ = std::make_unique<serve::QueryServer>(config, with_metrics ? &registry_ : nullptr);
  const auto started = server_->start();
  if (!started.ok()) {
    note("server start failed: %s", started.error().to_string().c_str());
    return false;
  }
  // The reactors share the system CPUs rather than one each: pinning them
  // one to a CPU measured a higher and noisier p99 on a 4-vCPU host.
  thread_ = std::thread([this, cpus = std::move(cpus)] {
    pin_current_thread(cpus);
    (void)server_->run();
  });
  return true;
}

void ServerHarness::stop() {
  if (server_ != nullptr) server_->request_stop();
  if (thread_.joinable()) thread_.join();
}

double time_server_setup(const std::string& snapshot_path, net::Ipv4Addr addr) {
  const std::int64_t t0 = now_ns();
  serve::ServerConfig config;
  config.snapshot_path = snapshot_path;
  ServerHarness harness;
  if (!harness.start(config, {}, false)) return -1.0;
  const bool answered = LookupClient::probe_once(harness.port(), addr);
  const std::int64_t t1 = now_ns();
  harness.stop();
  return answered ? static_cast<double>(t1 - t0) / 1e9 : -1.0;
}

void calibrate_serve_path(const serve::TelescopeIndex& index, const QuerySet& queries,
                          Tracer& tracer, Metrics& layers) {
  const auto& addrs = queries.addrs;
  const std::size_t n = addrs.size();
  std::vector<std::optional<serve::TelescopeIndex::Verdict>> verdicts(n);
  std::uint64_t sink = 0;

  layers.set("serve.index.lookup_ns", per_op_ns(tracer, "serve.index.lookup", n, [&] {
               for (std::size_t i = 0; i < n; ++i) verdicts[i] = index.lookup(addrs[i]);
             }), "ns");
  layers.set("serve.index.count_in_ns", per_op_ns(tracer, "serve.index.count_in", n, [&] {
               for (std::size_t i = 0; i < n; ++i) {
                 sink += index.count_in(net::Prefix::canonical(addrs[i], 16 + static_cast<int>(i % 9)));
               }
             }), "ns");

  std::string frames;
  for (const auto addr : addrs) wire::append_request(frames, {wire::Verb::kLookup, 0, addr});
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(frames.data());
  layers.set("serve.wire.decode_ns", per_op_ns(tracer, "serve.wire.decode", n, [&] {
               for (std::size_t i = 0; i < n; ++i) {
                 const auto decoded = wire::decode_request(
                     std::span(bytes + i * wire::kRequestSize, wire::kRequestSize));
                 sink += decoded.ok() ? decoded.value().addr.value() : 0;
               }
             }), "ns");
  std::string out;
  out.reserve(n * wire::kResponseSize);
  layers.set("serve.wire.encode_ns", per_op_ns(tracer, "serve.wire.encode", n, [&] {
               out.clear();
               for (std::size_t i = 0; i < n; ++i) {
                 wire::append_response(out, wire::make_verdict_response(addrs[i], verdicts[i]));
               }
             }), "ns");

  std::vector<std::string> lines;
  lines.reserve(n);
  for (const auto addr : addrs) lines.push_back(addr.to_string());
  layers.set("serve.line.parse_ns", per_op_ns(tracer, "serve.line.parse", n, [&] {
               for (const auto& line : lines) {
                 const auto parsed = net::Ipv4Addr::parse(line);
                 sink += parsed.has_value() ? parsed->value() : 0;
               }
             }), "ns");
  layers.set("serve.line.format_ns", per_op_ns(tracer, "serve.line.format", n, [&] {
               for (std::size_t i = 0; i < n; ++i) sink += serve::format_verdict(addrs[i], verdicts[i]).size();
             }), "ns");

  const std::size_t verbs = queries.verbs.size();
  layers.set("serve.analytics_verb_us", per_op_ns(tracer, "serve.analytics_verb", verbs, [&] {
               for (const auto& verb : queries.verbs) sink += serve::answer_analytics_query(index, verb).size();
             }) / 1e3, "us");
  if (sink == 42) note("calibration sink %llu", static_cast<unsigned long long>(sink));
}

void lookup_metrics(const PhaseResult& phase, Metrics& e2e) {
  e2e.set("lookup_bin_p50_us", PhaseResult::quantile(phase.bin, 0.50), "us");
  e2e.set("lookup_line_p50_us", PhaseResult::quantile(phase.line, 0.50), "us");
}

void client_metrics(const PhaseResult& phase, double process_cpu, Metrics& layers) {
  std::vector<double> wait;
  std::vector<double> service;
  for (const ProtoSamples* samples : {&phase.bin, &phase.line}) {
    wait.insert(wait.end(), samples->wait_us.begin(), samples->wait_us.end());
    service.insert(service.end(), samples->service_us.begin(), samples->service_us.end());
  }
  layers.set("client.wait_p50_us", percentile(wait, 0.50), "us");
  layers.set("client.wait_p99_us", percentile(wait, 0.99), "us");
  layers.set("client.service_p50_us", percentile(service, 0.50), "us");
  layers.set("client.service_p99_us", percentile(service, 0.99), "us");
  layers.set("client.lookup_bin_p90_us", PhaseResult::quantile(phase.bin, 0.90), "us");
  layers.set("client.lookup_line_p90_us", PhaseResult::quantile(phase.line, 0.90), "us");
  layers.set("client.lookup_bin_p99_us", PhaseResult::quantile(phase.bin, 0.99), "us");
  layers.set("client.lookup_line_p99_us", PhaseResult::quantile(phase.line, 0.99), "us");
  layers.set("client.late_sends", static_cast<double>(phase.late_sends), "count");
  layers.set("client.cpu_pct", phase.seconds > 0 ? 100.0 * phase.cpu_s / phase.seconds : 0.0, "%");
  layers.set("proc.cpu_s.client", phase.cpu_s, "s");
  layers.set("proc.cpu_s.system", std::max(0.0, process_cpu - phase.cpu_s), "s");
  layers.set("serve.index.hit_ratio",
             phase.lookups == 0 ? 0.0
                                : static_cast<double>(phase.hits) / static_cast<double>(phase.lookups),
             "ratio");
}

void swap_window_metric(const PhaseResult& phase, const EpochBook& book, Metrics& layers) {
  std::vector<std::int64_t> served;
  for (std::size_t e = 1; e < book.size(); ++e) {
    if (book.served_ns(e) != 0) served.push_back(book.served_ns(e));
  }
  if (!served.empty()) {
    layers.set("client.swap_window_p99_us", phase.quantile_near(served, 100'000'000, 0.99), "us");
  }
}

void server_registry_metrics(const mtscope::obs::MetricsRegistry& registry,
                             std::uint64_t partial_flushes, Metrics& layers) {
  if (const auto* timer = registry.find_timer("serve.server.request_us")) {
    layers.set("serve.server.request_p50_us", static_cast<double>(timer->quantile_us(0.50)), "us");
    layers.set("serve.server.request_p99_us", static_cast<double>(timer->quantile_us(0.99)), "us");
  }
  if (const auto* timer = registry.find_timer("serve.snapshot.load_us")) {
    layers.set("serve.snapshot.load_ms", static_cast<double>(timer->total_us()) /
                                             static_cast<double>(std::max<std::uint64_t>(1, timer->count())) / 1e3,
               "ms");
  }
  if (const auto* timer = registry.find_timer("serve.snapshot.swap_us")) {
    layers.set("serve.snapshot.swap_us", static_cast<double>(timer->total_us()) /
                                             static_cast<double>(std::max<std::uint64_t>(1, timer->count())),
               "us");
  }
  layers.set("serve.server.partial_flushes", static_cast<double>(partial_flushes), "count");
}

void fill_idle_layers(RunOutcome& outcome) {
  for (const auto& metric : kLayerMetrics) {
    if (outcome.layers.has(metric.name)) continue;
    const std::string_view name = metric.name;
    const bool idle = std::any_of(outcome.idle_layers.begin(), outcome.idle_layers.end(),
                                  [&](const std::string& prefix) { return name.starts_with(prefix); });
    if (!idle) outcome.error("per-layer metric " + std::string(name) + " was not measured");
    outcome.layers.set(metric.name, 0.0, metric.unit);
  }
}

void common_metrics(RunOutcome& outcome, const std::vector<double>& freshness_ms, double setup_s,
                    double throughput_per_s, double peak_rss) {
  outcome.e2e.set("freshness_p50_ms", median(freshness_ms), "ms");
  outcome.e2e.set("freshness_max_ms",
                  freshness_ms.empty() ? 0.0 : *std::max_element(freshness_ms.begin(), freshness_ms.end()),
                  "ms");
  outcome.e2e.set("setup_s", setup_s, "s");
  outcome.e2e.set("throughput_per_s", throughput_per_s, "1/s");
  outcome.e2e.set("peak_rss_mb", peak_rss, "MB");
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, outcome.attempted));
  outcome.e2e.set("served_ratio", 1.0 - static_cast<double>(outcome.failed) / attempted, "ratio");
}

std::string host_json(const HostContext& host, const std::string& placement) {
  const auto list = [](const std::vector<int>& cpus) {
    std::string out = "[";
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(cpus[i]);
    }
    return out + "]";
  };
  std::ostringstream out;
  out << "\"host\": {\"cpus_online\": " << host.cpus_online << ", \"affinity\": " << list(host.allowed)
      << ", \"cgroup_quota_cores\": " << host.cgroup_quota_cores
      << ", \"effective_cores\": " << host.effective_cores << "}, \"placement\": {\"client_cpus\": "
      << list(host.client_cpus) << ", \"system_cpus\": " << list(host.system_cpus) << ", "
      << placement << "}";
  return out.str();
}

}  // namespace perfbench
