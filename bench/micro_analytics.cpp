// Analytics-plane costs on a simulated multi-IXP week, four stages
// (DESIGN.md §15):
//
//   * matrix build rate — collect_stats with the IBR analytics tap off vs
//     on (same workload, same thread/shard grid), so the tap's overhead is
//     a measured number instead of folklore, plus the parallel matrix
//     checked cell-for-cell against a serial single-shard oracle;
//   * window merge — the per-day slice matrices folded the way
//     SlidingWindow::merged folds them (copy the oldest, merge the rest in
//     day order), checked cell-for-cell against the whole-week matrix;
//   * rollup throughput — build_analytics over the collected matrix and
//     the published snapshot (the meta-telescope intersect, labeling, the
//     detector, service and scanner rankings in one pass);
//   * detector pass time — detect_outages alone over the dense per-prefix
//     series, the piece that reruns on every ingest epoch.
//
// The ANALYTICS section is round-tripped through serialize/parse and must
// come back byte-identical; any divergence (matrix, rollup determinism or
// codec) flips bit_identical and the exit code, and
// cmake/analytics_gate.cmake fails the build on it.
//
// Every stage is timed best-of-N (the container's CPU budget jitters run
// to run; the minimum estimates what the code costs).  Emits
// BENCH_analytics.json.  MTSCOPE_BENCH_SCALE=small shrinks to 2 days for
// quick iteration, matching the other bench binaries.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "ingest/daemon.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/parallel.hpp"
#include "routing/special_purpose.hpp"
#include "serve/analytics_format.hpp"
#include "serve/snapshot.hpp"
#include "sim/simulation.hpp"

using namespace mtscope;

namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool matrices_equal(const analytics::IbrMatrix& a, const analytics::IbrMatrix& b) {
  return a.rx_cells() == b.rx_cells() && a.src_ports() == b.src_ports() &&
         a.src_touches() == b.src_touches();
}

}  // namespace

int main() {
  sim::SimConfig config = sim::SimConfig::tiny(42);
  config.ixps = sim::SimConfig::default_ixps();
  const char* scale = std::getenv("MTSCOPE_BENCH_SCALE");
  const bool small = scale != nullptr && std::strcmp(scale, "small") == 0;
  const int day_count = small ? 2 : 7;
  const int reps = small ? 5 : 3;

  const sim::Simulation simulation(config);
  const auto ixps = pipeline::all_ixps(simulation);
  std::vector<int> days;
  for (int d = 0; d < day_count; ++d) days.push_back(d);

  std::printf(
      "== micro_analytics: %zu IXPs x %d days, tap + rollup + detector "
      "(best of %d) ==\n",
      ixps.size(), day_count, reps);

  bool bit_identical = true;

  // --- stage 1: the tap's collect overhead, off vs on -----------------------
  constexpr unsigned kThreads = 4;
  constexpr unsigned kShards = 16;
  double base_collect_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    pipeline::CollectOptions options;
    options.threads = kThreads;
    options.shards = kShards;
    const double t0 = now_ms();
    const auto stats = pipeline::collect_stats(simulation, ixps, days, options);
    const double ms = now_ms() - t0;
    if (rep == 0 || ms < base_collect_ms) base_collect_ms = ms;
  }

  double tap_collect_ms = 0.0;
  pipeline::VantageStats stats;
  for (int rep = 0; rep < reps; ++rep) {
    pipeline::CollectOptions options;
    options.threads = kThreads;
    options.shards = kShards;
    options.analytics = true;
    const double t0 = now_ms();
    auto with_tap = pipeline::collect_stats(simulation, ixps, days, options);
    const double ms = now_ms() - t0;
    if (rep == 0 || ms < tap_collect_ms) tap_collect_ms = ms;
    stats = std::move(with_tap);
  }

  // Serial single-shard oracle: the parallel fold must be cell-identical.
  {
    pipeline::CollectOptions serial_options;
    serial_options.analytics = true;
    const auto serial = pipeline::collect_stats(simulation, ixps, days, serial_options);
    if (!matrices_equal(stats.ibr(), serial.ibr())) {
      bit_identical = false;
      std::printf("  !! parallel matrix diverged from the serial oracle\n");
    }
  }

  const double overhead_pct =
      base_collect_ms > 0.0 ? (tap_collect_ms / base_collect_ms - 1.0) * 100.0 : 0.0;
  const double tap_flows_per_s =
      tap_collect_ms > 0.0
          ? static_cast<double>(stats.flows_ingested()) / (tap_collect_ms / 1000.0)
          : 0.0;
  std::printf(
      "  collect %2ut/%2ush     base %8.1f ms  with tap %8.1f ms  overhead %5.1f%%"
      "  (%zu cells, %.2fM flows/s)\n",
      kThreads, kShards, base_collect_ms, tap_collect_ms, overhead_pct,
      stats.ibr().rx_cell_count(), tap_flows_per_s / 1e6);

  // --- stage 2: the window merge over per-day slices -----------------------
  std::vector<pipeline::VantageStats> slices;
  for (const int day : days) {
    pipeline::CollectOptions options;
    options.threads = kThreads;
    options.shards = kShards;
    options.analytics = true;
    const int one_day[] = {day};
    slices.push_back(pipeline::collect_stats(simulation, ixps, one_day, options));
  }
  double merge_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_ms();
    analytics::IbrMatrix window = slices.front().ibr();
    for (std::size_t i = 1; i < slices.size(); ++i) window.merge(slices[i].ibr());
    const double ms = now_ms() - t0;
    if (rep == 0 || ms < merge_ms) merge_ms = ms;
    if (rep == 0 && !matrices_equal(window, stats.ibr())) {
      bit_identical = false;
      std::printf("  !! the merged day slices diverged from the whole-week matrix\n");
    }
  }
  std::printf("  window merge        %8.1f ms  (%zu day slices -> %zu rx cells)\n", merge_ms,
              slices.size(), stats.ibr().rx_cell_count());

  // --- stage 3: rollup (build_analytics) over the published map -------------
  const auto registry = routing::SpecialPurposeRegistry::standard();
  pipeline::PipelineConfig pipeline_config;
  pipeline_config.volume_scale = simulation.config().volume_scale;
  const pipeline::InferenceEngine engine(pipeline_config, simulation.plan().rib(), registry);
  const auto result = pipeline::parallel_infer(engine, stats, kThreads);
  serve::RunMetadata meta;
  meta.seed = config.seed;
  meta.days = static_cast<std::uint32_t>(day_count);
  meta.source = "micro_analytics";
  auto snapshot = serve::build_snapshot(result, simulation.plan().rib(), meta);
  const serve::BlockLabeler labeler = ingest::plan_labeler(simulation.plan());

  double rollup_ms = 0.0;
  serve::AnalyticsData analytics_data;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_ms();
    auto built = serve::build_analytics(stats.ibr(), snapshot, labeler);
    const double ms = now_ms() - t0;
    if (rep > 0 && !(built == analytics_data)) {
      bit_identical = false;
      std::printf("  !! build_analytics is not deterministic across repetitions\n");
    }
    if (rep == 0 || ms < rollup_ms) rollup_ms = ms;
    analytics_data = std::move(built);
  }
  const double cells_per_s =
      rollup_ms > 0.0
          ? static_cast<double>(stats.ibr().rx_cell_count()) / (rollup_ms / 1000.0)
          : 0.0;
  std::printf(
      "  rollup              %8.1f ms  (%.2fM matrix cells/s -> %zu kept cells, "
      "%zu outages, %zu scanners)\n",
      rollup_ms, cells_per_s / 1e6, analytics_data.cells.size(),
      analytics_data.outages.size(), analytics_data.scanners.size());

  // --- stage 4: the detector alone over the dense series --------------------
  std::vector<analytics::PrefixDaySeries> dense;
  for (const serve::SeriesPoint& p : analytics_data.series) {
    if (dense.empty() || dense.back().prefix_id != p.prefix_id) {
      dense.push_back(
          {p.prefix_id, std::vector<std::uint64_t>(analytics_data.window_days, 0)});
    }
    dense.back().packets[p.day - analytics_data.first_day] += p.packets;
  }
  double detector_ms = 0.0;
  std::size_t detector_events = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const double t0 = now_ms();
    const auto events = analytics::detect_outages(dense, analytics_data.first_day);
    const double ms = now_ms() - t0;
    if (rep == 0 || ms < detector_ms) detector_ms = ms;
    detector_events = events.size();
  }
  std::printf("  detector            %8.3f ms  (%zu series, %zu events)\n", detector_ms,
              dense.size(), detector_events);

  // --- codec round trip -----------------------------------------------------
  snapshot.analytics = analytics_data;
  const double ser_t0 = now_ms();
  const auto bytes = serve::serialize_snapshot(snapshot);
  const double serialize_ms = now_ms() - ser_t0;
  const double parse_t0 = now_ms();
  const auto parsed = serve::parse_snapshot(bytes);
  const double parse_ms = now_ms() - parse_t0;
  if (!parsed.ok() || !(parsed.value() == snapshot) ||
      serve::serialize_snapshot(parsed.value()) != bytes) {
    bit_identical = false;
    std::printf("  !! ANALYTICS section did not round-trip byte-identically\n");
  }
  std::printf("  codec               serialize %6.1f ms  parse %6.1f ms  (%zu bytes)  %s\n",
              serialize_ms, parse_ms, bytes.size(),
              bit_identical ? "bit-identical" : "MISMATCH");

  std::ofstream json("BENCH_analytics.json");
  json << "{\n"
       << "  \"meta\": ";
  benchx::write_meta_json(json);
  json << ",\n"
       << "  \"workload\": {\"ixps\": " << ixps.size() << ", \"days\": " << day_count
       << ", \"flows\": " << stats.flows_ingested()
       << ", \"blocks\": " << snapshot.blocks.size()
       << ", \"rx_cells\": " << stats.ibr().rx_cell_count()
       << ", \"matrix_bytes\": " << stats.ibr().memory_bytes() << "},\n"
       << "  \"tap\": {\"threads\": " << kThreads << ", \"shards\": " << kShards
       << ", \"base_collect_ms\": " << base_collect_ms
       << ", \"collect_ms\": " << tap_collect_ms
       << ", \"overhead_pct\": " << overhead_pct
       << ", \"flows_per_s\": " << tap_flows_per_s << "},\n"
       << "  \"window\": {\"slices\": " << slices.size() << ", \"merge_ms\": " << merge_ms
       << "},\n"
       << "  \"rollup\": {\"build_ms\": " << rollup_ms
       << ", \"cells_per_s\": " << cells_per_s
       << ", \"kept_cells\": " << analytics_data.cells.size()
       << ", \"series_points\": " << analytics_data.series.size()
       << ", \"outages\": " << analytics_data.outages.size()
       << ", \"services\": " << analytics_data.services.size()
       << ", \"scanners\": " << analytics_data.scanners.size() << "},\n"
       << "  \"detector\": {\"pass_ms\": " << detector_ms
       << ", \"series\": " << dense.size() << ", \"events\": " << detector_events << "},\n"
       << "  \"codec\": {\"serialize_ms\": " << serialize_ms
       << ", \"parse_ms\": " << parse_ms << ", \"bytes\": " << bytes.size() << "},\n"
       << "  \"bit_identical\": " << (bit_identical ? "true" : "false") << "\n"
       << "}\n";
  std::printf("  wrote BENCH_analytics.json\n");

  return bit_identical ? 0 : 1;
}
