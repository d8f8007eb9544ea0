// mtscope — command-line front end.
//
//   mtscope infer    [--seed N] [--scale tiny|full] [--days K] [--ixps A,B]
//                    [--threads N] [--shards M] [--no-tolerance] [--csv FILE]
//                    [--hilbert OCTET FILE.pgm] [--metrics-out FILE]
//                    [--snapshot-out FILE] [--analytics]
//   mtscope query    --snapshot FILE --ips FILE|- [--metrics-out FILE]
//   mtscope serve    --snapshot FILE --port N [--max-conns N]
//                    [--idle-timeout-ms N] [--watch-interval-ms N]
//                    [--metrics-out FILE]
//   mtscope stream   [--seed N] [--scale tiny|full] [--days K] [--ixps A,B]
//                    --out FILE
//   mtscope ingest   --source FILE --snapshot-out FILE [--window-days N]
//                    [--cadence-days N] [--threads N] [--no-tolerance]
//                    [--max-epochs N] [--metrics-out FILE]
//   mtscope analyze  --snapshot FILE [--query LINE] [--top K]
//   mtscope capture  [--seed N] [--telescope TUS1|TEU1|TEU2] [--day D] --pcap FILE
//   mtscope datasets [--seed N] [--scale tiny|full] --out-dir DIR
//   mtscope ports    [--seed N] [--scale tiny|full] [--top K]
//
// `infer` runs the full pipeline over simulated vantage-point data and
// emits the meta-telescope prefix list; `--snapshot-out` persists the run
// as a versioned binary snapshot (DESIGN.md §10).  `query` is the
// one-shot serving side: it loads a snapshot into a TelescopeIndex and
// answers per-IP classification lookups at memory speed.  `serve` is the
// operated telescope (DESIGN.md §12): a TCP daemon answering the same
// verdicts over a line protocol, with SIGHUP hot reload and graceful
// SIGTERM drain.  `stream` + `ingest` are the continuous-operation pair
// (DESIGN.md §13): `stream` exports simulated vantage-days as a flow
// stream (write it to a FIFO for live producer/consumer operation), and
// `ingest` consumes one, maintains the multi-day window incrementally,
// and atomically republishes `--snapshot-out` on cadence — which a
// watching `serve` picks up with zero operator touches.  On a real
// deployment the same code paths start from an IPFIX/NetFlow collector
// instead of the simulator.  `analyze` reads the ANALYTICS section of a
// snapshot built with `--analytics` (or by `ingest`, which attaches it by
// default) and answers the same `top-ports` / `outages` / `scanners`
// queries the TCP server speaks — one formatter, two front ends
// (DESIGN.md §15).
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/hilbert_map.hpp"
#include "analysis/ports.hpp"
#include "analysis/world_map.hpp"
#include "cli_options.hpp"
#include "ingest/daemon.hpp"
#include "ingest/flow_stream.hpp"
#include "net/pcap.hpp"
#include "obs/metrics.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/evaluation.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/parallel.hpp"
#include "pipeline/spoof_tolerance.hpp"
#include "serve/analytics_format.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"
#include "serve/telescope_index.hpp"
#include "sim/simulation.hpp"
#include "util/csv.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace mtscope;
using cli::Options;

namespace {

sim::Simulation make_simulation(const Options& opt) {
  if (opt.tiny) return sim::Simulation(sim::SimConfig::tiny(opt.seed));
  sim::SimConfig config;
  config.seed = opt.seed;
  return sim::Simulation(config);
}

std::vector<std::size_t> select_ixps(const sim::Simulation& simulation, const Options& opt) {
  if (opt.ixps.empty()) return pipeline::all_ixps(simulation);
  std::vector<std::size_t> out;
  for (const auto code : util::split(opt.ixps, ',')) {
    out.push_back(simulation.ixp_index(std::string(util::trim(code))));
  }
  return out;
}

int cmd_infer(const Options& opt) {
  const sim::Simulation simulation = make_simulation(opt);
  const auto ixps = select_ixps(simulation, opt);
  std::vector<int> days;
  for (int d = 0; d < std::max(1, opt.days); ++d) days.push_back(d);

  // Observability is opt-in: without --metrics-out the pipeline runs its
  // uninstrumented (null-registry) hot paths.
  obs::MetricsRegistry metrics_registry;
  obs::MetricsRegistry* metrics = opt.metrics_path.empty() ? nullptr : &metrics_registry;

  pipeline::CollectOptions collect_options;
  collect_options.threads = std::max(1u, opt.threads);
  collect_options.shards = opt.shards > 0 ? opt.shards : collect_options.threads;
  collect_options.metrics = metrics;
  collect_options.analytics = opt.analytics;

  std::fprintf(stderr, "collecting %zu vantage point(s) x %zu day(s) on %u thread(s)...\n",
               ixps.size(), days.size(), collect_options.threads);
  const auto stats = pipeline::collect_stats(simulation, ixps, days, collect_options);

  std::uint64_t tolerance = 0;
  if (opt.tolerance) {
    obs::StageTimer timer(metrics, "pipeline.tolerance_us");
    tolerance =
        pipeline::compute_spoof_tolerance(stats, simulation.plan().unrouted_slash8s());
  }
  const auto registry = routing::SpecialPurposeRegistry::standard();
  pipeline::PipelineConfig config;
  config.volume_scale = simulation.config().volume_scale;
  config.spoof_tolerance_pkts = tolerance;
  const pipeline::InferenceEngine engine(config, simulation.plan().rib(), registry);
  const auto result =
      pipeline::parallel_infer(engine, stats, collect_options.threads, metrics);
  const auto eval = pipeline::evaluate_against_ground_truth(result.dark, simulation.plan());

  std::printf("seen=%s dark=%s unclean=%s gray=%s tolerance=%llu fp-rate=%s\n",
              util::with_commas(result.funnel.seen).c_str(),
              util::with_commas(result.dark.size()).c_str(),
              util::with_commas(result.unclean).c_str(),
              util::with_commas(result.gray).c_str(),
              static_cast<unsigned long long>(tolerance),
              util::percent(eval.false_positive_rate()).c_str());

  if (!opt.csv_path.empty()) {
    std::ofstream out(opt.csv_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.csv_path.c_str());
      return 1;
    }
    util::CsvWriter writer(out);
    writer.write_row({"prefix", "origin_asn", "country"});
    const auto pfx2as = simulation.plan().make_pfx2as();
    result.dark.for_each([&](net::Block24 block) {
      const auto asn = pfx2as.resolve(block);
      const auto country = simulation.plan().geodb().country_of(block);
      writer.write_row({block.to_string(), asn ? std::to_string(asn->value()) : "",
                        country.value_or("")});
    });
    std::fprintf(stderr, "wrote %s\n", opt.csv_path.c_str());
  }

  if (!opt.snapshot_out.empty()) {
    serve::RunMetadata meta;
    meta.seed = opt.seed;
    meta.threads = collect_options.threads;
    meta.shards = collect_options.shards;
    meta.days = static_cast<std::uint32_t>(days.size());
    meta.spoof_tolerance_pkts = tolerance;
    meta.flows_ingested = stats.flows_ingested();
    meta.created_unix_s = static_cast<std::uint64_t>(std::time(nullptr));
    meta.source = std::string("sim scale=") + (opt.tiny ? "tiny" : "full") +
                  " ixps=" + (opt.ixps.empty() ? "all" : opt.ixps);

    obs::StageTimer build_timer(metrics, "serve.snapshot.build_us");
    auto snapshot = serve::build_snapshot(result, simulation.plan().rib(), meta);
    if (opt.analytics) {
      snapshot.analytics = serve::build_analytics(stats.ibr(), snapshot,
                                                  ingest::plan_labeler(simulation.plan()));
    }
    build_timer.stop();
    obs::StageTimer write_timer(metrics, "serve.snapshot.write_us");
    const auto written = serve::write_snapshot_file(snapshot, opt.snapshot_out);
    write_timer.stop();
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write snapshot: %s\n", written.error().to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%llu bytes, %zu blocks, %zu prefixes)\n",
                 opt.snapshot_out.c_str(), static_cast<unsigned long long>(written.value()),
                 snapshot.blocks.size(), snapshot.prefixes.size());
  }

  if (metrics != nullptr) {
    std::ofstream out(opt.metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.metrics_path.c_str());
      return 1;
    }
    metrics_registry.write_json(out);
    out << '\n';
    std::fprintf(stderr, "wrote %s\n", opt.metrics_path.c_str());
  }

  if (opt.hilbert_octet >= 0 && opt.hilbert_octet <= 255 && !opt.hilbert_path.empty()) {
    const analysis::HilbertMap map(
        static_cast<std::uint8_t>(opt.hilbert_octet), [&](net::Block24 block) {
          return result.dark.contains(block) ? analysis::HilbertPixel::kDark
                                             : analysis::HilbertPixel::kNoData;
        });
    std::ofstream out(opt.hilbert_path, std::ios::binary);
    map.write_pgm(out);
    std::fprintf(stderr, "wrote %s\n", opt.hilbert_path.c_str());
  }
  return 0;
}

/// Export simulated vantage-days as a flow stream (ingest's input).  The
/// target may be a FIFO, in which case the open blocks until an ingest
/// daemon attaches and frames stream as they are generated.
int cmd_stream(const Options& opt) {
  if (opt.stream_out.empty()) {
    std::fprintf(stderr, "stream requires --out FILE\n");
    return 1;
  }
  const sim::Simulation simulation = make_simulation(opt);
  const auto ixps = select_ixps(simulation, opt);

  std::ofstream out(opt.stream_out, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", opt.stream_out.c_str());
    return 1;
  }
  ingest::FlowStreamWriter writer(out);
  writer.write_header({opt.seed, opt.tiny});

  std::uint64_t flows = 0;
  for (int day = 0; day < std::max(1, opt.days); ++day) {
    for (const std::size_t ixp : ixps) {
      const auto data = simulation.run_ixp_day(ixp, day);
      writer.write_dataset(day, simulation.ixps()[ixp].sampling_rate(),
                           simulation.ixps()[ixp].spec().code, data.flows);
      flows += data.flows.size();
    }
    writer.write_day_end(day);
  }
  writer.write_stream_end();
  if (!writer.ok()) {
    std::fprintf(stderr, "write error on %s\n", opt.stream_out.c_str());
    return 1;
  }
  std::fprintf(stderr, "streamed %zu vantage point(s) x %d day(s), %llu flow(s) to %s\n",
               ixps.size(), std::max(1, opt.days), static_cast<unsigned long long>(flows),
               opt.stream_out.c_str());
  return 0;
}

/// The continuous pipeline: consume a flow stream, maintain the sliding
/// window, republish --snapshot-out atomically on cadence.
int cmd_ingest(const Options& opt) {
  if (opt.source_path.empty()) {
    std::fprintf(stderr, "ingest requires --source FILE\n");
    return 1;
  }
  if (opt.snapshot_out.empty()) {
    std::fprintf(stderr, "ingest requires --snapshot-out FILE\n");
    return 1;
  }
  obs::MetricsRegistry metrics_registry;
  obs::MetricsRegistry* metrics = opt.metrics_path.empty() ? nullptr : &metrics_registry;

  ingest::IngestConfig config;
  config.source_path = opt.source_path;
  config.snapshot_out = opt.snapshot_out;
  config.window_days = static_cast<int>(opt.window_days);
  config.cadence_days = static_cast<int>(opt.cadence_days);
  config.threads = std::max(1u, opt.threads);
  config.tolerance = opt.tolerance;
  config.max_epochs = opt.max_epochs;
  config.created_unix_s = static_cast<std::uint64_t>(std::time(nullptr));

  ingest::IngestDaemon daemon(config, metrics);
  daemon.on_publish = [&](std::uint64_t epoch, const serve::TelescopeSnapshot& snapshot) {
    std::fprintf(stderr, "published epoch %llu: %zu block(s), window of %u day(s)\n",
                 static_cast<unsigned long long>(epoch), snapshot.blocks.size(),
                 static_cast<unsigned>(snapshot.meta.days));
  };

  std::fprintf(stderr, "ingesting %s -> %s (window %d day(s), cadence %d, %u thread(s))\n",
               opt.source_path.c_str(), opt.snapshot_out.c_str(), config.window_days,
               config.cadence_days, config.threads);
  const auto finished = daemon.run();
  if (!finished.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", finished.error().to_string().c_str());
    return 1;
  }
  const auto& totals = finished.value();
  std::printf("ingested %llu dataset(s), %llu flow(s), %llu day(s): "
              "%llu epoch(s) published (%llu failure(s)), %llu day(s) evicted\n",
              static_cast<unsigned long long>(totals.datasets),
              static_cast<unsigned long long>(totals.flows),
              static_cast<unsigned long long>(totals.days),
              static_cast<unsigned long long>(totals.publishes),
              static_cast<unsigned long long>(totals.publish_failures),
              static_cast<unsigned long long>(totals.days_evicted));

  if (metrics != nullptr) {
    std::ofstream out(opt.metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.metrics_path.c_str());
      return 1;
    }
    metrics_registry.write_json(out);
    out << '\n';
    std::fprintf(stderr, "wrote %s\n", opt.metrics_path.c_str());
  }
  return 0;
}

int cmd_capture(const Options& opt) {
  if (opt.pcap_path.empty()) {
    std::fprintf(stderr, "capture requires --pcap FILE\n");
    return 1;
  }
  const sim::Simulation simulation = make_simulation(opt);
  const auto& telescopes = simulation.plan().telescopes();
  std::size_t index = telescopes.size();
  for (std::size_t t = 0; t < telescopes.size(); ++t) {
    if (telescopes[t].spec.code == opt.telescope) index = t;
  }
  if (index == telescopes.size()) {
    std::fprintf(stderr, "unknown telescope %s\n", opt.telescope.c_str());
    return 1;
  }
  const auto capture = simulation.run_telescope_day(index, opt.day);

  std::ofstream out(opt.pcap_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", opt.pcap_path.c_str());
    return 1;
  }
  net::PcapWriter writer(out);
  for (const auto& p : capture.packets) {
    writer.write(p.timestamp_us,
                 net::synthesize_packet(p.src, p.dst, p.proto, p.src_port, p.dst_port,
                                        p.tcp_flags, p.ip_length));
  }
  std::printf("captured %llu packets from %s day %d into %s\n",
              static_cast<unsigned long long>(writer.packets_written()),
              opt.telescope.c_str(), opt.day, opt.pcap_path.c_str());
  return 0;
}

int cmd_datasets(const Options& opt) {
  if (opt.out_dir.empty()) {
    std::fprintf(stderr, "datasets requires --out-dir DIR (must exist)\n");
    return 1;
  }
  const sim::Simulation simulation = make_simulation(opt);
  const auto& plan = simulation.plan();

  const auto write = [&](const std::string& name, const auto& saver) {
    const std::string path = opt.out_dir + "/" + name;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return false;
    }
    saver(out);
    std::printf("wrote %s\n", path.c_str());
    return true;
  };

  bool ok = true;
  ok &= write("pfx2as.txt", [&](std::ostream& o) { plan.make_pfx2as().save(o); });
  ok &= write("as2org.txt", [&](std::ostream& o) { plan.make_as2org().save(o); });
  ok &= write("geodb.csv", [&](std::ostream& o) { plan.geodb().save(o); });
  ok &= write("nettypes.csv", [&](std::ostream& o) { plan.nettypes().save(o); });
  return ok ? 0 : 1;
}

int cmd_ports(const Options& opt) {
  const sim::Simulation simulation = make_simulation(opt);
  const auto ixps = pipeline::all_ixps(simulation);
  const int days[] = {0};
  const auto stats = pipeline::collect_stats(simulation, ixps, days);
  const std::uint64_t tolerance =
      pipeline::compute_spoof_tolerance(stats, simulation.plan().unrouted_slash8s());
  const auto registry = routing::SpecialPurposeRegistry::standard();
  pipeline::PipelineConfig config;
  config.volume_scale = simulation.config().volume_scale;
  config.spoof_tolerance_pkts = tolerance;
  const pipeline::InferenceEngine engine(config, simulation.plan().rib(), registry);
  const auto result = engine.infer(stats);

  analysis::PortCounter counter;
  for (const std::size_t i : ixps) {
    for (const auto& flow : simulation.run_ixp_day(i, 0).flows) {
      if (flow.key.proto == net::IpProto::kTcp &&
          result.dark.contains(net::Block24::containing(flow.key.dst))) {
        counter.add(flow.key.dst_port, flow.packets);
      }
    }
  }
  util::TextTable table({"Rank", "Port", "Sampled packets", "Share"});
  const auto top = counter.top(opt.top);
  const std::uint64_t total = counter.total();
  for (std::size_t r = 0; r < top.size(); ++r) {
    table.add_row({"#" + std::to_string(r + 1), std::to_string(top[r].first),
                   util::with_commas(top[r].second),
                   util::percent(static_cast<double>(top[r].second) /
                                 std::max<std::uint64_t>(1, total))});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

/// One verdict line on stdout: "IP CLASS PREFIX ASN" for classified
/// blocks, "IP none" for everything outside the meta-telescope map —
/// rendered by the same serve::format_verdict the TCP server speaks, so
/// the CLI and wire outputs cannot drift apart.
void print_verdict(const net::Ipv4Addr addr,
                   const std::optional<serve::TelescopeIndex::Verdict>& verdict) {
  std::printf("%s\n", serve::format_verdict(addr, verdict).c_str());
}

/// Classify every IP from `in` (one per line; blank lines and #-comments
/// skipped), maintaining the serve.lookup.* counters.
int query_stream(const serve::TelescopeIndex& index, std::istream& in,
                 obs::MetricsRegistry* metrics) {
  std::uint64_t total = 0, dark = 0, unclean = 0, gray = 0, miss = 0, invalid = 0;
  std::string line;
  while (std::getline(in, line)) {
    const auto token = util::trim(line);
    if (token.empty() || token.front() == '#') continue;
    const auto addr = net::Ipv4Addr::parse(token);
    if (!addr.has_value()) {
      std::fprintf(stderr, "bad ip: %s\n", std::string(token).c_str());
      ++invalid;
      continue;
    }
    ++total;
    const auto verdict = index.lookup(*addr);
    if (!verdict.has_value()) {
      ++miss;
    } else if (verdict->cls == serve::BlockClass::kDark) {
      ++dark;
    } else if (verdict->cls == serve::BlockClass::kUnclean) {
      ++unclean;
    } else {
      ++gray;
    }
    print_verdict(*addr, verdict);
  }
  // Verdicts go to buffered stdout, the summary to unbuffered stderr;
  // without this flush a `2>&1` redirection shows the summary *before*
  // the verdicts it summarizes.
  std::fflush(stdout);
  std::fprintf(stderr,
               "queried %llu ip(s): dark=%llu unclean=%llu gray=%llu miss=%llu invalid=%llu\n",
               static_cast<unsigned long long>(total), static_cast<unsigned long long>(dark),
               static_cast<unsigned long long>(unclean), static_cast<unsigned long long>(gray),
               static_cast<unsigned long long>(miss),
               static_cast<unsigned long long>(invalid));
  if (metrics != nullptr) {
    metrics->counter("serve.lookup.total").add(total);
    metrics->counter("serve.lookup.dark").add(dark);
    metrics->counter("serve.lookup.unclean").add(unclean);
    metrics->counter("serve.lookup.gray").add(gray);
    metrics->counter("serve.lookup.miss").add(miss);
    metrics->counter("serve.lookup.invalid").add(invalid);
  }
  return invalid == 0 ? 0 : 1;
}

/// The operated telescope: serve verdicts over TCP until SIGTERM/SIGINT
/// drains us (exit 0).  SIGHUP atomically reloads --snapshot — point the
/// path at the file `infer --snapshot-out` rewrites and the daemon picks
/// up each new run without dropping a query.
int cmd_serve(const Options& opt) {
  if (opt.snapshot_path.empty()) {
    std::fprintf(stderr, "serve requires --snapshot FILE\n");
    return 1;
  }
  if (opt.port < 0) {
    std::fprintf(stderr, "serve requires --port N (0 = kernel-assigned)\n");
    return 1;
  }
  obs::MetricsRegistry metrics_registry;
  obs::MetricsRegistry* metrics = opt.metrics_path.empty() ? nullptr : &metrics_registry;

  serve::ServerConfig config;
  config.snapshot_path = opt.snapshot_path;
  config.port = static_cast<std::uint16_t>(opt.port);
  config.reactors = static_cast<int>(opt.reactors);
  config.max_conns = static_cast<int>(opt.max_conns);
  config.idle_timeout_ms = static_cast<int>(opt.idle_timeout_ms);
  config.watch_interval_ms = static_cast<int>(opt.watch_interval_ms);

  serve::QueryServer server(config, metrics);
  const auto started = server.start();
  if (!started.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n", started.error().to_string().c_str());
    return 1;
  }
  server.install_signal_handlers();

  const auto index = server.manager().current();
  std::fprintf(stderr,
               "serving %s on port %u: %zu block(s), epoch %llu, %u reactor(s) "
               "(SIGHUP reloads, SIGTERM/SIGINT drain)\n",
               opt.snapshot_path.c_str(), server.port(), index->size(),
               static_cast<unsigned long long>(server.manager().epoch()), opt.reactors);

  const int status = server.run();

  const auto stats = server.stats();
  std::fprintf(stderr,
               "drained: %llu connection(s), %llu query(ies) (%llu invalid), "
               "%llu reload(s), %llu timeout(s), %llu drop(s)\n",
               static_cast<unsigned long long>(stats.connections),
               static_cast<unsigned long long>(stats.queries),
               static_cast<unsigned long long>(stats.invalid),
               static_cast<unsigned long long>(stats.reloads),
               static_cast<unsigned long long>(stats.timeouts),
               static_cast<unsigned long long>(stats.drops));

  if (metrics != nullptr) {
    std::ofstream out(opt.metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.metrics_path.c_str());
      return 1;
    }
    metrics_registry.write_json(out);
    out << '\n';
    std::fprintf(stderr, "wrote %s\n", opt.metrics_path.c_str());
  }
  return status;
}

/// Drive a running serve instance through a stepped load sweep and write
/// the latency-vs-throughput curve as JSON — the honest companion to the
/// server's aggregate QPS counters.
int cmd_loadgen(const Options& opt) {
  if (opt.port <= 0) {
    std::fprintf(stderr, "loadgen requires --port N (a running serve instance)\n");
    return 1;
  }
  if (opt.steps.empty()) {
    std::fprintf(stderr, "loadgen requires --steps N,N,... (offered qps per step)\n");
    return 1;
  }
  const auto steps = serve::parse_step_list(opt.steps);
  if (!steps.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", steps.error().to_string().c_str());
    return 1;
  }

  serve::LoadgenConfig config;
  config.host = opt.host;
  config.port = static_cast<std::uint16_t>(opt.port);
  config.mode = opt.load_mode == "closed" ? serve::LoadMode::kClosed : serve::LoadMode::kOpen;
  config.proto = opt.proto == "binary" ? serve::WireProtocol::kBinary
                                       : serve::WireProtocol::kLine;
  config.connections = static_cast<int>(opt.conns);
  config.steps = steps.value();
  config.warmup_ms = static_cast<int>(opt.warmup_ms);
  config.measure_ms = static_cast<int>(opt.measure_ms);
  config.cooldown_ms = static_cast<int>(opt.cooldown_ms);
  config.seed = opt.seed;

  std::fprintf(stderr, "loadgen: %s:%u, %s loop, %s protocol, %u connection(s), %zu step(s)\n",
               config.host.c_str(), config.port, serve::to_string(config.mode),
               serve::to_string(config.proto), opt.conns, config.steps.size());
  const auto results = serve::run_loadgen(config);
  if (!results.ok()) {
    std::fprintf(stderr, "loadgen failed: %s\n", results.error().to_string().c_str());
    return 1;
  }
  for (const auto& step : results.value()) {
    std::fprintf(stderr,
                 "  step %llu: offered %.0f q/s, achieved %.0f q/s, "
                 "p50 %llu us, p99 %llu us, %llu late send(s), %llu error(s)\n",
                 static_cast<unsigned long long>(step.target), step.offered_qps,
                 step.achieved_qps, static_cast<unsigned long long>(step.p50_us),
                 static_cast<unsigned long long>(step.p99_us),
                 static_cast<unsigned long long>(step.late),
                 static_cast<unsigned long long>(step.errors));
  }

  const std::string out_path = opt.stream_out.empty() ? "BENCH_serve_net.json" : opt.stream_out;
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  serve::write_loadgen_json(out, config, results.value());
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return 0;
}

int cmd_query(const Options& opt) {
  if (opt.snapshot_path.empty()) {
    std::fprintf(stderr, "query requires --snapshot FILE\n");
    return 1;
  }
  obs::MetricsRegistry metrics_registry;
  obs::MetricsRegistry* metrics = opt.metrics_path.empty() ? nullptr : &metrics_registry;

  serve::SnapshotManager manager;
  const auto installed = manager.load_and_install(opt.snapshot_path, metrics);
  if (!installed.ok()) {
    std::fprintf(stderr, "cannot load snapshot: %s\n",
                 installed.error().to_string().c_str());
    return 1;
  }
  const auto index = manager.current();
  const auto& meta = index->metadata();
  std::fprintf(stderr,
               "loaded %s: %zu block(s), %zu prefix(es), seed=%llu, "
               "%.1f KiB resident, epoch %llu\n",
               opt.snapshot_path.c_str(), index->size(), index->snapshot().prefixes.size(),
               static_cast<unsigned long long>(meta.seed),
               static_cast<double>(index->memory_bytes()) / 1024.0,
               static_cast<unsigned long long>(installed.value()));

  int status = 0;
  if (!opt.ips_path.empty()) {
    if (opt.ips_path == "-") {
      status = query_stream(*index, std::cin, metrics);
    } else {
      std::ifstream in(opt.ips_path);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", opt.ips_path.c_str());
        return 1;
      }
      status = query_stream(*index, in, metrics);
    }
  }
  if (opt.ips_path.empty()) {
    std::fprintf(stderr, "nothing to do: pass --ips FILE|-\n");
    status = 1;
  }

  if (metrics != nullptr) {
    std::ofstream out(opt.metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", opt.metrics_path.c_str());
      return 1;
    }
    metrics_registry.write_json(out);
    out << '\n';
    std::fprintf(stderr, "wrote %s\n", opt.metrics_path.c_str());
  }
  return status;
}

/// Offline analytics front end: answer one --query line, or print the
/// three summary reports, from a snapshot's ANALYTICS section.  Every
/// reply is rendered by serve::answer_analytics_query — the exact
/// formatter behind the TCP server's analytics verbs.
int cmd_analyze(const Options& opt) {
  if (opt.snapshot_path.empty()) {
    std::fprintf(stderr, "analyze requires --snapshot FILE\n");
    return 1;
  }
  serve::SnapshotManager manager;
  const auto installed = manager.load_and_install(opt.snapshot_path, nullptr);
  if (!installed.ok()) {
    std::fprintf(stderr, "cannot load snapshot: %s\n",
                 installed.error().to_string().c_str());
    return 1;
  }
  const auto index = manager.current();
  const auto& analytics = index->snapshot().analytics;
  if (!analytics.has_value()) {
    std::fprintf(stderr,
                 "%s carries no ANALYTICS section (build it with `infer --analytics` "
                 "or `ingest`)\n",
                 opt.snapshot_path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "loaded %s: %zu block(s), window day %u+%u, %zu cell(s), "
               "%zu outage(s), %zu scanner(s)\n",
               opt.snapshot_path.c_str(), index->size(), analytics->first_day,
               analytics->window_days, analytics->cells.size(),
               analytics->outages.size(), analytics->scanners.size());

  const auto answer = [&](std::string_view line) {
    std::printf("%s\n", serve::answer_analytics_query(*index, line, opt.top).c_str());
  };
  if (!opt.analyze_query.empty()) {
    answer(opt.analyze_query);
  } else {
    answer("top-ports");
    answer("outages");
    answer("scanners");
  }
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string error;
  if (!cli::parse_args(argc, argv, opt, error)) {
    std::fprintf(stderr, "mtscope: %s\n%s", error.c_str(), cli::usage_text());
    return 2;
  }
  if (opt.command == "infer") return cmd_infer(opt);
  if (opt.command == "query") return cmd_query(opt);
  if (opt.command == "serve") return cmd_serve(opt);
  if (opt.command == "loadgen") return cmd_loadgen(opt);
  if (opt.command == "stream") return cmd_stream(opt);
  if (opt.command == "ingest") return cmd_ingest(opt);
  if (opt.command == "analyze") return cmd_analyze(opt);
  if (opt.command == "capture") return cmd_capture(opt);
  if (opt.command == "datasets") return cmd_datasets(opt);
  if (opt.command == "ports") return cmd_ports(opt);
  return 2;  // unreachable: parse_args validated the command
}
