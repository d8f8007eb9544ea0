// lookup_mix: serve only.  A QueryServer holds a static v2 snapshot (with
// the ANALYTICS section) built from the seed; the open-loop client drives
// MTBIN connections (lookups plus a share of count-in range queries) and
// line connections (lookups plus a share of top-ports/outages/scanners).
// The run repeats kRounds rounds of: the nominal open-loop rate, closed-
// loop saturation for capacity, and republishes of prebuilt epochs timed
// from publish to the first served reply.  Spreading each measurement over
// the run keeps a stretch of interference from other tenants from deciding
// it: capacity is the upper quartile of every round's 100 ms reply rates,
// the slowest publish is taken per round and the median round reported,
// and latency is pooled over every round.  ingest, pipeline and analytics
// are idle while anything is timed.
#include <algorithm>
#include <thread>

#include "harness.hpp"
#include "inputs.hpp"
#include "pipeline/collector.hpp"

namespace perfbench {

namespace serve = mtscope::serve;

namespace {

// Offered rates per connection at the nominal point.  Capacity is measured
// closed-loop instead of on an open-loop rate ladder: on a shared 4-vCPU
// host the ladder's knee moved by up to 4x between runs of one seed.
constexpr double kNominalBinRate = 20'000;
constexpr double kNominalLineRate = 10'000;
constexpr std::size_t kSaturationDepth = 64;
constexpr int kRounds = 5;
constexpr int kRepublishesPerRound = 2;
constexpr int kRepublishes = kRounds * kRepublishesPerRound;
// Shares of --seconds, split evenly over the rounds.
constexpr double kNominalShare = 0.5;
constexpr double kSaturateShare = 0.25;

struct Pass {
  PhaseResult nominal;              // every round's nominal phase, pooled
  std::vector<double> saturated;    // every round's 100 ms reply rates
  double capacity = 0;
  std::vector<double> freshness;
  double setup_s = 0;
  double peak_rss = 0;
  double process_cpu = 0;           // during the nominal phases
  std::vector<double> reload_lag_ms;
  std::uint64_t partial_flushes = 0;
};

}  // namespace

RunOutcome run_lookup_mix(const RunConfig& config) {
  RunOutcome outcome;
  // No lookup is timed across a swap here (the republishes run under an
  // untimed probe load).
  outcome.idle_layers = {"sim.", "pipeline.", "ingest.", "analytics.", "serve.snapshot.build_ms",
                         "client.swap_window_p99_us"};
  const auto& host = config.host;
  const unsigned threads = std::max<std::size_t>(1, host.system_cpus.size());

  // Inputs: two single-day maps of the seed (full scale unless smoke).
  note("lookup_mix: building maps");
  const auto simulation = make_simulation(config.smoke, config.seed);
  const auto ixps = mtscope::pipeline::all_ixps(*simulation);
  // Built on this thread (threads = 1 runs the staged collect inline): the
  // heap a collect pool's exited threads leave behind is later handed to
  // the server's threads, and whether the first reload found it made
  // peak_rss_mb read either ~30 or ~60 MB.
  BatchOptions build;
  build.threads = 1;
  build.analytics = true;
  const int day_a[] = {0};
  const int day_b[] = {1};
  const BatchResult map_a = batch_build(*simulation, ixps, day_a, build);
  const BatchResult map_b = batch_build(*simulation, ixps, day_b, build);
  const QuerySet queries =
      make_queries(flow_destinations(*simulation, ixps.front(), 0), map_a.snapshot, config.seed);
  const auto index_a = index_of(map_a.bytes);
  const auto index_b = index_of(map_b.bytes);
  if (!index_a || !index_b) {
    outcome.error("reference map does not parse");
    return outcome;
  }
  const std::string snapshot_path = config.work_dir + "/lookup.snap";

  const int bin_conns = 2;
  const int line_conns = 2;
  const int client_threads = static_cast<int>(std::max<std::size_t>(1, host.client_cpus.size()));
  const double scale = config.smoke ? 0.1 : 1.0;
  const double round_s = config.seconds / kRounds;

  const auto run_pass = [&](bool traced, Tracer& tracer) {
    Pass pass;
    if (!replace_file(snapshot_path, map_a.bytes)) {
      outcome.error("cannot write " + snapshot_path);
      return pass;
    }
    const double rss0 = reset_peak_rss();

    serve::ServerConfig server_config;
    server_config.snapshot_path = snapshot_path;
    server_config.reactors = static_cast<int>(threads);
    ServerHarness server;
    if (!server.start(server_config, host.system_cpus, traced)) {
      outcome.error("server start failed");
      return pass;
    }
    EpochBook book(kRepublishes + 1, queries.verbs);
    book.add(config.wrong_verdict ? corrupted_index(map_a.snapshot) : index_a, false);
    ClientMix mix;
    mix.count_in_share = 0.05;
    mix.verb_share = 0.0005;
    mix.probe_share = 0.5;
    LookupClient client(book, queries, mix, config.seed);
    if (!client.connect(server.port(), bin_conns, line_conns, client_threads, host.client_cpus,
                        &server.server())) {
      outcome.error("client cannot connect");
      server.stop();
      return pass;
    }
    const auto account = [&](const PhaseResult& phase) {
      outcome.attempted += phase.attempted;
      outcome.failed += phase.failed;
      if (phase.wrong > 0) {
        outcome.error(std::to_string(phase.wrong) + " wrong verdict(s); first: " + phase.first_error);
      }
    };

    // Publish prebuilt epochs (alternating maps) under a light probe load.
    const auto republish = [&](int first, int count) {
      std::atomic<bool> stop{false};
      PhaseResult probes;
      std::thread prober([&] { probes = client.run(1e9, 5'000 * scale, 500 * scale, &stop, false); });
      for (int r = first; r < first + count; ++r) {
        const auto& next = r % 2 == 1 ? map_b : map_a;
        const std::size_t epoch = book.add(r % 2 == 1 ? index_b : index_a, true);
        // Let the previous swap settle (old index freed, probes back on the
        // current epoch) so each publish starts from the same state.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        const std::uint64_t before = server.server().manager().epoch();
        {
          const Scope span(tracer, "serve.publish", r);
          book.set_published(epoch);
          replace_file(snapshot_path, next.bytes);
        }
        const std::int64_t closed = now_ns();
        book.set_closed(epoch, closed);
        server.server().request_reload();
        if (traced) {
          while (server.server().manager().epoch() == before && now_ns() - closed < 2'000'000'000) {
            std::this_thread::sleep_for(std::chrono::microseconds(20));
          }
          const std::int64_t installed = now_ns();
          tracer.add("serve.reload", closed, installed, r);
          pass.reload_lag_ms.push_back(static_cast<double>(installed - closed) / 1e6);
        }
        while (book.served_ns(epoch) == 0 && now_ns() - closed < 2'000'000'000) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      stop.store(true, std::memory_order_release);
      prober.join();
      account(probes);
    };

    for (int round = 0; round < kRounds; ++round) {
      // Nominal rate: the latency metrics.
      const double cpu0 = process_cpu_s();
      {
        const Scope span(tracer, "client.nominal", round);
        const PhaseResult nominal = client.run(kNominalShare * round_s, kNominalBinRate * scale,
                                               kNominalLineRate * scale);
        account(nominal);
        pass.nominal.absorb(nominal);
      }
      pass.process_cpu += process_cpu_s() - cpu0;

      // Capacity: every connection keeps kSaturationDepth requests
      // outstanding; the reply rate is what client + server sustain.
      {
        const Scope span(tracer, "client.saturate", round);
        const PhaseResult saturated = client.saturate(kSaturateShare * round_s, kSaturationDepth);
        account(saturated);
        const auto rates = saturated.bucket_rates();
        pass.saturated.insert(pass.saturated.end(), rates.begin(), rates.end());
      }
      republish(1 + round * kRepublishesPerRound, kRepublishesPerRound);
    }
    // Interference from other tenants only ever lowers a bucket's count:
    // the upper quartile over every round's buckets is the capacity.
    pass.capacity = percentile(pass.saturated, 0.75);
    std::uint64_t missed = 0;
    pass.freshness = book.freshness_ms(&missed);
    outcome.attempted += kRepublishes;
    outcome.failed += missed;
    pass.partial_flushes = server.server().stats().partial_flushes;
    client.close();
    server.stop();
    pass.peak_rss = peak_rss_mb() - rss0;

    // Set-up is timed after the measured phase for the same reason: the
    // servers it starts and stops leave their threads' heap behind.
    if (!replace_file(snapshot_path, map_a.bytes)) outcome.error("cannot write " + snapshot_path);
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      setups.push_back(time_server_setup(snapshot_path, queries.addrs.front()));
    }
    if (*std::min_element(setups.begin(), setups.end()) < 0) outcome.error("server set-up failed");
    pass.setup_s = median(setups);

    if (traced) {
      Metrics& layers = outcome.layers;
      calibrate_serve_path(*index_a, queries, tracer, layers);
      client_metrics(pass.nominal, pass.process_cpu, layers);
      server_registry_metrics(server.registry(), pass.partial_flushes, layers);
      layers.set("serve.reload_lag_ms", median(pass.reload_lag_ms), "ms");
      // Publish -> served for the slowest epoch, covered by the spans.
      double worst = -1;
      std::int64_t from = 0;
      std::int64_t to = 0;
      for (std::size_t e = 1; e < book.size(); ++e) {
        const double f = static_cast<double>(book.served_ns(e) - book.closed_ns(e)) / 1e6;
        if (book.served_ns(e) != 0 && f > worst) {
          worst = f;
          from = book.closed_ns(e);
          to = book.served_ns(e);
        }
      }
      if (worst > 0) layers.set("trace.freshness_accounted_pct", 100.0 * tracer.covered_ms(from, to) / worst, "%");
    }
    return pass;
  };

  Tracer untraced(false);
  const Pass plain = run_pass(false, untraced);
  lookup_metrics(plain.nominal, outcome.e2e);
  common_metrics(outcome, plain.freshness, plain.setup_s, plain.capacity, plain.peak_rss);
  // The slowest publish of each round; the median round is reported.
  std::vector<double> round_max;
  for (std::size_t r = 0; r + kRepublishesPerRound <= plain.freshness.size(); r += kRepublishesPerRound) {
    round_max.push_back(*std::max_element(plain.freshness.begin() + static_cast<std::ptrdiff_t>(r),
                                          plain.freshness.begin() + static_cast<std::ptrdiff_t>(r + kRepublishesPerRound)));
  }
  outcome.e2e.set("freshness_max_ms", median(round_max), "ms");
  if (config.trace) {
    Tracer tracer(true);
    const Pass traced = run_pass(true, tracer);
    const double base = PhaseResult::quantile(plain.nominal.bin, 0.5);
    const double with = PhaseResult::quantile(traced.nominal.bin, 0.5);
    outcome.layers.set("trace.overhead_pct", base > 0 ? 100.0 * (with - base) / base : 0.0, "%");
    outcome.layers.set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
    if (!config.trace_out.empty()) tracer.write_json(config.trace_out);
  }

  outcome.context = "\"inputs\": {\"map_flows\": " + std::to_string(map_a.flows) +
                    ", \"snapshot_blocks\": " + std::to_string(map_a.snapshot.blocks.size()) +
                    ", \"snapshot_bytes\": " + std::to_string(map_a.bytes.size()) +
                    ", \"queries\": " + std::to_string(queries.addrs.size()) +
                    ", \"hit_ratio\": " +
                    std::to_string(plain.nominal.lookups == 0
                                       ? 0.0
                                       : static_cast<double>(plain.nominal.hits) /
                                             static_cast<double>(plain.nominal.lookups)) +
                    "}, " +
                    host_json(host, "\"reactors\": " + std::to_string(threads) +
                                        ", \"client_threads\": " + std::to_string(client_threads) +
                                        ", \"bin_conns\": 2, \"line_conns\": 2");
  return outcome;
}

}  // namespace perfbench
