// batch_week: the one-shot infer path.  The staged parallel collect runs
// over every vantage point x 7 days with analytics off, then
// parallel_infer, build_snapshot and serialize — the only production
// caller of FlowBatch/ShardRouter/add_batch_* and the paper-figure path.
// Repetitions alternate between two adjacent weeks, so every repetition is
// a new epoch: it is published to a QueryServer that keeps answering the
// client, and the first reply from the new map stops its freshness clock.
// Each week's bytes must equal the serial reference path's.
#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "harness.hpp"
#include "inputs.hpp"
#include "pipeline/collector.hpp"

namespace perfbench {

namespace serve = mtscope::serve;
namespace pipeline = mtscope::pipeline;

namespace {

constexpr double kBinRate = 20'000;  // per connection, lookups/s (see README)
constexpr double kLineRate = 10'000;
constexpr int kMaxReps = 256;
constexpr int kBatchNice = 10;

struct Pass {
  PhaseResult client;
  std::vector<double> freshness;
  std::vector<double> flows_per_s;
  double setup_s = 0;
  double peak_rss = 0;
  double process_cpu = 0;
  std::vector<double> sim_ms, parse_ms, insert_ms, merge_ms, reload_ms;
  std::uint64_t reps = 0;
};

}  // namespace

RunOutcome run_batch_week(const RunConfig& config) {
  RunOutcome outcome;
  outcome.idle_layers = {"ingest.", "analytics."};
  const auto& host = config.host;
  const int week = config.smoke ? 2 : 7;
  // One system CPU fewer than the collect pool could use is left to the
  // reactor (as on live_week).
  const unsigned threads = std::max<std::size_t>(1, host.system_cpus.size() - 1);

  note("batch_week: serial references for two weeks");
  const auto simulation = make_simulation(true, config.seed);
  const auto ixps = pipeline::all_ixps(*simulation);
  std::vector<int> weeks[2];
  for (int d = 0; d < week; ++d) {
    weeks[0].push_back(d);
    weeks[1].push_back(d + 1);
  }
  const BatchOptions serial;  // threads = 0: collect_stats + InferenceEngine::infer
  BatchResult refs[2] = {batch_build(*simulation, ixps, weeks[0], serial),
                         batch_build(*simulation, ixps, weeks[1], serial)};
  const std::shared_ptr<const serve::TelescopeIndex> ref_index[2] = {index_of(refs[0].bytes),
                                                                     index_of(refs[1].bytes)};
  if (!ref_index[0] || !ref_index[1]) {
    outcome.error("reference map does not parse");
    return outcome;
  }
  const QuerySet queries =
      make_queries(flow_destinations(*simulation, ixps.front(), 0), refs[0].snapshot, config.seed);
  const std::string snapshot_path = config.work_dir + "/batch.snap";

  const auto run_pass = [&](bool traced, Tracer& tracer) {
    Pass pass;
    // Launch -> the batch job's plan is built and the server answers.
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (!replace_file(snapshot_path, refs[1].bytes)) break;
      const std::int64_t t0 = now_ns();
      const auto plan = make_simulation(true, config.seed);
      const double server_s = time_server_setup(snapshot_path, queries.addrs.front());
      if (server_s < 0) outcome.error("server set-up failed");
      setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    pass.setup_s = median(setups);
    const double rss0 = reset_peak_rss();

    serve::ServerConfig server_config;
    server_config.snapshot_path = snapshot_path;
    ServerHarness server;
    if (!server.start(server_config, host.system_cpus, traced)) {
      outcome.error("server start failed");
      return pass;
    }
    EpochBook book(kMaxReps + 1, queries.verbs);
    book.add(ref_index[1], false);
    ClientMix mix;
    mix.count_in_share = 0.05;
    mix.verb_share = 0.0005;
    mix.probe_share = 0.3;
    LookupClient client(book, queries, mix, config.seed);
    if (config.smoke) client.set_warmup(0);
    if (!client.connect(server.port(), 1, 1, 1, host.client_cpus)) {
      outcome.error("client cannot connect");
      server.stop();
      return pass;
    }
    std::atomic<bool> stop{false};
    std::thread client_thread([&] { pass.client = client.run(1e9, kBinRate, kLineRate, &stop); });

    // The recompute runs on its own thread beside the server at a lower
    // priority (its pool threads inherit it), as a batch job next to a
    // latency-sensitive server would; at equal priority the lookup tail
    // measured the scheduler (p90 72 us to 1.6 ms between seeds).
    const double cpu0 = process_cpu_s();
    std::thread batch_thread([&] {
      pin_current_thread(host.system_cpus);
      (void)::setpriority(PRIO_PROCESS, 0, kBatchNice);
      const std::int64_t start = now_ns();
      for (int rep = 0; rep < kMaxReps; ++rep) {
        if (rep >= 3 && now_ns() - start >= static_cast<std::int64_t>(config.seconds * 1e9)) break;
        const int w = rep % 2;
        const std::size_t epoch = book.add(
            rep == 0 && config.wrong_verdict ? corrupted_index(refs[w].snapshot) : ref_index[w], true);
        BatchOptions options;
        options.threads = threads;
        options.tracer = traced ? &tracer : nullptr;
        options.span_id = rep;
        pipeline::CollectProfile profile;
        options.profile = traced ? &profile : nullptr;

        const std::int64_t t0 = now_ns();
        book.set_closed(epoch, t0);
        const BatchResult built = batch_build(*simulation, ixps, weeks[w], options);
        const std::int64_t t1 = now_ns();
        pass.flows_per_s.push_back(static_cast<double>(built.flows) /
                                   (static_cast<double>(t1 - t0) / 1e9));
        if (built.bytes != refs[w].bytes) {
          outcome.error("repetition " + std::to_string(rep) +
                        " is not byte-identical to the serial reference");
        }
        const std::uint64_t before = server.server().manager().epoch();
        std::int64_t published = 0;
        {
          const Scope span(tracer, "serve.publish", rep);
          book.set_published(epoch);
          replace_file(snapshot_path, built.bytes);
          published = now_ns();
        }
        server.server().request_reload();
        while ((book.served_ns(epoch) == 0 || server.server().manager().epoch() == before) &&
               now_ns() - published < 5'000'000'000) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        if (traced) {
          const std::int64_t installed = now_ns();
          tracer.add("serve.reload", published, installed, rep);
          pass.reload_ms.push_back(static_cast<double>(installed - published) / 1e6);
          pass.sim_ms.push_back(profile.sim_ms);
          pass.parse_ms.push_back(profile.parse_ms);
          pass.insert_ms.push_back(profile.insert_ms);
          pass.merge_ms.push_back(profile.merge_ms);
          if (rep == 0) {
            outcome.layers.set("pipeline.store.bytes_per_block",
                               built.store_blocks == 0 ? 0.0
                                                       : static_cast<double>(built.store_bytes) /
                                                             static_cast<double>(built.store_blocks),
                               "B");
            outcome.layers.set("pipeline.store.arena_spills",
                               static_cast<double>(built.arena_spills), "count");
            outcome.layers.set("pipeline.funnel.blocks",
                               static_cast<double>(built.store_blocks), "count");
          }
        }
        pass.reps += 1;
      }
    });
    batch_thread.join();
    pass.process_cpu = process_cpu_s() - cpu0;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true, std::memory_order_release);
    client_thread.join();
    client.close();
    server.stop();
    pass.peak_rss = peak_rss_mb() - rss0;

    outcome.attempted += pass.client.attempted + pass.reps;
    outcome.failed += pass.client.failed;
    if (pass.client.wrong > 0) {
      outcome.error(std::to_string(pass.client.wrong) + " wrong verdict(s); first: " +
                    pass.client.first_error);
    }
    std::uint64_t missed = 0;
    pass.freshness = book.freshness_ms(&missed);
    outcome.failed += missed;

    if (traced) {
      Metrics& layers = outcome.layers;
      // Per repetition (medians), so runs of different lengths compare.
      const auto per_rep = [&](const char* name) { return median(tracer.self_ms_of(name)); };
      layers.set("sim.ms", median(pass.sim_ms), "ms");
      layers.set("pipeline.collect.parse_ms", median(pass.parse_ms), "ms");
      layers.set("pipeline.collect.insert_ms", median(pass.insert_ms), "ms");
      layers.set("pipeline.collect.merge_ms", median(pass.merge_ms), "ms");
      layers.set("pipeline.store.merge_ms", median(pass.merge_ms), "ms");
      layers.set("pipeline.tolerance_ms", per_rep("pipeline.tolerance"), "ms");
      layers.set("pipeline.funnel_ms", per_rep("pipeline.funnel"), "ms");
      layers.set("serve.snapshot.build_ms", per_rep("serve.snapshot.build"), "ms");
      layers.set("serve.reload_lag_ms", median(pass.reload_ms), "ms");
      server_registry_metrics(server.registry(), server.server().stats().partial_flushes, layers);
      client_metrics(pass.client, pass.process_cpu, layers);
      swap_window_metric(pass.client, book, layers);
      double worst = -1;
      std::int64_t from = 0;
      std::int64_t to = 0;
      for (std::size_t e = 1; e < book.size(); ++e) {
        if (book.served_ns(e) == 0) continue;
        const double f = static_cast<double>(book.served_ns(e) - book.closed_ns(e)) / 1e6;
        if (f > worst) {
          worst = f;
          from = book.closed_ns(e);
          to = book.served_ns(e);
        }
      }
      if (worst > 0) {
        layers.set("trace.freshness_accounted_pct", 100.0 * tracer.covered_ms(from, to) / worst, "%");
      }
      calibrate_serve_path(*ref_index[0], queries, tracer, layers);
    }
    return pass;
  };

  Tracer untraced(false);
  const Pass plain = run_pass(false, untraced);
  lookup_metrics(plain.client, outcome.e2e);
  common_metrics(outcome, plain.freshness, plain.setup_s, median(plain.flows_per_s), plain.peak_rss);
  if (config.trace) {
    Tracer tracer(true);
    const Pass traced = run_pass(true, tracer);
    const double base = median(plain.flows_per_s);
    outcome.layers.set("trace.overhead_pct",
                       base > 0 ? 100.0 * (base - median(traced.flows_per_s)) / base : 0.0, "%");
    outcome.layers.set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
    if (!config.trace_out.empty()) tracer.write_json(config.trace_out);
  }

  outcome.context = "\"inputs\": {\"week_flows\": " + std::to_string(refs[0].flows) +
                    ", \"ixps\": " + std::to_string(ixps.size()) +
                    ", \"days\": " + std::to_string(week) +
                    ", \"snapshot_blocks\": " + std::to_string(refs[0].snapshot.blocks.size()) +
                    ", \"snapshot_bytes\": " + std::to_string(refs[0].bytes.size()) +
                    ", \"repetitions\": " + std::to_string(plain.reps) +
                    ", \"queries\": " + std::to_string(queries.addrs.size()) +
                    ", \"hit_ratio\": " +
                    std::to_string(plain.client.lookups == 0
                                       ? 0.0
                                       : static_cast<double>(plain.client.hits) /
                                             static_cast<double>(plain.client.lookups)) +
                    "}, " +
                    host_json(host, "\"reactors\": 1, \"collect_threads\": " + std::to_string(threads) +
                                        ", \"client_threads\": 1, \"bin_conns\": 1, \"line_conns\": 1");
  return outcome;
}

}  // namespace perfbench
