#include "pipeline/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <utility>

#include "flow/flow_batch.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/shard_router.hpp"
#include "util/thread_pool.hpp"

namespace mtscope::pipeline {

namespace {

struct DatasetTask {
  std::size_t ixp = 0;
  int day = 0;
};

/// Per-worker stage-time accumulators (milliseconds).  One struct per
/// worker, written only by that worker and summed after the join.
struct StageTimes {
  double sim = 0.0;
  double parse = 0.0;
  double insert = 0.0;
};

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ParallelCollector::ParallelCollector(const sim::Simulation& simulation, CollectOptions options)
    : simulation_(simulation), options_(options) {
  options_.threads = std::max(1u, options_.threads);
  options_.shards = std::max(1u, options_.shards);
  if (options_.batch_records == 0) {
    options_.batch_records = static_cast<unsigned>(flow::FlowBatch::kDefaultRecords);
  }
}

VantageStats ParallelCollector::collect(std::span<const std::size_t> ixp_indices,
                                        std::span<const int> days) const {
  obs::MetricsRegistry* metrics = options_.metrics;
  obs::StageTimer total(metrics, "collect.total_us");
  const double wall_start = now_ms();

  // Same dataset order as the serial path (days outer, IXPs inner); the
  // round-robin deal below only matters for load balance, never output.
  std::vector<DatasetTask> tasks;
  tasks.reserve(days.size() * ixp_indices.size());
  for (const int day : days) {
    for (const std::size_t ixp : ixp_indices) tasks.push_back({ixp, day});
  }

  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(options_.threads, std::max<std::size_t>(1, tasks.size())));
  const unsigned shards = options_.shards;
  const unsigned batch_records = options_.batch_records;
  const auto mask = simulation_.plan().universe_mask();

  std::vector<std::vector<VantageStats>> local(workers);
  for (auto& mine : local) {
    mine.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) mine.emplace_back(mask, options_.analytics);
  }

  // One registry per worker: the ingest path records without sharing, and
  // the post-join merge below folds them in worker-index order.
  std::vector<obs::MetricsRegistry> local_metrics(metrics != nullptr ? workers : 0);
  std::vector<StageTimes> stage_times(workers);

  // The staged ingest loop one worker runs over its share of the datasets:
  // simulate/decode the dataset, then per batch parse (SoA decode + shard
  // routing) and insert (one contiguous routed run per shard store).
  const auto worker_body = [&](unsigned w) {
    std::vector<VantageStats>& mine = local[w];
    StageTimes& times = stage_times[w];
    flow::FlowBatch batch;
    ShardRouter router;
    obs::MetricsRegistry* my_metrics = metrics != nullptr ? &local_metrics[w] : nullptr;
    obs::Counter* my_tasks =
        my_metrics != nullptr
            ? &my_metrics->counter("parallel.collect.worker." + std::to_string(w) +
                                   ".tasks")
            : nullptr;
    for (std::size_t t = w; t < tasks.size(); t += workers) {
      obs::StageTimer ingest(my_metrics, "collect.ingest_us");
      double t0 = now_ms();
      const sim::IxpDayData data = simulation_.run_ixp_day(tasks[t].ixp, tasks[t].day);
      times.sim += now_ms() - t0;
      const std::uint32_t rate = simulation_.ixps()[tasks[t].ixp].sampling_rate();
      mine[0].note_day(tasks[t].day);
      const std::span<const flow::FlowRecord> flows(data.flows);
      for (std::size_t first = 0; first < flows.size(); first += batch_records) {
        const std::size_t count = std::min<std::size_t>(batch_records, flows.size() - first);
        t0 = now_ms();
        batch.decode(flows.subspan(first, count), rate);
        router.route(batch, shards);
        const double t1 = now_ms();
        times.parse += t1 - t0;
        for (unsigned s = 0; s < shards; ++s) {
          mine[s].add_batch_rx(batch, router.rx_rows(s));
          mine[s].add_batch_tx(batch, router.tx_rows(s));
          // The rx-routed runs partition the batch, so the analytics tap
          // sees every record exactly once across the shard matrices.
          mine[s].add_analytics_batch(batch, router.rx_rows(s), tasks[t].day);
        }
        times.insert += now_ms() - t1;
      }
      ingest.stop();
      if (my_metrics != nullptr) {
        my_tasks->add();
        record_dataset_metrics(*my_metrics, simulation_, tasks[t].ixp, data);
      }
    }
    // The worker's bulk write ends here: its shard matrices reach the
    // merge as sorted runs.
    for (VantageStats& shard : mine) shard.seal_analytics();
  };

  // threads <= 1 runs the same staged engine inline: no pool, no thread
  // spawn, still batched — the single-worker configuration the CLI default
  // uses and the differential grid pins.
  std::optional<util::ThreadPool> pool;
  if (workers > 1) {
    pool.emplace(workers);
    std::vector<std::future<void>> jobs;
    jobs.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      jobs.push_back(pool->submit([&worker_body, w] { worker_body(w); }));
    }
    for (auto& job : jobs) job.get();
  } else {
    worker_body(0);
  }

  if (metrics != nullptr) {
    for (const obs::MetricsRegistry& lm : local_metrics) metrics->merge(lm);
    metrics->gauge("parallel.collect.workers").max_with(workers);
    metrics->gauge("parallel.collect.shards").max_with(shards);
    // Shard balance: blocks per shard column, summed over workers before
    // the fold collapses them (the skew the modulo deal produced).
    for (unsigned s = 0; s < shards; ++s) {
      std::int64_t blocks = 0;
      for (unsigned w = 0; w < workers; ++w) {
        blocks += static_cast<std::int64_t>(local[w][s].blocks().size());
      }
      metrics->gauge("parallel.collect.shard." + std::to_string(s) + ".blocks")
          .max_with(blocks);
    }
  }

  // Contention-free merge.  Shard columns are disjoint key spaces (all
  // entries for a block live in the same column), so the cross-worker
  // reduction is one independent fold task per shard — no locks, no
  // barrier rounds, no cross-shard traffic.
  obs::StageTimer merge_timer(metrics, "parallel.collect.merge_us");
  const double merge_start = now_ms();
  if (workers > 1) {
    std::vector<std::future<void>> merges;
    merges.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
      merges.push_back(pool->submit([&local, workers, s] {
        for (unsigned w = 1; w < workers; ++w) local[0][s].merge(local[w][s]);
      }));
    }
    for (auto& merge : merges) merge.get();
  }

  // Final fold across shard columns through the shared merge primitive.
  // Disjointness makes the row total exact, so the output store's index is
  // built once at its final size and every merge append is rehash-free.
  std::size_t total_rows = 0;
  for (unsigned s = 0; s < shards; ++s) total_rows += local[0][s].blocks().size();
  std::vector<const VantageStats*> rest;
  rest.reserve(shards - 1);
  for (unsigned s = 1; s < shards; ++s) rest.push_back(&local[0][s]);
  VantageStats out = merge_stats(std::move(local[0][0]), rest, total_rows);
  merge_timer.stop();
  const double merge_ms = now_ms() - merge_start;

  if (metrics != nullptr) {
    // Longest sequential merge chain: W-1 folds within a shard column,
    // then S-1 folds across columns.
    metrics->gauge("parallel.collect.merge.depth")
        .max_with(static_cast<std::int64_t>(workers - 1) +
                  static_cast<std::int64_t>(shards - 1));
    record_store_metrics(*metrics, out);
    if (options_.analytics) {
      metrics->gauge("analytics.matrix.rx_cells")
          .max_with(static_cast<std::int64_t>(out.ibr().rx_cell_count()));
      metrics->gauge("analytics.matrix.sources")
          .max_with(static_cast<std::int64_t>(out.ibr().src_touch_count()));
      metrics->gauge("analytics.matrix.memory_bytes")
          .max_with(static_cast<std::int64_t>(out.ibr().memory_bytes()));
    }
  }
  if (options_.profile != nullptr) {
    CollectProfile& profile = *options_.profile;
    for (const StageTimes& times : stage_times) {
      profile.sim_ms += times.sim;
      profile.parse_ms += times.parse;
      profile.insert_ms += times.insert;
    }
    profile.merge_ms += merge_ms;
    profile.total_ms += now_ms() - wall_start;
  }
  return out;
}

InferenceResult parallel_infer(const InferenceEngine& engine, const VantageStats& stats,
                               unsigned threads, obs::MetricsRegistry* metrics) {
  if (threads <= 1 || stats.blocks().size() < 2) return engine.infer(stats, metrics);

  obs::StageTimer total(metrics, "infer.total_us");

  // The store is dense: rows are contiguous indices, so range partitioning
  // needs no pointer snapshot of the table.
  const BlockStatsStore& store = stats.blocks();
  const std::size_t rows = store.size();

  const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(threads, rows));
  const std::size_t chunk = (rows + workers - 1) / workers;
  const double volume_cap = engine.volume_cap_for(stats);

  std::vector<InferenceResult> partial(workers);
  std::vector<obs::MetricsRegistry> local_metrics(metrics != nullptr ? workers : 0);
  std::vector<StepDurations> local_durations(metrics != nullptr ? workers : 0);
  {
    util::ThreadPool pool(workers);
    std::vector<std::future<void>> jobs;
    jobs.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      jobs.push_back(pool.submit([&, w] {
        const std::size_t first = w * chunk;
        const std::size_t last = std::min(rows, first + chunk);
        if (metrics == nullptr) {
          for (std::size_t i = first; i < last; ++i) {
            engine.classify_block(store.row(i), volume_cap, partial[w]);
          }
          return;
        }
        obs::MetricsRegistry& my_metrics = local_metrics[w];
        obs::StageTimer range(&my_metrics, "parallel.infer.range_us");
        for (std::size_t i = first; i < last; ++i) {
          engine.classify_block_timed(store.row(i), volume_cap, partial[w],
                                      local_durations[w]);
        }
        range.stop();
        my_metrics.counter("parallel.infer.worker." + std::to_string(w) + ".blocks")
            .add(last - first);
      }));
    }
    for (auto& job : jobs) job.get();
  }

  InferenceResult out = std::move(partial[0]);
  for (unsigned w = 1; w < workers; ++w) out.merge(partial[w]);

  if (metrics != nullptr) {
    for (const obs::MetricsRegistry& lm : local_metrics) metrics->merge(lm);
    metrics->gauge("parallel.infer.workers").max_with(workers);
    StepDurations durations;
    for (const StepDurations& d : local_durations) durations.merge(d);
    durations.record(*metrics);
    // Recorded from the merged result, exactly like the serial path — the
    // snapshot can never disagree with the returned FunnelCounts.
    record_inference_metrics(out, *metrics);
  }
  return out;
}

}  // namespace mtscope::pipeline
