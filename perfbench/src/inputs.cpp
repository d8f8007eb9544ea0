#include "inputs.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>

#include "ingest/daemon.hpp"
#include "pipeline/collector.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/spoof_tolerance.hpp"
#include "routing/special_purpose.hpp"
#include "serve/analytics_format.hpp"
#include "serve/telescope_index.hpp"

namespace perfbench {

namespace sim = mtscope::sim;
namespace pipeline = mtscope::pipeline;
namespace serve = mtscope::serve;
namespace ingest = mtscope::ingest;
namespace net = mtscope::net;

std::unique_ptr<sim::Simulation> make_simulation(bool tiny, std::uint64_t seed) {
  // The same configurations the ingest daemon rebuilds from a stream header.
  if (tiny) return std::make_unique<sim::Simulation>(sim::SimConfig::tiny(seed));
  sim::SimConfig config;
  config.seed = seed;
  return std::make_unique<sim::Simulation>(config);
}

BatchResult batch_build(const sim::Simulation& simulation, std::span<const std::size_t> ixps,
                        std::span<const int> days, const BatchOptions& options) {
  Tracer disabled(false);
  Tracer& tracer = options.tracer != nullptr ? *options.tracer : disabled;
  // The whole build is one span; each stage below is a child of it.
  const Scope whole(tracer, "pipeline.batch", options.span_id, options.span_parent);
  BatchOptions stages = options;
  stages.span_parent = whole.handle();
  pipeline::VantageStats stats;
  {
    const Scope span(tracer, "pipeline.collect", options.span_id, stages.span_parent);
    if (options.threads == 0) {
      stats = pipeline::collect_stats(simulation, ixps, days);
    } else {
      pipeline::CollectOptions collect;
      collect.threads = options.threads;
      collect.shards = options.threads;
      collect.analytics = options.analytics;
      collect.profile = options.profile;
      stats = pipeline::collect_stats(simulation, ixps, days, collect);
    }
  }
  return finish_build(simulation, stats, days, stages);
}

BatchResult finish_build(const sim::Simulation& simulation, const pipeline::VantageStats& stats,
                         std::span<const int> days, const BatchOptions& options) {
  Tracer disabled(false);
  Tracer& tracer = options.tracer != nullptr ? *options.tracer : disabled;
  const std::int64_t id = options.span_id;
  const int parent = options.span_parent;
  BatchResult out;
  out.flows = stats.flows_ingested();
  out.store_blocks = stats.blocks().size();
  out.store_bytes = stats.blocks().memory_bytes();
  out.arena_spills = stats.blocks().arena_spills();

  std::uint64_t tolerance = 0;
  {
    const Scope span(tracer, "pipeline.tolerance", id, parent);
    tolerance = pipeline::compute_spoof_tolerance(stats, simulation.plan().unrouted_slash8s());
  }
  pipeline::PipelineConfig config;
  config.volume_scale = simulation.config().volume_scale;
  config.spoof_tolerance_pkts = tolerance;
  const auto registry = mtscope::routing::SpecialPurposeRegistry::standard();
  const pipeline::InferenceEngine engine(config, simulation.plan().rib(), registry);
  pipeline::InferenceResult result;
  {
    const Scope span(tracer, "pipeline.funnel", id, parent);
    result = options.threads == 0 ? engine.infer(stats)
                                  : pipeline::parallel_infer(engine, stats, options.threads);
  }

  serve::RunMetadata meta;
  const std::vector<int> day_list(days.begin(), days.end());
  if (options.live_header.has_value()) {
    meta = ingest::publish_metadata(*options.live_header, options.window_days, day_list,
                                    stats.flows_ingested(), tolerance, kCreatedUnixS);
  } else {
    meta.seed = simulation.config().seed;
    meta.spoof_tolerance_pkts = tolerance;
    meta.flows_ingested = stats.flows_ingested();
    meta.created_unix_s = kCreatedUnixS;
    meta.days = static_cast<std::uint32_t>(days.size());
    meta.source = "perfbench batch";
  }
  {
    const Scope span(tracer, "serve.snapshot.build", id, parent);
    out.snapshot = serve::build_snapshot(result, simulation.plan().rib(), meta);
  }
  if (options.analytics) {
    const Scope span(tracer, "analytics.build", id, parent);
    out.snapshot.analytics = serve::build_analytics(stats.ibr(), out.snapshot,
                                                    ingest::plan_labeler(simulation.plan()));
  }
  {
    const Scope span(tracer, "serve.snapshot.serialize", id, parent);
    out.bytes = serve::serialize_snapshot(out.snapshot);
  }
  return out;
}

StreamFile write_stream(const sim::Simulation& simulation, const ingest::StreamHeader& header,
                        std::span<const std::size_t> ixps, int days,
                        std::size_t flows_per_dataset, const std::string& path,
                        std::vector<Dataset>& datasets, std::vector<net::Ipv4Addr>& destinations) {
  StreamFile file;
  file.path = path;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ingest::FlowStreamWriter writer(out);
  const auto frame = [&](StreamFile::Kind kind, int day, auto&& write) {
    const auto begin = static_cast<std::uint64_t>(out.tellp());
    write();
    const auto end = static_cast<std::uint64_t>(out.tellp());
    file.frames.push_back({kind, day, begin, end - begin});
  };
  frame(StreamFile::Kind::kHeader, 0, [&] { writer.write_header(header); });
  for (int day = 0; day < days; ++day) {
    for (const std::size_t ixp : ixps) {
      auto data = simulation.run_ixp_day(ixp, day);
      Dataset dataset{day, simulation.ixps()[ixp].sampling_rate(), std::move(data.flows)};
      if (dataset.flows.size() > flows_per_dataset) {
        std::vector<mtscope::flow::FlowRecord> thinned;
        thinned.reserve(flows_per_dataset);
        for (std::size_t i = 0; i < flows_per_dataset; ++i) {
          thinned.push_back(dataset.flows[i * dataset.flows.size() / flows_per_dataset]);
        }
        dataset.flows = std::move(thinned);
      }
      if (destinations.empty()) {
        const std::size_t step = std::max<std::size_t>(1, dataset.flows.size() / 50'000);
        for (std::size_t i = 0; i < dataset.flows.size(); i += step) {
          destinations.push_back(dataset.flows[i].key.dst);
        }
      }
      frame(StreamFile::Kind::kDataset, day, [&] {
        writer.write_dataset(day, dataset.sampling_rate, simulation.ixps()[ixp].spec().code,
                             dataset.flows);
      });
      file.flows += dataset.flows.size();
      datasets.push_back(std::move(dataset));
    }
    frame(StreamFile::Kind::kDayEnd, day, [&] { writer.write_day_end(day); });
  }
  frame(StreamFile::Kind::kEnd, days, [&] { writer.write_stream_end(); });
  out.flush();
  file.bytes = static_cast<std::uint64_t>(out.tellp());
  if (!writer.ok() || !out) file.frames.clear();
  return file;
}

std::vector<net::Ipv4Addr> flow_destinations(const sim::Simulation& simulation, std::size_t ixp,
                                             int day) {
  const auto data = simulation.run_ixp_day(ixp, day);
  std::vector<net::Ipv4Addr> out;
  const std::size_t step = std::max<std::size_t>(1, data.flows.size() / 50'000);
  for (std::size_t i = 0; i < data.flows.size(); i += step) out.push_back(data.flows[i].key.dst);
  return out;
}

QuerySet make_queries(const std::vector<net::Ipv4Addr>& destinations,
                      const serve::TelescopeSnapshot& map, std::uint64_t seed) {
  constexpr std::size_t kAddresses = 65'536;
  constexpr double kUniformShare = 0.2;
  QuerySet queries;
  std::uint64_t state = seed ^ 0x5eedf00dull;
  const auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = 0; i < kAddresses; ++i) {
    const std::uint64_t r = next();
    const bool uniform = destinations.empty() ||
                         static_cast<double>(r >> 11) * 0x1.0p-53 < kUniformShare;
    queries.addrs.emplace_back(uniform ? static_cast<std::uint32_t>(next())
                                       : destinations[next() % destinations.size()].value());
  }
  // Scoped top-ports only: the unscoped form folds every cell of the map
  // (tens of ms on one reactor), which would make it the only thing the
  // line percentiles measure.
  queries.verbs = {"outages", "outages 2", "scanners 5"};
  std::vector<std::string> scoped;
  for (const auto& entry : map.prefixes) {
    if (entry.length >= 16) scoped.push_back("top-ports " + entry.prefix().to_string());
  }
  for (std::size_t i = 0; i < scoped.size() && queries.verbs.size() < 8;
       i += std::max<std::size_t>(1, scoped.size() / 5)) {
    queries.verbs.push_back(scoped[i]);
  }
  return queries;
}

std::shared_ptr<const serve::TelescopeIndex> index_of(const std::vector<std::uint8_t>& bytes) {
  auto parsed = serve::parse_snapshot(bytes);
  if (!parsed.ok()) return nullptr;
  return std::make_shared<const serve::TelescopeIndex>(std::move(parsed).value());
}

std::shared_ptr<const serve::TelescopeIndex> corrupted_index(
    const serve::TelescopeSnapshot& snapshot) {
  serve::TelescopeSnapshot copy = snapshot;
  for (auto& entry : copy.blocks) {
    const auto rotated = static_cast<serve::BlockClass>((static_cast<int>(entry.cls()) + 1) % 3);
    entry = serve::BlockEntry::make(entry.block(), rotated, entry.prefix_id);
  }
  return std::make_shared<const serve::TelescopeIndex>(std::move(copy));
}

bool replace_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return false;
  }
  return std::rename(temp.c_str(), path.c_str()) == 0;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace perfbench
