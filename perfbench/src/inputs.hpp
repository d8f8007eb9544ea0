// Input generation and the batch build every workload shares.  All of it
// runs through the shipped public functions (Simulation, FlowStreamWriter,
// collect_stats, parallel_infer, build_snapshot, build_analytics), and
// none of it inside a timed region except where a workload times the
// batch build itself.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "client.hpp"
#include "ingest/flow_stream.hpp"
#include "pipeline/parallel.hpp"
#include "serve/snapshot.hpp"
#include "sim/simulation.hpp"
#include "trace.hpp"

namespace perfbench {

/// Every snapshot the benchmark builds is stamped with this creation time,
/// so published bytes are a pure function of the seed.
inline constexpr std::uint64_t kCreatedUnixS = 1'700'000'000;

[[nodiscard]] std::unique_ptr<mtscope::sim::Simulation> make_simulation(bool tiny,
                                                                        std::uint64_t seed);

struct BatchOptions {
  /// Collect worker threads; 0 selects the serial reference path
  /// (collect_stats without options, InferenceEngine::infer).
  unsigned threads = 0;
  bool analytics = false;
  /// Stamp metadata the way the ingest daemon does for this stream.
  std::optional<mtscope::ingest::StreamHeader> live_header;
  int window_days = 7;
  /// Traced runs: spans around each stage (children of `span_parent`),
  /// and the collect profile.
  Tracer* tracer = nullptr;
  std::int64_t span_id = 0;
  int span_parent = -1;
  mtscope::pipeline::CollectProfile* profile = nullptr;
};

struct BatchResult {
  mtscope::serve::TelescopeSnapshot snapshot;
  std::vector<std::uint8_t> bytes;
  std::uint64_t flows = 0;
  std::uint64_t store_blocks = 0;
  std::uint64_t store_bytes = 0;
  std::uint64_t arena_spills = 0;
};

/// collect -> tolerance -> infer -> build_snapshot [-> build_analytics]
/// -> serialize over the given vantage points and days.
[[nodiscard]] BatchResult batch_build(const mtscope::sim::Simulation& simulation,
                                      std::span<const std::size_t> ixps,
                                      std::span<const int> days, const BatchOptions& options);

/// tolerance -> infer -> build_snapshot [-> build_analytics] -> serialize
/// over stats already collected for `days`.
[[nodiscard]] BatchResult finish_build(const mtscope::sim::Simulation& simulation,
                                       const mtscope::pipeline::VantageStats& stats,
                                       std::span<const int> days, const BatchOptions& options);

/// A materialised MTFLOW stream on disk plus its frame index, so the
/// producer can hand frames to the FIFO one at a time and stamp day ends.
struct StreamFile {
  enum class Kind : std::uint8_t { kHeader, kDataset, kDayEnd, kEnd };
  struct Frame {
    Kind kind = Kind::kHeader;
    int day = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };
  std::string path;
  std::vector<Frame> frames;
  std::uint64_t flows = 0;
  std::uint64_t bytes = 0;
};

/// One vantage-day as written to the stream.
struct Dataset {
  int day = 0;
  std::uint32_t sampling_rate = 1;
  std::vector<mtscope::flow::FlowRecord> flows;
};

/// Write days [0, days) of `ixps` as an MTFLOW stream.  A dataset larger
/// than `flows_per_dataset` is thinned to exactly that many flows by an
/// even stride over the day, so every seed streams the same volume.
/// `datasets` receives what was written, `destinations` a sample of flow
/// destination addresses.
[[nodiscard]] StreamFile write_stream(const mtscope::sim::Simulation& simulation,
                                      const mtscope::ingest::StreamHeader& header,
                                      std::span<const std::size_t> ixps, int days,
                                      std::size_t flows_per_dataset, const std::string& path,
                                      std::vector<Dataset>& datasets,
                                      std::vector<mtscope::net::Ipv4Addr>& destinations);

/// A sample of flow destinations from one vantage-day.
[[nodiscard]] std::vector<mtscope::net::Ipv4Addr> flow_destinations(
    const mtscope::sim::Simulation& simulation, std::size_t ixp, int day);

/// Lookup addresses (destinations plus a uniform share over all of IPv4)
/// and analytics verb lines scoped to the map's own prefixes.
[[nodiscard]] QuerySet make_queries(const std::vector<mtscope::net::Ipv4Addr>& destinations,
                                    const mtscope::serve::TelescopeSnapshot& map,
                                    std::uint64_t seed);

/// Parse + index serialized bytes (the reference a client verifies with).
[[nodiscard]] std::shared_ptr<const mtscope::serve::TelescopeIndex> index_of(
    const std::vector<std::uint8_t>& bytes);

/// The same map with every block's class rotated: a reference that must
/// make the verifier fail (the benchmark's own negative test).
[[nodiscard]] std::shared_ptr<const mtscope::serve::TelescopeIndex> corrupted_index(
    const mtscope::serve::TelescopeSnapshot& snapshot);

/// write-temp + rename, so a watching server never sees a torn file.
bool replace_file(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Whole-file read; empty on failure.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace perfbench
