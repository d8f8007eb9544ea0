// Scanner/IoT insight over the IBR matrix (Merit-telescope-style):
//
//   top_services — the most scanned destination ports per (continent,
//     network-type) group, the paper's Figure 11/12 regional-skew view.
//     Counting rides telemetry::SpaceSaving (256 monitors per group) so
//     the per-group state stays bounded no matter how many distinct ports
//     the radiation touches.  The rankings are Space-Saving estimates, not
//     exact counts: a full 7-day window can hold over 15k distinct ports
//     in one group.  What the sketch guarantees is that every port
//     carrying more than 1/256 of its group's packets is monitored, with
//     a count that overestimates by at most its recorded error bound.
//
//   top_scanners — per-source fan-out profiles: for each source /24,
//     how many map blocks it touched (block coverage), how many distinct
//     destination ports it probed (port breadth), and its total estimated
//     packet volume into the map.  Sources are ranked by that volume;
//     wide coverage + narrow ports reads as a scanning campaign, narrow
//     coverage + wide ports as a targeted probe.
//
// Both are pure functions of deterministic sorted matrix exports, so the
// published rankings are identical across thread/shard configurations and
// between the live ingest path and a batch build.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analytics/ibr_matrix.hpp"
#include "trie/block24_set.hpp"

namespace mtscope::analytics {

/// One (block, port) aggregate labeled with the block's geography and
/// network type — the join of a matrix rx cell with the published map.
struct LabeledPortCount {
  std::uint8_t continent = 0;  // geo::Continent ordinal
  std::uint8_t net_type = 0;   // geo::NetType ordinal
  std::uint16_t port = 0;
  std::uint64_t packets = 0;
};

/// One ranked service entry for a (continent, net_type) group.
struct ServicePortStat {
  std::uint8_t continent = 0;
  std::uint8_t net_type = 0;
  std::uint16_t port = 0;
  std::uint32_t rank = 0;  // 0 = most scanned within the group
  std::uint64_t packets = 0;

  bool operator==(const ServicePortStat&) const = default;
};

/// Top `per_group` scanned ports per (continent, net_type) group present
/// in `cells`.  Output is sorted by (continent, net_type, rank); input
/// order must be deterministic (pass cells grouped or sorted).
[[nodiscard]] std::vector<ServicePortStat> top_services(std::span<const LabeledPortCount> cells,
                                                        std::size_t per_group = 8);

/// One source /24's fan-out profile.
struct ScannerProfile {
  std::uint32_t src_block = 0;
  std::uint32_t blocks_touched = 0;  // distinct map /24s reached
  std::uint32_t ports_touched = 0;   // distinct destination ports probed
  std::uint64_t est_packets = 0;     // estimated packets into the map

  bool operator==(const ScannerProfile&) const = default;
};

/// Rank sources by estimated packets into the map (descending, ties by
/// source block ascending), keeping the top `limit`.  `map` holds the
/// published blocks and filters the destinations; port breadth is a
/// property of the source across all its observed traffic (a scanner's
/// port set does not depend on which of its targets the map kept).
[[nodiscard]] std::vector<ScannerProfile> top_scanners(const IbrMatrix& matrix,
                                                       const trie::Block24Set& map,
                                                       std::size_t limit = 64);

}  // namespace mtscope::analytics
