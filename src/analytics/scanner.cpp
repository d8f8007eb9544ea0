#include "analytics/scanner.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "telemetry/topk.hpp"

namespace mtscope::analytics {

std::vector<ServicePortStat> top_services(std::span<const LabeledPortCount> cells,
                                          std::size_t per_group) {
  // One Space-Saving monitor per (continent, net_type) group, created
  // lazily; std::map keeps group iteration deterministic.
  std::map<std::pair<std::uint8_t, std::uint8_t>, telemetry::SpaceSaving<std::uint16_t>>
      groups;
  constexpr std::size_t kMonitorCapacity = 256;
  for (const LabeledPortCount& cell : cells) {
    const auto key = std::make_pair(cell.continent, cell.net_type);
    auto it = groups.find(key);
    if (it == groups.end()) {
      it = groups.emplace(key, telemetry::SpaceSaving<std::uint16_t>(kMonitorCapacity)).first;
    }
    it->second.add(cell.port, cell.packets);
  }

  std::vector<ServicePortStat> out;
  for (const auto& [key, sketch] : groups) {
    const auto top = sketch.top(per_group);
    for (std::size_t rank = 0; rank < top.size(); ++rank) {
      if (top[rank].count == 0) continue;
      out.push_back({key.first, key.second, top[rank].key,
                     static_cast<std::uint32_t>(rank), top[rank].count});
    }
  }
  return out;
}

std::vector<ScannerProfile> top_scanners(const IbrMatrix& matrix, const trie::Block24Set& map,
                                         std::size_t limit) {
  // src_touches is sorted by (src, dst), so each source's run is
  // contiguous: fold coverage and volume in one pass.
  std::vector<ScannerProfile> profiles;
  for (const IbrMatrix::SrcTouch& touch : matrix.src_touches()) {
    if (!map.contains(net::Block24(touch.dst_block))) continue;
    if (profiles.empty() || profiles.back().src_block != touch.src_block) {
      profiles.push_back({touch.src_block, 0, 0, 0});
    }
    profiles.back().blocks_touched += 1;
    profiles.back().est_packets += touch.packets;
  }

  // Port breadth: src_ports is sorted by (src, port); count each source's
  // distinct ports with a parallel sorted walk.
  const auto ports = matrix.src_ports();
  std::size_t p = 0;
  for (ScannerProfile& profile : profiles) {
    while (p < ports.size() && ports[p].src_block < profile.src_block) ++p;
    while (p < ports.size() && ports[p].src_block == profile.src_block) {
      profile.ports_touched += 1;
      ++p;
    }
  }

  std::sort(profiles.begin(), profiles.end(),
            [](const ScannerProfile& a, const ScannerProfile& b) {
              if (a.est_packets != b.est_packets) return a.est_packets > b.est_packets;
              return a.src_block < b.src_block;
            });
  if (profiles.size() > limit) profiles.resize(limit);
  return profiles;
}

}  // namespace mtscope::analytics
