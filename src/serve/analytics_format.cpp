#include "serve/analytics_format.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "analytics/scanner.hpp"
#include "serve/server.hpp"
#include "trie/block24_set.hpp"
#include "util/strings.hpp"

namespace mtscope::serve {

namespace {

/// Ports kept per published block in the ANALYTICS section — enough for
/// the "what is this block attracting" question without persisting the
/// whole matrix row.
constexpr std::size_t kTopPortsPerBlock = 8;

/// Same echo cap as the server's invalid-IPv4 reply.
constexpr std::size_t kEchoBytes = 64;

std::string invalid_reply(std::string_view token) {
  std::string out;
  append_sanitized_echo(out, token, kEchoBytes);
  out += " invalid";
  return out;
}

/// Aggregate kept port cells over a sorted block-index scope (nullptr
/// scope = every published block) and append "<port>:<pkts>" entries,
/// volume descending, port ascending on ties.
void append_port_ranking(std::string& reply, const AnalyticsData& a,
                         const std::vector<std::uint32_t>* scope, std::size_t top) {
  std::map<std::uint16_t, std::uint64_t> sums;
  if (scope == nullptr) {
    for (const PortCell& c : a.cells) sums[c.port] += c.packets;
  } else {
    // Both sides ascend by block index; cells additionally by port.
    std::size_t si = 0;
    for (const PortCell& c : a.cells) {
      while (si < scope->size() && (*scope)[si] < c.block) ++si;
      if (si == scope->size()) break;
      if ((*scope)[si] == c.block) sums[c.port] += c.packets;
    }
  }
  std::vector<std::pair<std::uint16_t, std::uint64_t>> ranked(sums.begin(), sums.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return x.second != y.second ? x.second > y.second : x.first < y.first;
  });
  if (ranked.size() > top) ranked.resize(top);
  for (const auto& [port, packets] : ranked) {
    reply += ' ';
    reply += std::to_string(port);
    reply += ':';
    reply += std::to_string(packets);
  }
}

std::string answer_top_ports(const TelescopeIndex& index, const AnalyticsData& a,
                             std::span<const std::string_view> args, std::string_view echo,
                             std::size_t top) {
  const TelescopeSnapshot& snapshot = index.snapshot();
  if (args.empty()) {
    std::string reply = "top-ports map blocks=";
    reply += std::to_string(snapshot.blocks.size());
    append_port_ranking(reply, a, nullptr, top);
    return reply;
  }
  if (args.size() > 1) return invalid_reply(echo);

  const std::string_view target = args[0];
  std::vector<std::uint32_t> scope;
  if (target.find('/') != std::string_view::npos) {
    const auto prefix = net::Prefix::parse(target);
    if (!prefix.has_value()) return invalid_reply(echo);
    index.for_each_in(*prefix,
                      [&scope](net::Block24 block, BlockClass) { scope.push_back(block.index()); });
  } else if (!target.empty() && (target[0] >= '0' && target[0] <= '9')) {
    const auto asn = util::parse_uint<std::uint32_t>(target);
    if (!asn.has_value()) return invalid_reply(echo);
    for (const BlockEntry& b : snapshot.blocks) {
      if (b.prefix_id != BlockEntry::kNoPrefix &&
          snapshot.prefixes[b.prefix_id].origin_asn == *asn) {
        scope.push_back(b.block_index());
      }
    }
  } else if (target.size() == 2) {
    const std::string cc = util::to_lower(target);
    for (std::size_t i = 0; i < snapshot.blocks.size(); ++i) {
      const BlockLabel& l = a.labels[i];
      if (util::to_lower(std::string_view(l.country, 2)) == cc) {
        scope.push_back(snapshot.blocks[i].block_index());
      }
    }
  } else {
    return invalid_reply(echo);
  }

  std::string reply = "top-ports ";
  reply.append(target.begin(), target.end());
  reply += " blocks=";
  reply += std::to_string(scope.size());
  append_port_ranking(reply, a, &scope, top);
  return reply;
}

std::string answer_outages(const TelescopeSnapshot& snapshot, const AnalyticsData& a,
                           std::span<const std::string_view> args, std::string_view echo) {
  std::uint32_t since = 0;
  if (args.size() > 1) return invalid_reply(echo);
  if (args.size() == 1) {
    const auto parsed = util::parse_uint<std::uint32_t>(args[0]);
    if (!parsed.has_value()) return invalid_reply(echo);
    since = *parsed;
  }
  std::vector<const analytics::OutageEvent*> matched;
  for (const analytics::OutageEvent& o : a.outages) {
    if (o.end_day >= since) matched.push_back(&o);
  }
  std::string reply = "outages n=";
  reply += std::to_string(matched.size());
  for (const analytics::OutageEvent* o : matched) {
    reply += ' ';
    reply += snapshot.prefixes[o->prefix_id].prefix().to_string();
    reply += ":d";
    reply += std::to_string(o->start_day);
    reply += "-d";
    reply += std::to_string(o->end_day);
    reply += ":-";
    reply += std::to_string(o->severity_pct);
    reply += '%';
  }
  return reply;
}

std::string answer_scanners(const AnalyticsData& a, std::span<const std::string_view> args,
                            std::string_view echo, std::size_t top) {
  std::size_t count = top;
  if (args.size() > 1) return invalid_reply(echo);
  if (args.size() == 1) {
    const auto parsed = util::parse_uint<std::size_t>(args[0]);
    if (!parsed.has_value() || *parsed == 0) return invalid_reply(echo);
    count = *parsed;
  }
  count = std::min(count, a.scanners.size());
  std::string reply = "scanners n=";
  reply += std::to_string(count);
  for (std::size_t i = 0; i < count; ++i) {
    const analytics::ScannerProfile& s = a.scanners[i];
    reply += ' ';
    reply += net::Block24(s.src_block).to_string();
    reply += ":pkts=";
    reply += std::to_string(s.est_packets);
    reply += ":blocks=";
    reply += std::to_string(s.blocks_touched);
    reply += ":ports=";
    reply += std::to_string(s.ports_touched);
  }
  return reply;
}

}  // namespace

AnalyticsData build_analytics(const analytics::IbrMatrix& matrix,
                              const TelescopeSnapshot& snapshot, const BlockLabeler& labeler,
                              const analytics::OutageConfig& config) {
  AnalyticsData out;
  if (!matrix.empty()) {
    out.first_day = static_cast<std::uint32_t>(matrix.first_day());
    out.window_days =
        static_cast<std::uint32_t>(matrix.last_day() - matrix.first_day() + 1);
  }
  out.labels.reserve(snapshot.blocks.size());
  for (const BlockEntry& b : snapshot.blocks) out.labels.push_back(labeler(b.block()));

  const std::vector<analytics::IbrMatrix::RxCell> cells = matrix.rx_cells();
  // (prefix_id, day) packet sums over dark-class blocks: the ordered map
  // doubles as the sorted series export.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> dark_series;
  std::vector<analytics::LabeledPortCount> labeled;

  // Two-pointer intersect: cells and published blocks both ascend by
  // block index — this is where the meta-telescope filter happens.
  std::size_t bi = 0;
  std::size_t ci = 0;
  while (ci < cells.size() && bi < snapshot.blocks.size()) {
    const std::uint32_t block = cells[ci].block;
    if (snapshot.blocks[bi].block_index() < block) {
      ++bi;
      continue;
    }
    std::size_t end = ci;
    while (end < cells.size() && cells[end].block == block) ++end;
    if (snapshot.blocks[bi].block_index() != block) {
      ci = end;
      continue;
    }

    const BlockEntry& entry = snapshot.blocks[bi];
    const BlockLabel& label = out.labels[bi];
    const bool dark =
        entry.cls() == BlockClass::kDark && entry.prefix_id != BlockEntry::kNoPrefix;

    // Per-port window sums; the run is sorted by (port, day), so ports
    // arrive grouped.
    std::vector<std::pair<std::uint16_t, std::uint64_t>> ports;
    for (std::size_t i = ci; i < end; ++i) {
      if (ports.empty() || ports.back().first != cells[i].port) {
        ports.emplace_back(cells[i].port, 0);
      }
      ports.back().second += cells[i].packets;
      if (dark && cells[i].packets > 0) {
        dark_series[{entry.prefix_id, std::uint32_t{cells[i].day}}] += cells[i].packets;
      }
    }
    for (const auto& [port, packets] : ports) {
      labeled.push_back({label.continent, label.net_type, port, packets});
    }
    std::vector<std::pair<std::uint16_t, std::uint64_t>> best = ports;
    std::sort(best.begin(), best.end(), [](const auto& x, const auto& y) {
      return x.second != y.second ? x.second > y.second : x.first < y.first;
    });
    if (best.size() > kTopPortsPerBlock) best.resize(kTopPortsPerBlock);
    std::sort(best.begin(), best.end());
    for (const auto& [port, packets] : best) out.cells.push_back({block, port, packets});

    ci = end;
    ++bi;
  }

  out.series.reserve(dark_series.size());
  for (const auto& [key, packets] : dark_series) {
    out.series.push_back({key.first, key.second, packets});
  }

  // Dense per-prefix reconstruction: a silent day inside the window is a
  // zero bin — exactly the signal the detector exists to catch.
  std::vector<analytics::PrefixDaySeries> dense;
  for (const SeriesPoint& p : out.series) {
    if (dense.empty() || dense.back().prefix_id != p.prefix_id) {
      dense.push_back({p.prefix_id, std::vector<std::uint64_t>(out.window_days, 0)});
    }
    dense.back().packets[p.day - out.first_day] += p.packets;
  }
  out.outages = analytics::detect_outages(dense, out.first_day, config);

  out.services = analytics::top_services(labeled);

  trie::Block24Set map;
  for (const BlockEntry& b : snapshot.blocks) map.insert(b.block());
  out.scanners = analytics::top_scanners(matrix, map);
  return out;
}

bool is_analytics_verb(std::string_view line) {
  const auto tokens = util::split_ws(line);
  if (tokens.empty()) return false;
  return tokens[0] == "top-ports" || tokens[0] == "outages" || tokens[0] == "scanners";
}

std::string answer_analytics_query(const TelescopeIndex& index, std::string_view line,
                                   std::size_t top) {
  const std::string_view echo = util::trim(line);
  const auto tokens = util::split_ws(echo);
  if (tokens.empty()) return invalid_reply(echo);
  const std::string_view verb = tokens[0];
  const std::span<const std::string_view> args(tokens.data() + 1, tokens.size() - 1);

  const auto& analytics = index.snapshot().analytics;
  if (!analytics.has_value()) {
    std::string reply(verb);
    reply += " unavailable";
    return reply;
  }
  if (verb == "top-ports") return answer_top_ports(index, *analytics, args, echo, top);
  if (verb == "outages") return answer_outages(index.snapshot(), *analytics, args, echo);
  if (verb == "scanners") return answer_scanners(*analytics, args, echo, top);
  return invalid_reply(echo);
}

}  // namespace mtscope::serve
