#include "pipeline/vantage_stats.hpp"

namespace mtscope::pipeline {

IpRxStats& BlockObservation::rx_ip(std::uint8_t host) {
  // rx_ips is kept sorted by host, so lookup is a binary search and merge
  // below stays linear (the old linear probe made dense-block merges
  // quadratic).
  const auto it = std::lower_bound(
      rx_ips.begin(), rx_ips.end(), host,
      [](const IpRxStats& ip, std::uint8_t h) { return ip.host < h; });
  if (it != rx_ips.end() && it->host == host) return *it;
  return *rx_ips.insert(it, IpRxStats{host, 0, 0, 0});
}

void BlockObservation::merge(const BlockObservation& other) {
  // Linear two-run union over the sorted rx_ips.
  std::vector<IpRxStats> merged;
  merged.reserve(rx_ips.size() + other.rx_ips.size());
  auto mine = rx_ips.begin();
  auto theirs = other.rx_ips.begin();
  while (mine != rx_ips.end() && theirs != other.rx_ips.end()) {
    if (mine->host < theirs->host) {
      merged.push_back(*mine++);
    } else if (mine->host > theirs->host) {
      merged.push_back(*theirs++);
    } else {
      IpRxStats combined = *mine++;
      combined.packets += theirs->packets;
      combined.tcp_packets += theirs->tcp_packets;
      combined.tcp_bytes += theirs->tcp_bytes;
      ++theirs;
      merged.push_back(combined);
    }
  }
  merged.insert(merged.end(), mine, rx_ips.end());
  merged.insert(merged.end(), theirs, other.rx_ips.end());
  rx_ips = std::move(merged);

  rx_packets += other.rx_packets;
  rx_tcp_packets += other.rx_tcp_packets;
  rx_tcp_bytes += other.rx_tcp_bytes;
  rx_est_packets += other.rx_est_packets;
  tx_packets += other.tx_packets;
  for (int w = 0; w < 4; ++w) tx_host_bits[w] |= other.tx_host_bits[w];
}

void VantageStats::note_day(int day) { days_.insert(day); }

void VantageStats::add_flow_rx(const flow::FlowRecord& r, std::uint32_t sampling_rate) {
  ++flows_;
  store_.add_rx(net::Block24::containing(r.key.dst),
                static_cast<std::uint8_t>(r.key.dst.value() & 0xff), r.packets,
                r.packets * sampling_rate, r.key.proto == net::IpProto::kTcp, r.bytes);
}

void VantageStats::add_flow_tx(const flow::FlowRecord& r) {
  const net::Block24 src_block = net::Block24::containing(r.key.src);
  if (source_mask_ == nullptr || source_mask_->contains(src_block)) {
    store_.add_tx(src_block, static_cast<std::uint8_t>(r.key.src.value() & 0xff),
                  r.packets);
  }
}

void VantageStats::add_flows(std::span<const flow::FlowRecord> flows,
                             std::uint32_t sampling_rate, int day) {
  note_day(day);
  for (const flow::FlowRecord& r : flows) {
    add_flow_rx(r, sampling_rate);
    add_flow_tx(r);
  }
  if (ibr_.enabled()) {
    // Per-record analytics tap — the serial twin of add_analytics_batch
    // (same values per record, commutative sums, so both paths fold to
    // bit-identical matrices).  One dataset is one bulk write: seal it.
    for (const flow::FlowRecord& r : flows) {
      ibr_.add_flow(net::Block24::containing(r.key.src).index(),
                    net::Block24::containing(r.key.dst).index(), r.key.dst_port, day,
                    r.packets * sampling_rate);
    }
    ibr_.seal();
  }
}

void VantageStats::add_batch_rx(const flow::FlowBatch& batch,
                                std::span<const std::uint32_t> rows) {
  flows_ += rows.size();
  // Upper bound on new rows this run can create; reserving here means the
  // insert loop below never rehashes mid-run (batch statistics size the
  // store, per the shard-affinity design in DESIGN.md §14).
  store_.reserve_rows(store_.size() + rows.size());
  store_.add_rx_rows(rows, batch.dst_block(), batch.dst_host(), batch.packets(),
                     batch.est_packets(), batch.tcp(), batch.bytes());
}

void VantageStats::add_batch_tx(const flow::FlowBatch& batch,
                                std::span<const std::uint32_t> rows) {
  const std::span<const std::uint32_t> block = batch.src_block();
  const std::span<const std::uint8_t> host = batch.src_host();
  const std::span<const std::uint64_t> packets = batch.packets();
  const trie::Block24Set* mask = source_mask_.get();
  constexpr std::size_t kPrefetchAhead = 16;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (k + kPrefetchAhead < rows.size()) {
      store_.prefetch_block(net::Block24(block[rows[k + kPrefetchAhead]]));
    }
    const std::uint32_t i = rows[k];
    const net::Block24 src_block(block[i]);
    if (mask == nullptr || mask->contains(src_block)) {
      store_.add_tx(src_block, host[i], packets[i]);
    }
  }
}

void VantageStats::merge(const VantageStats& other) {
  store_.merge(other.store_);
  days_.insert(other.days_.begin(), other.days_.end());
  flows_ += other.flows_;
  ibr_.merge(other.ibr_);
}

VantageStats merge_stats(VantageStats first, std::span<const VantageStats* const> rest,
                         std::size_t reserve_rows) {
  if (reserve_rows > 0) first.reserve_blocks(reserve_rows);
  for (const VantageStats* part : rest) first.merge(*part);
  return first;
}

}  // namespace mtscope::pipeline
