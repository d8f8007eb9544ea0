// VantageStats: the per-/24, per-IP measurement state the inference
// pipeline reads.
//
// The paper's classification step is per-IP ("for a block of IP addresses
// to be a meta-telescope prefix, ALL IPv4 addresses have to survive the
// filter steps"), so destination-side statistics are tracked per host
// address inside each /24 — cheap, because sampled IXP data touches only a
// handful of addresses per block.  Source-side activity is a 256-bit bitmap
// plus a packet counter per block (a /24 has at most 256 distinct sources).
//
// Storage lives in pipeline::BlockStatsStore (open-addressing index over
// struct-of-arrays columns, per-IP runs in a bump arena — see
// block_stats_store.hpp and DESIGN.md §9); this class layers the flow
// semantics on top: sampling-rate scaling, the source mask, the distinct-
// day set, and the ingested-flow counter.
//
// Instances merge, which is how multi-day and multi-vantage-point inference
// works (§6.1, §7.1): merge the stats, run the same pipeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "analytics/ibr_matrix.hpp"
#include "flow/flow_batch.hpp"
#include "flow/record.hpp"
#include "net/ipv4.hpp"
#include "pipeline/block_stats_store.hpp"
#include "trie/block24_set.hpp"

namespace mtscope::pipeline {

/// All measurement state for one /24, as a standalone value.  The live
/// pipeline keeps this data columnar inside BlockStatsStore; this struct
/// remains for callers (and tests) that build observations by hand.
struct BlockObservation {
  std::vector<IpRxStats> rx_ips;      // kept sorted by host (see rx_ip)
  std::uint64_t rx_packets = 0;       // sampled
  std::uint64_t rx_tcp_packets = 0;
  std::uint64_t rx_tcp_bytes = 0;
  std::uint64_t rx_est_packets = 0;   // sampled x sampling_rate (volume estimate)
  std::uint64_t tx_packets = 0;       // sampled
  std::uint64_t tx_host_bits[4] = {0, 0, 0, 0};  // which host bytes sent

  [[nodiscard]] bool host_sent(std::uint8_t host) const noexcept {
    return (tx_host_bits[host >> 6] >> (host & 63)) & 1;
  }

  void mark_host_sent(std::uint8_t host) noexcept {
    tx_host_bits[host >> 6] |= std::uint64_t{1} << (host & 63);
  }

  [[nodiscard]] double avg_tcp_size() const noexcept {
    return rx_tcp_packets == 0 ? 0.0
                               : static_cast<double>(rx_tcp_bytes) /
                                     static_cast<double>(rx_tcp_packets);
  }

  [[nodiscard]] IpRxStats& rx_ip(std::uint8_t host);

  void merge(const BlockObservation& other);
};

class VantageStats {
 public:
  VantageStats() = default;

  /// With a source mask, source-side accounting is kept only for blocks in
  /// the mask.  Spoofed packets scatter sources across the whole 32-bit
  /// space; without a mask every one of them would allocate a tracking
  /// entry for a block the pipeline can never classify (it has no inbound
  /// traffic).  Pass the measurement universe to bound memory.
  explicit VantageStats(std::shared_ptr<const trie::Block24Set> source_mask)
      : source_mask_(std::move(source_mask)) {}

  /// With `analytics` set, destination-side ingest additionally populates
  /// the IBR analytics matrix (see analytics/ibr_matrix.hpp) — a per-day
  /// per-port tap beside the store insert.  Off by default: the
  /// classification-only pipeline pays one branch per record.
  VantageStats(std::shared_ptr<const trie::Block24Set> source_mask, bool analytics)
      : source_mask_(std::move(source_mask)), ibr_(analytics) {}

  /// Ingest one dataset: decoded flow records from one vantage point for
  /// one logical day.  `sampling_rate` scales the volume estimates; `day`
  /// feeds the distinct-day count used for per-day volume averaging.
  void add_flows(std::span<const flow::FlowRecord> flows, std::uint32_t sampling_rate, int day);

  /// Record coverage of a logical day without ingesting records.  The
  /// sharded collector calls this once per dataset so the merged union of
  /// shards covers exactly the days the serial path would.
  void note_day(int day);

  /// Destination-side accounting for a single record (plus the per-record
  /// bookkeeping: the ingested-flow counter).  Exposed so the sharded
  /// collector can route each side of one record to the shard owning its
  /// block; add_flows() is exactly note_day + add_flow_rx + add_flow_tx.
  void add_flow_rx(const flow::FlowRecord& record, std::uint32_t sampling_rate);

  /// Source-side accounting for a single record (subject to the source
  /// mask).  Counterpart of add_flow_rx; counts no flow.
  void add_flow_tx(const flow::FlowRecord& record);

  /// Batched destination-side ingest: add_flow_rx for every batch row in
  /// `rows`, reading the pre-decoded columns instead of FlowRecords.  The
  /// sharded collector passes each shard's routed run (see
  /// pipeline/shard_router.hpp) so one call touches one store
  /// contiguously; `rows` spanning the whole batch reproduces the serial
  /// per-record order.  Bit-identical to the per-record calls by
  /// construction — same values, same insertion sequence.
  void add_batch_rx(const flow::FlowBatch& batch, std::span<const std::uint32_t> rows);

  /// Batched source-side ingest, the add_flow_tx counterpart of
  /// add_batch_rx (subject to the source mask; counts no flow).
  void add_batch_tx(const flow::FlowBatch& batch, std::span<const std::uint32_t> rows);

  /// Batched analytics tap: fold every batch row in `rows` into the IBR
  /// matrix under day bin `day`.  The sharded collector passes each
  /// shard's rx-routed run — the same partition add_batch_rx consumes, so
  /// every record lands in exactly one shard's matrix and the disjoint
  /// merge reproduces the serial tap bit-identically.  No-op unless the
  /// analytics constructor flag was set.
  void add_analytics_batch(const flow::FlowBatch& batch, std::span<const std::uint32_t> rows,
                           int day) {
    ibr_.add_batch(batch, rows, day);
  }

  /// End of a run of add_analytics_batch calls: sort-reduce the matrix's
  /// pending pairs (see IbrMatrix::seal).  The collector calls it once per
  /// worker, before the shard merge.
  void seal_analytics() { ibr_.seal(); }

  /// Pre-size the underlying store for `blocks` rows (see
  /// BlockStatsStore::reserve_rows).
  void reserve_blocks(std::size_t blocks) { store_.reserve_rows(blocks); }

  /// Merge another stats object (other vantage points / other days /
  /// another shard).  Commutative and associative (see the pipeline
  /// property tests) — the invariant the parallel collector relies on.
  void merge(const VantageStats& other);

  /// The columnar store itself: size()/empty(), row iteration (yielding
  /// BlockStatsStore::ConstRow views), dense row(i) access, and the
  /// collect.store.* layout diagnostics.
  [[nodiscard]] const BlockStatsStore& blocks() const noexcept { return store_; }

  /// Falsy row view when the block has never been observed.
  [[nodiscard]] BlockStatsStore::ConstRow find(net::Block24 block) const noexcept {
    return store_.find(block);
  }

  /// Number of distinct logical days covered; 0 for an object that has
  /// ingested nothing.  An empty object used to pretend it covered one day,
  /// which corrupted merge accounting: an empty merge target "owned" a day
  /// no shard ever recorded.  Callers that divide by days clamp explicitly
  /// instead (see InferenceEngine::volume_cap_for).
  [[nodiscard]] int day_count() const noexcept { return static_cast<int>(days_.size()); }

  [[nodiscard]] std::uint64_t flows_ingested() const noexcept { return flows_; }

  /// The IBR analytics matrix (empty and disabled unless the analytics
  /// constructor flag was set).  Merged through merge()/merge_stats with
  /// the same commutative fold as the store.
  [[nodiscard]] const analytics::IbrMatrix& ibr() const noexcept { return ibr_; }

 private:
  BlockStatsStore store_;
  std::shared_ptr<const trie::Block24Set> source_mask_;
  std::set<int> days_;
  std::uint64_t flows_ = 0;
  analytics::IbrMatrix ibr_;
};

/// The shared merge primitive: fold `rest` into `first` in index order and
/// return the result.  This is the one reduction both consumers of
/// many-way stats merges ride — the parallel collector folds its disjoint
/// shard columns through it (passing the exact row total so the store
/// index is built once), and ingest::SlidingWindow::merged() folds its
/// per-day slices through it (copying only the first slice instead of all
/// of them).  Merge is commutative and associative (property-tested in
/// tests/test_pipeline_properties), so the fold order is a pure
/// implementation choice; any shape yields bit-identical output.
[[nodiscard]] VantageStats merge_stats(VantageStats first,
                                       std::span<const VantageStats* const> rest,
                                       std::size_t reserve_rows = 0);

}  // namespace mtscope::pipeline
