// IbrMatrix: compressed-sparse spatio-temporal store of the telescope's
// IBR signal — time-binned per-/24 x per-port traffic counts, built the
// way Kepner et al. build their hypersparse darkspace matrices: append
// the triples, then sort and reduce them once.
//
// The classification pipeline reduces each /24 to a verdict; the analytics
// workloads (Chocolatine-style outage detection, scanner/IoT insight) need
// the signal *behind* the verdict: who sent how much, to which block, on
// which port, on which day.  Materialising a dense (block x port x day)
// cube is hopeless — 2^24 x 2^16 x 7 cells — but the observed IBR is
// extremely sparse: sampled IXP data touches a few ports per block per
// day.  So the matrix is three sorted runs of (packed key, packets):
//
//   rx        (dst_block, dst_port, day)  -> estimated packets
//   src_ports (src_block, dst_port)       -> estimated packets (port breadth)
//   src_touch (src_block, dst_block)      -> estimated packets (fan-out)
//
// Each run is kept sorted by key with one entry per key (reduced).  The
// tap appends (key, packets) pairs to a pending buffer; a sort-reduce
// folds the buffer into the run at the end of every bulk write (the
// seal points: VantageStats::add_flows and the collector's per-worker
// loop, through seal()), and also whenever the buffer outgrows the run
// (with a fixed floor, kReduceFloor), which bounds memory by the number
// of cells and keeps the amortised cost at O(n log n).  merge() is a
// linear two-run merge that sums equal keys, and every export is an
// in-order decode of the run.
//
// No filtering happens at collect time — block classification does not
// exist yet; serve::build_analytics intersects the matrix with the
// published map when the snapshot is built.
//
// Merge contract: every value is a sum of unsigned counters and the day
// bounds fold through min/max, so merge() is commutative and associative
// exactly like VantageStats::merge — the sliding window and the parallel
// workers fold matrices bit-identically to a from-scratch batch build
// (tests/test_analytics pins this differentially).  Const methods never
// mutate: an export or count of an unsealed matrix reduces a private copy
// of the pending pairs, so several threads may read one matrix at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "flow/flow_batch.hpp"

namespace mtscope::analytics {

/// One (packed key, summed packets) entry of a sorted run.
struct KeyCount {
  std::uint64_t key = 0;
  std::uint64_t count = 0;
};

/// A run sorted by key with one entry per key, plus the pending pairs
/// appended since the last reduce.
class KeyCountRun {
 public:
  void append(std::uint64_t key, std::uint64_t count) {
    pending_.push_back({key, count});
    if (pending_.size() >= reduce_threshold()) reduce();
  }

  /// Fold the pending pairs into the run and release their buffer.
  void seal();

  /// Per-key sum with `other`, which is left untouched (its pending
  /// pairs are reduced from a copy).  Seals this run first.
  void merge(const KeyCountRun& other);

  /// The reduced contents in key order.  A sealed run is returned as is;
  /// otherwise the run and the pending pairs are folded into `scratch`.
  [[nodiscard]] std::span<const KeyCount> reduced(std::vector<KeyCount>& scratch) const;

  /// Number of distinct keys.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const noexcept { return run_.empty() && pending_.empty(); }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (run_.capacity() + pending_.capacity()) * sizeof(KeyCount);
  }

  /// Pending pairs below which no reduce happens before a seal.
  static constexpr std::size_t kReduceFloor = std::size_t{1} << 14;

 private:
  [[nodiscard]] std::size_t reduce_threshold() const noexcept {
    return run_.size() > kReduceFloor ? run_.size() : kReduceFloor;
  }
  void reduce();

  std::vector<KeyCount> run_;      // sorted by key, keys unique
  std::vector<KeyCount> pending_;  // append order
};

class IbrMatrix {
 public:
  /// A default-constructed matrix is disabled: every add is a no-op and no
  /// run allocates, so the non-analytics pipeline pays one branch.
  IbrMatrix() = default;
  explicit IbrMatrix(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// One destination-side record: `est_packets` is the sampled count times
  /// the exporter sampling rate (the same volume estimate the funnel
  /// thresholds).  `day` is the logical time bin.
  void add_flow(std::uint32_t src_block, std::uint32_t dst_block, std::uint16_t dst_port,
                int day, std::uint64_t est_packets);

  /// Batched tap: add_flow for every batch row in `rows` (the collector
  /// passes each shard's rx-routed run, which partitions the batch — every
  /// record lands in exactly one shard's matrix).
  void add_batch(const flow::FlowBatch& batch, std::span<const std::uint32_t> rows, int day);

  /// Sort-reduce every pending pair into the runs — the end of a bulk
  /// write.  Never changes what the exports return.
  void seal();

  /// Commutative, associative fold — the same contract as
  /// VantageStats::merge, which carries this matrix through merge_stats.
  void merge(const IbrMatrix& other);

  // --- deterministic exports (sorted by packed key) ----------------------

  struct RxCell {
    std::uint32_t block = 0;
    std::uint16_t port = 0;
    std::uint16_t day = 0;
    std::uint64_t packets = 0;
    bool operator==(const RxCell&) const = default;
  };
  /// (block, port, day) cells sorted by (block, port, day).
  [[nodiscard]] std::vector<RxCell> rx_cells() const;

  struct SrcPort {
    std::uint32_t src_block = 0;
    std::uint16_t port = 0;
    std::uint64_t packets = 0;
    bool operator==(const SrcPort&) const = default;
  };
  /// (src_block, port) pairs sorted by (src_block, port).
  [[nodiscard]] std::vector<SrcPort> src_ports() const;

  struct SrcTouch {
    std::uint32_t src_block = 0;
    std::uint32_t dst_block = 0;
    std::uint64_t packets = 0;
    bool operator==(const SrcTouch&) const = default;
  };
  /// (src_block, dst_block) pairs sorted by (src_block, dst_block).
  [[nodiscard]] std::vector<SrcTouch> src_touches() const;

  /// Day-bin bounds over everything added; meaningless when empty().
  [[nodiscard]] int first_day() const noexcept { return first_day_; }
  [[nodiscard]] int last_day() const noexcept { return last_day_; }
  [[nodiscard]] bool empty() const noexcept { return rx_.empty(); }

  [[nodiscard]] std::size_t rx_cell_count() const { return rx_.size(); }
  [[nodiscard]] std::size_t src_port_count() const { return src_ports_.size(); }
  [[nodiscard]] std::size_t src_touch_count() const { return src_touch_.size(); }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return rx_.memory_bytes() + src_ports_.memory_bytes() + src_touch_.memory_bytes();
  }

 private:
  bool enabled_ = false;
  int first_day_ = std::numeric_limits<int>::max();
  int last_day_ = std::numeric_limits<int>::min();
  KeyCountRun rx_;         // key: block<<32 | port<<16 | day
  KeyCountRun src_ports_;  // key: src_block<<16 | port
  KeyCountRun src_touch_;  // key: src_block<<24 | dst_block
};

}  // namespace mtscope::analytics
