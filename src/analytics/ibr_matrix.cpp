#include "analytics/ibr_matrix.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace mtscope::analytics {

namespace {

/// Sort `pairs` by key: LSD radix sort, one stable counting pass per key
/// byte that actually varies (a day slice's rx keys share their day bytes,
/// every key its top byte, so those passes are skipped).
void radix_sort(std::vector<KeyCount>& pairs) {
  constexpr int kBytes = 8;
  std::vector<std::array<std::size_t, 256>> counts(kBytes);
  for (auto& c : counts) c.fill(0);
  for (const KeyCount& p : pairs) {
    for (int b = 0; b < kBytes; ++b) ++counts[b][(p.key >> (8 * b)) & 0xffu];
  }
  std::vector<KeyCount> buffer(pairs.size());
  for (int b = 0; b < kBytes; ++b) {
    std::array<std::size_t, 256>& count = counts[b];
    if (std::find(count.begin(), count.end(), pairs.size()) != count.end()) continue;
    std::size_t offset = 0;
    for (std::size_t& c : count) offset += std::exchange(c, offset);
    for (const KeyCount& p : pairs) buffer[count[(p.key >> (8 * b)) & 0xffu]++] = p;
    pairs.swap(buffer);
  }
}

/// Sort `pairs` by key and sum equal keys in place, leaving one entry per
/// key.
void sort_reduce(std::vector<KeyCount>& pairs) {
  radix_sort(pairs);
  std::size_t out = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (out > 0 && pairs[out - 1].key == pairs[i].key) {
      pairs[out - 1].count += pairs[i].count;
    } else {
      pairs[out++] = pairs[i];
    }
  }
  pairs.resize(out);
}

/// Linear merge of two reduced runs, summing the keys both hold.
std::vector<KeyCount> merge_runs(std::span<const KeyCount> a, std::span<const KeyCount> b) {
  std::vector<KeyCount> out;
  out.reserve(a.size() + b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].key < b[j].key) {
      out.push_back(a[i++]);
    } else if (b[j].key < a[i].key) {
      out.push_back(b[j++]);
    } else {
      out.push_back({a[i].key, a[i].count + b[j].count});
      ++i;
      ++j;
    }
  }
  out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
  return out;
}

/// Unpack a run's reduced contents, in key order, with `decode`.
template <typename Cell, typename Decode>
std::vector<Cell> decode_run(const KeyCountRun& run, Decode decode) {
  std::vector<KeyCount> scratch;
  const std::span<const KeyCount> reduced = run.reduced(scratch);
  std::vector<Cell> out;
  out.reserve(reduced.size());
  for (const KeyCount& c : reduced) out.push_back(decode(c));
  return out;
}

}  // namespace

void KeyCountRun::reduce() {
  if (pending_.empty()) return;
  sort_reduce(pending_);
  run_ = merge_runs(run_, pending_);
  pending_.clear();
}

void KeyCountRun::seal() {
  reduce();
  std::vector<KeyCount>().swap(pending_);
}

void KeyCountRun::merge(const KeyCountRun& other) {
  seal();
  std::vector<KeyCount> scratch;
  const std::span<const KeyCount> theirs = other.reduced(scratch);
  if (!theirs.empty()) run_ = merge_runs(run_, theirs);
}

std::span<const KeyCount> KeyCountRun::reduced(std::vector<KeyCount>& scratch) const {
  if (pending_.empty()) return run_;
  scratch = pending_;
  sort_reduce(scratch);
  scratch = merge_runs(run_, scratch);
  return scratch;
}

std::size_t KeyCountRun::size() const {
  std::vector<KeyCount> scratch;
  return reduced(scratch).size();
}

void IbrMatrix::add_flow(std::uint32_t src_block, std::uint32_t dst_block,
                         std::uint16_t dst_port, int day, std::uint64_t est_packets) {
  if (!enabled_) return;
  first_day_ = std::min(first_day_, day);
  last_day_ = std::max(last_day_, day);
  const std::uint64_t day16 = static_cast<std::uint64_t>(day) & 0xffffu;
  rx_.append((std::uint64_t{dst_block} << 32) | (std::uint64_t{dst_port} << 16) | day16,
             est_packets);
  src_ports_.append((std::uint64_t{src_block} << 16) | dst_port, est_packets);
  src_touch_.append((std::uint64_t{src_block} << 24) | dst_block, est_packets);
}

void IbrMatrix::add_batch(const flow::FlowBatch& batch, std::span<const std::uint32_t> rows,
                          int day) {
  if (!enabled_ || rows.empty()) return;
  const std::span<const std::uint32_t> src = batch.src_block();
  const std::span<const std::uint32_t> dst = batch.dst_block();
  const std::span<const std::uint16_t> port = batch.dst_port();
  const std::span<const std::uint64_t> est = batch.est_packets();
  for (const std::uint32_t i : rows) {
    add_flow(src[i], dst[i], port[i], day, est[i]);
  }
}

void IbrMatrix::seal() {
  rx_.seal();
  src_ports_.seal();
  src_touch_.seal();
}

void IbrMatrix::merge(const IbrMatrix& other) {
  enabled_ = enabled_ || other.enabled_;
  first_day_ = std::min(first_day_, other.first_day_);
  last_day_ = std::max(last_day_, other.last_day_);
  rx_.merge(other.rx_);
  src_ports_.merge(other.src_ports_);
  src_touch_.merge(other.src_touch_);
}

std::vector<IbrMatrix::RxCell> IbrMatrix::rx_cells() const {
  return decode_run<RxCell>(rx_, [](const KeyCount& c) {
    return RxCell{static_cast<std::uint32_t>(c.key >> 32),
                  static_cast<std::uint16_t>((c.key >> 16) & 0xffffu),
                  static_cast<std::uint16_t>(c.key & 0xffffu), c.count};
  });
}

std::vector<IbrMatrix::SrcPort> IbrMatrix::src_ports() const {
  return decode_run<SrcPort>(src_ports_, [](const KeyCount& c) {
    return SrcPort{static_cast<std::uint32_t>(c.key >> 16),
                   static_cast<std::uint16_t>(c.key & 0xffffu), c.count};
  });
}

std::vector<IbrMatrix::SrcTouch> IbrMatrix::src_touches() const {
  return decode_run<SrcTouch>(src_touch_, [](const KeyCount& c) {
    return SrcTouch{static_cast<std::uint32_t>(c.key >> 24),
                    static_cast<std::uint32_t>(c.key & 0xffffffu), c.count};
  });
}

}  // namespace mtscope::analytics
