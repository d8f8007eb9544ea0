#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "util.hpp"

namespace perfbench {

namespace {

/// Length of the union of [start, end) intervals, each clipped to [lo, hi).
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                          std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

int Tracer::begin(const std::string& name, std::int64_t id, int parent) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, now_ns(), 0, parent, id});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int handle) {
  if (handle < 0) return;
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(handle)].end_ns = t;
}

int Tracer::add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
                std::int64_t id, int parent) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, std::max(start_ns, end_ns), parent, id});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<std::int64_t> Tracer::self_ns_locked() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    self[i] = (span.end_ns - span.start_ns) -
              union_length(std::move(children[i]), span.start_ns, span.end_ns);
  }
  return self;
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto self = self_ns_locked();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

std::vector<double> Tracer::self_ms_of(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto self = self_ns_locked();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(static_cast<double>(self[i]) / 1e6);
  }
  return out;
}

double Tracer::covered_ms(std::int64_t from_ns, std::int64_t to_ns) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::int64_t, std::int64_t>> top;
  for (const auto& span : spans_) {
    if (span.parent < 0) top.emplace_back(span.start_ns, span.end_ns);
  }
  return static_cast<double>(union_length(std::move(top), from_ns, to_ns)) / 1e6;
}

bool Tracer::write_json(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  const auto self = self_ns_locked();
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    out << "  {\"name\": " << json_string(span.name) << ", \"start_ns\": " << span.start_ns - origin
        << ", \"end_ns\": " << span.end_ns - origin << ", \"self_ns\": " << self[i]
        << ", \"parent\": " << span.parent << ", \"id\": " << span.id << '}'
        << (i + 1 == spans_.size() ? "\n" : ",\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
