// In-memory span recorder for the traced runs.  Spans are recorded from
// the benchmark's own code around calls into each layer's public API;
// nothing inside the program is instrumented.  Self time of a span is its
// duration minus the part of it that its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;        // "<layer>.<step>", e.g. "ingest.window.merged"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;         // index of the enclosing span, -1 at top level
  std::int64_t id = 0;     // epoch, batch rep or phase ordinal
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span now; returns its handle (-1 when tracing is off).
  int begin(const std::string& name, std::int64_t id, int parent = -1);
  void end(int handle);

  /// Record a span whose endpoints were measured elsewhere.
  int add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns, std::int64_t id,
          int parent = -1);

  /// Copy of every span recorded so far.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Self time in ms, summed per span name.
  [[nodiscard]] std::map<std::string, double> self_ms_by_name() const;

  /// Self time in ms of each instance of `name`, in recording order.
  [[nodiscard]] std::vector<double> self_ms_of(const std::string& name) const;

  /// Total ms of [from, to] covered by at least one top-level span.
  [[nodiscard]] double covered_ms(std::int64_t from_ns, std::int64_t to_ns) const;

  /// Write {"spans": [...]} with times relative to the first span.
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<std::int64_t> self_ns_locked() const;

  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, std::int64_t id, int parent = -1)
      : tracer_(tracer), handle_(tracer.begin(name, id, parent)) {}
  ~Scope() { tracer_.end(handle_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int handle() const noexcept { return handle_; }

 private:
  Tracer& tracer_;
  int handle_;
};

}  // namespace perfbench
