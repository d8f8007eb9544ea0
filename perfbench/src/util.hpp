// Shared plumbing for the end-to-end benchmark: clocks, exact order
// statistics, host context + CPU placement, memory and CPU accounting, and
// the metric sink every workload fills.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC, the clock steady_clock uses).
[[nodiscard]] std::int64_t now_ns() noexcept;

/// Exact nearest-rank percentile of an unsorted sample (copies + sorts);
/// 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Where the benchmark may run and how it placed its threads.
struct HostContext {
  unsigned cpus_online = 0;
  std::vector<int> allowed;      // sched_getaffinity mask, ascending
  double cgroup_quota_cores = 0; // 0 = no quota found
  unsigned effective_cores = 0;  // allowed, clamped by the quota
  std::vector<int> client_cpus;  // client threads, stream producer
  std::vector<int> system_cpus;  // reactors, ingest daemon, batch pool
};

/// Read the host and split the allowed CPUs (clamped to the effective
/// cores) into disjoint sets: the highest `client_share` CPUs for the
/// client, the rest (at least one) for the system under test.  With one
/// usable CPU both sets are that CPU.
[[nodiscard]] HostContext host_context(unsigned client_share);

/// Pin the calling thread (and the threads it creates afterwards) to
/// `cpus`; a no-op for an empty set.
void pin_current_thread(const std::vector<int>& cpus);

/// Return freed heap to the kernel, then reset the kernel's peak-RSS mark
/// (VmHWM), so the next reading covers only what follows and counts live
/// memory rather than the allocator's cached free pages.  Returns the
/// resident set (MB) right after the reset.
double reset_peak_rss();
/// Peak resident set (MB) since the last reset_peak_rss() (since start
/// where the kernel cannot reset the mark).
[[nodiscard]] double peak_rss_mb();

/// CPU seconds consumed by the calling thread / the whole process.
[[nodiscard]] double thread_cpu_s() noexcept;
[[nodiscard]] double process_cpu_s() noexcept;

/// Ordered name -> (value, unit) sink that renders the result line.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const { return values_.count(name) != 0; }
  [[nodiscard]] std::string to_json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// JSON string literal with escaping.
[[nodiscard]] std::string json_string(const std::string& text);

/// Print a progress note on stderr (stdout is reserved for results).
void note(const char* format, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
