#include "util.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {

std::int64_t now_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

namespace {

/// cgroup v2 cpu.max ("max 100000" or "<quota> <period>"), then v1.
double cgroup_quota_cores() {
  std::ifstream v2("/sys/fs/cgroup/cpu.max");
  std::string quota;
  double period = 0;
  if (v2 >> quota >> period) {
    if (quota == "max" || period <= 0) return 0.0;
    return std::stod(quota) / period;
  }
  std::ifstream q1("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream p1("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  double q = 0;
  if (q1 >> q && p1 >> period && q > 0 && period > 0) return q / period;
  return 0.0;
}

}  // namespace

HostContext host_context(unsigned client_share) {
  HostContext host;
  host.cpus_online = static_cast<unsigned>(std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN)));
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) host.allowed.push_back(cpu);
    }
  }
  host.cgroup_quota_cores = cgroup_quota_cores();
  auto effective = static_cast<unsigned>(host.allowed.size());
  if (host.cgroup_quota_cores > 0) {
    effective = std::min(effective,
                         static_cast<unsigned>(std::max(1.0, std::floor(host.cgroup_quota_cores))));
  }
  host.effective_cores = std::max(1u, effective);

  // A quota below the mask size shrinks every set to fit it.
  std::vector<int> usable(host.allowed.begin(),
                          host.allowed.begin() + std::min<std::size_t>(host.allowed.size(),
                                                                       host.effective_cores));
  if (usable.size() <= 1) {
    host.client_cpus = host.system_cpus = usable;
    return host;
  }
  const std::size_t client = std::clamp<std::size_t>(client_share, 1, usable.size() - 1);
  host.client_cpus.assign(usable.end() - static_cast<std::ptrdiff_t>(client), usable.end());
  host.system_cpus.assign(usable.begin(), usable.end() - static_cast<std::ptrdiff_t>(client));
  return host;
}

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

namespace {

/// A "Vm...:" line of /proc/self/status in MB; -1 if absent.
double status_mb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(status, line)) {
    if (line.rfind(prefix, 0) == 0) {
      std::istringstream fields(line.substr(prefix.size()));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return -1.0;
}

}  // namespace

double reset_peak_rss() {
  ::malloc_trim(0);
  {
    std::ofstream out("/proc/self/clear_refs");
    if (out) out << "5";
  }
  return std::max(0.0, status_mb("VmRSS"));
}

double peak_rss_mb() {
  const double hwm = status_mb("VmHWM");
  if (hwm >= 0) return hwm;
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double thread_cpu_s() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string Metrics::to_json() const {
  std::ostringstream out;
  out.precision(17);
  out << '{';
  bool first = true;
  for (const auto& [name, entry] : values_) {
    if (!first) out << ", ";
    first = false;
    out << json_string(name) << ": {\"value\": " << entry.first
        << ", \"unit\": " << json_string(entry.second) << '}';
  }
  out << '}';
  return out.str();
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void note(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::fputs("perfbench: ", stderr);
  std::vfprintf(stderr, format, args);
  std::fputc('\n', stderr);
  va_end(args);
}

}  // namespace perfbench
