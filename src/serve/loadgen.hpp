// Stepped load generator for the serve plane, modeled on the mutated
// methodology: drive the line protocol at a sequence of offered-load
// steps, measure latency only inside a warm-up/measure/cool-down window
// per step, and report nearest-rank percentiles — a latency-vs-throughput
// curve instead of one aggregate QPS number, because a server's p99 near
// saturation is the figure that decides how many reactors a deployment
// needs.
//
// Two arrival models, selected per run:
//  * open loop — arrivals are paced by a clock, independent of replies.
//    Each step's value is an offered rate in queries/s split evenly over
//    the connections; each request is timed from when it fell due, and a
//    sender that falls behind carries the deficit (counted as late sends)
//    instead of dropping it, so latency includes queueing delay and
//    driving the server past saturation shows the hockey stick rather
//    than hiding it (the coordinated-omission trap closed-loop tools fall
//    into).
//  * closed loop — each step's value is a pipeline depth per connection;
//    a new request is sent only when a reply returns.  Measures the
//    server's best-case service latency at a bounded concurrency.
//
// Per step the generator opens fresh connections (no cross-step backlog),
// runs warm-up (sends, no samples), measure (samples latency per matched
// reply — the protocol answers in order per connection, so matching is a
// FIFO of send timestamps), cool-down (keeps load applied so the tail of
// the measure window isn't serviced by an idle server), then half-closes
// and drains every reply the server still owes.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace mtscope::serve {

enum class LoadMode {
  kOpen,    // steps are offered rates in queries/s (all connections combined)
  kClosed,  // steps are pipeline depths per connection
};

[[nodiscard]] const char* to_string(LoadMode mode) noexcept;

/// Which wire protocol the generator speaks: the text line protocol or
/// the fixed-width MTBIN frames (serve/wire.hpp), negotiated by sending
/// the preamble right after connect.
enum class WireProtocol {
  kLine,
  kBinary,
};

[[nodiscard]] const char* to_string(WireProtocol proto) noexcept;

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  LoadMode mode = LoadMode::kOpen;
  WireProtocol proto = WireProtocol::kLine;
  int connections = 4;
  std::vector<std::uint64_t> steps;  // rate (open) or depth (closed) per step
  int warmup_ms = 200;
  int measure_ms = 1000;
  int cooldown_ms = 200;
  std::uint64_t seed = 42;  // query-address stream seed (deterministic)
};

/// One point on the latency-vs-throughput curve.
struct StepResult {
  std::uint64_t target = 0;       // the step's rate or depth
  std::uint64_t sent = 0;         // requests sent inside the measure window
  std::uint64_t late = 0;         // of those, sent >100us after falling due (open loop)
  std::uint64_t received = 0;     // replies received inside the measure window
  std::uint64_t errors = 0;       // connect/send/recv failures across the step
  std::uint64_t samples = 0;      // latency samples (sent and matched in-window)
  double offered_qps = 0.0;       // sent / measure seconds
  double achieved_qps = 0.0;      // received / measure seconds
  std::uint64_t min_us = 0;
  double mean_us = 0.0;
  std::uint64_t p50_us = 0;
  std::uint64_t p90_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t max_us = 0;
};

/// Nearest-rank percentile (q in (0, 100]) over ascending-sorted samples:
/// the ceil(q/100 * n)-th smallest.  The caller sorts once per step and
/// reads every percentile from the same sorted data (summarize does) —
/// the old by-value signature copied and re-sorted the full sample vector
/// per percentile.  Zero samples yield 0.
[[nodiscard]] std::uint64_t percentile_us(std::span<const std::uint64_t> sorted_samples,
                                          double q);

/// Parse a comma-separated step list ("1000,5000,20000") into positive
/// integers.  Typed loadgen.steps error on empty lists, empty elements,
/// zeros, or non-numeric tokens.
[[nodiscard]] util::Result<std::vector<std::uint64_t>> parse_step_list(std::string_view text);

/// Run every configured step against host:port.  Fails typed
/// (loadgen.config / loadgen.socket) on bad config or if a step cannot
/// connect; per-request send/recv failures are counted in StepResult::errors
/// instead of aborting the run.
[[nodiscard]] util::Result<std::vector<StepResult>> run_loadgen(const LoadgenConfig& config);

/// Machine-readable curve: one JSON object with the run parameters and a
/// "steps" array (latency fields grouped under "latency_us").  Stable key
/// order, two-space indent — diff-friendly like the metrics snapshots.
void write_loadgen_json(std::ostream& out, const LoadgenConfig& config,
                        const std::vector<StepResult>& steps);

}  // namespace mtscope::serve
