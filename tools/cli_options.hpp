// mtscope CLI option model + parser, split out of main() so the argument
// surface is unit-testable: tests/test_cli_args.cpp pins every diagnostic
// string and the accept/reject decision for each flag.
//
// Parsing is strict where the old inline loop was forgiving: numeric
// values must consume their whole token ("--threads 4x" is an error, not
// 4), zero is rejected where it would be nonsense (--threads 0), and
// enumerated values (--scale) must name a known member.  main() maps a
// false return to exit code 2 after printing `error` and the usage text.
#pragma once

#include <cstdint>
#include <string>

namespace mtscope::cli {

struct Options {
  std::string command;

  // common
  std::uint64_t seed = 42;
  bool tiny = false;

  // infer
  int days = 1;
  std::string ixps;              // comma-separated codes; empty = all
  unsigned threads = 1;          // collect/infer worker threads; 1 = serial
  unsigned shards = 0;           // 0 = pick per thread count
  bool tolerance = true;
  bool analytics = false;        // --analytics: build + persist the IBR analytics
  std::string csv_path;
  std::string metrics_path;
  std::string snapshot_out;      // persist the run as a telescope snapshot
  int hilbert_octet = -1;
  std::string hilbert_path;

  // analyze
  std::string analyze_query;     // --query LINE; empty = summary report

  // query
  std::string snapshot_path;     // --snapshot FILE (shared with serve)
  std::string ips_path;          // --ips FILE, "-" = stdin

  // serve
  int port = -1;                 // --port N (required; 0 = kernel-assigned)
  unsigned reactors = 1;         // --reactors N (event loops, one listener each)
  unsigned max_conns = 1024;     // --max-conns N
  unsigned idle_timeout_ms = 30'000;  // --idle-timeout-ms N
  unsigned watch_interval_ms = 0;     // --watch-interval-ms N; 0 = SIGHUP only

  // loadgen (shares --port with serve, --out with stream)
  std::string host = "127.0.0.1";  // --host IP (dotted quad)
  std::string load_mode = "open";  // --mode open|closed
  std::string proto = "line";      // --proto line|binary (MTBIN frames)
  std::string steps;               // --steps N,N,... (rate or depth per step)
  unsigned conns = 4;              // --conns N (concurrent connections)
  unsigned warmup_ms = 200;        // --warmup-ms N
  unsigned measure_ms = 1000;      // --measure-ms N
  unsigned cooldown_ms = 200;      // --cooldown-ms N

  // stream / ingest
  std::string stream_out;        // --out FILE (stream: flow stream target)
  std::string source_path;       // --source FILE (ingest: flow stream source)
  unsigned window_days = 7;      // --window-days N (sliding window length)
  unsigned cadence_days = 1;     // --cadence-days N (publish every N days)
  std::uint64_t max_epochs = 0;  // --max-epochs N; 0 = run to stream end

  // capture / datasets / ports
  std::string telescope = "TUS1";
  int day = 0;
  std::string pcap_path;
  std::string out_dir;
  std::size_t top = 10;
};

/// Parse argv into `opt`.  Returns false on any malformed input and sets
/// `error` to a one-line diagnostic; `opt` is then partially filled and
/// must not be used.
bool parse_args(int argc, const char* const* argv, Options& opt, std::string& error);

/// The usage text main() prints on parse failure (shared with tests).
[[nodiscard]] const char* usage_text() noexcept;

}  // namespace mtscope::cli
