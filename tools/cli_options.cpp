#include "cli_options.hpp"

#include <charconv>
#include <cstring>
#include <string_view>

namespace mtscope::cli {

namespace {

/// Whole-token unsigned parse: "12" yes, "", "1x", "-1", "0x10" no.
template <typename T>
bool parse_uint(std::string_view text, T& out) {
  if (text.empty()) return false;
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) return false;
  out = value;
  return true;
}

struct Parser {
  int argc;
  const char* const* argv;
  Options& opt;
  std::string& error;
  int i = 2;

  bool fail(std::string message) {
    error = std::move(message);
    return false;
  }

  /// The value token for the flag at argv[i]; null + diagnostic if absent.
  const char* value_for(const std::string& flag) {
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return nullptr;
    }
    return argv[++i];
  }

  template <typename T>
  bool uint_for(const std::string& flag, T& out, T minimum) {
    const char* v = value_for(flag);
    if (v == nullptr) return false;
    if (!parse_uint(v, out)) {
      return fail("invalid value for " + flag + ": '" + v + "' (expected a non-negative integer)");
    }
    if (out < minimum) {
      return fail(flag + " must be >= " + std::to_string(minimum));
    }
    return true;
  }
};

}  // namespace

const char* usage_text() noexcept {
  return
      "usage: mtscope <infer|query|serve|loadgen|stream|ingest|analyze|capture|datasets|ports>"
      " [options]\n"
      "  common:  --seed N        simulation seed (default 42)\n"
      "           --scale tiny|full\n"
      "  infer:   --days K --ixps CE1,NA1 --no-tolerance --csv FILE\n"
      "           --threads N (parallel collect+infer; default 1 = serial)\n"
      "           --shards M (per-worker stats shards; default: thread count)\n"
      "           --hilbert OCTET FILE.pgm\n"
      "           --metrics-out FILE (pipeline metrics JSON snapshot)\n"
      "           --snapshot-out FILE (persist the run as a telescope snapshot)\n"
      "           --analytics (attach the IBR analytics section to the snapshot)\n"
      "  query:   --snapshot FILE (telescope snapshot to serve from)\n"
      "           --ips FILE|- (classify IPs, one per line; - = stdin)\n"
      "           --metrics-out FILE (serve.* metrics JSON snapshot)\n"
      "  serve:   --snapshot FILE --port N (TCP query daemon; 0 = kernel-assigned)\n"
      "           --reactors N (event loops w/ SO_REUSEPORT listeners; default 1)\n"
      "           --max-conns N (default 1024) --idle-timeout-ms N (default 30000)\n"
      "           --metrics-out FILE (serve.server.* metrics, written on exit)\n"
      "           --watch-interval-ms N (poll --snapshot for atomic republish)\n"
      "           SIGHUP reloads --snapshot; SIGTERM/SIGINT drain and exit 0\n"
      "  loadgen: --port N [--host IP] (drive a running serve instance)\n"
      "           --steps N,N,... (offered qps per step; closed: depth/conn)\n"
      "           --mode open|closed (default open) --conns N (default 4)\n"
      "           --proto line|binary (wire protocol; default line)\n"
      "           --warmup-ms/--measure-ms/--cooldown-ms (200/1000/200)\n"
      "           --out FILE (latency-vs-throughput JSON; default\n"
      "           BENCH_serve_net.json)\n"
      "  stream:  --out FILE (write simulated vantage-days as a flow stream;\n"
      "           FIFO-friendly) --days K --ixps A,B\n"
      "  ingest:  --source FILE --snapshot-out FILE (continuous pipeline:\n"
      "           consume a flow stream, publish snapshots atomically)\n"
      "           --window-days N (default 7) --cadence-days N (default 1)\n"
      "           --threads N --no-tolerance --max-epochs N\n"
      "           --metrics-out FILE (ingest.* metrics, written on exit)\n"
      "  analyze: --snapshot FILE (answer analytics queries from a snapshot)\n"
      "           --query 'top-ports [P|ASN|CC] | outages [SINCE] | scanners [N]'\n"
      "           --top K (ranking depth; default 10); no --query = full report\n"
      "  capture: --telescope TUS1|TEU1|TEU2 --day D --pcap FILE\n"
      "  datasets: --out-dir DIR\n"
      "  ports:   --top K\n";
}

bool parse_args(int argc, const char* const* argv, Options& opt, std::string& error) {
  error.clear();
  if (argc < 2) {
    error = "missing command";
    return false;
  }
  opt.command = argv[1];
  if (opt.command != "infer" && opt.command != "query" && opt.command != "serve" &&
      opt.command != "loadgen" && opt.command != "stream" && opt.command != "ingest" &&
      opt.command != "analyze" && opt.command != "capture" && opt.command != "datasets" &&
      opt.command != "ports") {
    error = "unknown command: " + opt.command;
    return false;
  }

  Parser p{argc, argv, opt, error};
  for (; p.i < argc; ++p.i) {
    const std::string arg = argv[p.i];
    if (arg == "--seed") {
      if (!p.uint_for(arg, opt.seed, std::uint64_t{0})) return false;
    } else if (arg == "--scale") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      if (std::strcmp(v, "tiny") != 0 && std::strcmp(v, "full") != 0) {
        return p.fail("invalid value for --scale: '" + std::string(v) +
                      "' (expected tiny or full)");
      }
      opt.tiny = std::strcmp(v, "tiny") == 0;
    } else if (arg == "--days") {
      unsigned days = 0;
      if (!p.uint_for(arg, days, 1u)) return false;
      opt.days = static_cast<int>(days);
    } else if (arg == "--ixps") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.ixps = v;
    } else if (arg == "--threads") {
      if (!p.uint_for(arg, opt.threads, 1u)) return false;
    } else if (arg == "--shards") {
      if (!p.uint_for(arg, opt.shards, 1u)) return false;
    } else if (arg == "--no-tolerance") {
      opt.tolerance = false;
    } else if (arg == "--analytics") {
      opt.analytics = true;
    } else if (arg == "--query") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.analyze_query = v;
    } else if (arg == "--csv") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.csv_path = v;
    } else if (arg == "--metrics-out") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.metrics_path = v;
    } else if (arg == "--snapshot-out") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.snapshot_out = v;
    } else if (arg == "--snapshot") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.snapshot_path = v;
    } else if (arg == "--ips") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.ips_path = v;
    } else if (arg == "--port") {
      unsigned port = 0;
      if (!p.uint_for(arg, port, 0u)) return false;
      if (port > 65535) return p.fail("--port must be in [0, 65535]");
      opt.port = static_cast<int>(port);
    } else if (arg == "--reactors") {
      if (!p.uint_for(arg, opt.reactors, 1u)) return false;
      if (opt.reactors > 256) return p.fail("--reactors must be in [1, 256]");
    } else if (arg == "--max-conns") {
      if (!p.uint_for(arg, opt.max_conns, 1u)) return false;
    } else if (arg == "--idle-timeout-ms") {
      if (!p.uint_for(arg, opt.idle_timeout_ms, 1u)) return false;
    } else if (arg == "--watch-interval-ms") {
      if (!p.uint_for(arg, opt.watch_interval_ms, 1u)) return false;
    } else if (arg == "--out") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.stream_out = v;
    } else if (arg == "--source") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.source_path = v;
    } else if (arg == "--window-days") {
      if (!p.uint_for(arg, opt.window_days, 1u)) return false;
    } else if (arg == "--cadence-days") {
      if (!p.uint_for(arg, opt.cadence_days, 1u)) return false;
    } else if (arg == "--max-epochs") {
      if (!p.uint_for(arg, opt.max_epochs, std::uint64_t{1})) return false;
    } else if (arg == "--host") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.host = v;
    } else if (arg == "--mode") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      if (std::strcmp(v, "open") != 0 && std::strcmp(v, "closed") != 0) {
        return p.fail("invalid value for --mode: '" + std::string(v) +
                      "' (expected open or closed)");
      }
      opt.load_mode = v;
    } else if (arg == "--proto") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      if (std::strcmp(v, "line") != 0 && std::strcmp(v, "binary") != 0) {
        return p.fail("invalid value for --proto: '" + std::string(v) +
                      "' (expected line or binary)");
      }
      opt.proto = v;
    } else if (arg == "--steps") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.steps = v;
    } else if (arg == "--conns") {
      if (!p.uint_for(arg, opt.conns, 1u)) return false;
    } else if (arg == "--warmup-ms") {
      if (!p.uint_for(arg, opt.warmup_ms, 0u)) return false;
    } else if (arg == "--measure-ms") {
      if (!p.uint_for(arg, opt.measure_ms, 1u)) return false;
    } else if (arg == "--cooldown-ms") {
      if (!p.uint_for(arg, opt.cooldown_ms, 0u)) return false;
    } else if (arg == "--hilbert") {
      unsigned octet = 0;
      if (!p.uint_for(arg, octet, 0u)) return false;
      if (octet > 255) return p.fail("--hilbert octet must be in [0, 255]");
      const char* path = p.value_for(arg);
      if (path == nullptr) return p.fail("missing output path for --hilbert");
      opt.hilbert_octet = static_cast<int>(octet);
      opt.hilbert_path = path;
    } else if (arg == "--telescope") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.telescope = v;
    } else if (arg == "--day") {
      unsigned day = 0;
      if (!p.uint_for(arg, day, 0u)) return false;
      opt.day = static_cast<int>(day);
    } else if (arg == "--pcap") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.pcap_path = v;
    } else if (arg == "--out-dir") {
      const char* v = p.value_for(arg);
      if (v == nullptr) return false;
      opt.out_dir = v;
    } else if (arg == "--top") {
      if (!p.uint_for(arg, opt.top, std::size_t{1})) return false;
    } else {
      error = "unknown option: " + arg;
      return false;
    }
  }
  return true;
}

}  // namespace mtscope::cli
