// live_week: the operated loop.  A pre-materialised MTFLOW stream of the
// seed's vantage-days is written into a FIFO as fast as IngestDaemon takes
// it; the daemon (analytics on, cadence one day, 7-day window) publishes
// every epoch atomically into a QueryServer in watch mode while the client
// holds a modest MTBIN + line lookup rate.  The stream spans more days
// than the window, so the last epochs publish from a full, sliding window
// with eviction.  Every published epoch must be byte-identical to a batch
// build over the same retained days.
//
// The traced run replaces IngestDaemon with the same calls composed here,
// in the daemon's order, with a span around each; it must publish the
// same bytes.
#include <fcntl.h>
#include <sys/ioctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

#include "harness.hpp"
#include "ingest/daemon.hpp"
#include "ingest/publish.hpp"
#include "ingest/window.hpp"
#include "inputs.hpp"
#include "pipeline/inference.hpp"
#include "pipeline/spoof_tolerance.hpp"
#include "routing/special_purpose.hpp"
#include "serve/analytics_format.hpp"

namespace perfbench {

namespace serve = mtscope::serve;
namespace ingest = mtscope::ingest;
namespace pipeline = mtscope::pipeline;

namespace {

// Modest next to capacity, yet enough that the reactor's vCPU never idles:
// at 4k + 2k/s every request paid a VM wake-up and the p90 varied tenfold
// between runs.
constexpr double kBinRate = 20'000;  // per connection, lookups/s
constexpr double kLineRate = 10'000;
// Every vantage-day is thinned to this many flows, so the stream (and the
// flows-per-second figure) has the same volume for every seed; unthinned,
// CE1 days vary by about ±20% with the seed.
constexpr std::size_t kFlowsPerDataset = 100'000;

struct Producer {
  std::int64_t first_ns = 0;
  double blocked_ms = 0;
  std::uint64_t max_backlog = 0;
};

/// Open the FIFO's write end once a reader has opened it; -1 when no
/// reader appears within 30 s (the consumer failed before opening).
int open_fifo_writer(const std::string& fifo) {
  for (const std::int64_t deadline = now_ns() + 30'000'000'000; now_ns() < deadline;) {
    const int fd = ::open(fifo.c_str(), O_WRONLY | O_NONBLOCK | O_CLOEXEC);
    if (fd >= 0) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
      return fd;
    }
    if (errno != ENXIO) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return -1;
}

/// Write every frame of `stream` into the FIFO, stamping each day end as
/// the close of the epoch it completes.
bool produce(const StreamFile& stream, const std::string& fifo, EpochBook& book,
             Producer& out) {
  const int file = ::open(stream.path.c_str(), O_RDONLY | O_CLOEXEC);
  if (file < 0) return false;
  const int pipe = open_fifo_writer(fifo);
  if (pipe < 0) {
    ::close(file);
    return false;
  }
  out.first_ns = now_ns();
  std::vector<char> buffer;
  bool ok = true;
  for (const auto& frame : stream.frames) {
    buffer.resize(frame.length);
    if (::pread(file, buffer.data(), frame.length, static_cast<off_t>(frame.offset)) !=
        static_cast<ssize_t>(frame.length)) {
      ok = false;
      break;
    }
    const std::int64_t t0 = now_ns();
    std::size_t written = 0;
    while (ok && written < buffer.size()) {
      const auto n = ::write(pipe, buffer.data() + written, buffer.size() - written);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ok = false;
      else written += static_cast<std::size_t>(n);
    }
    const std::int64_t t1 = now_ns();
    out.blocked_ms += static_cast<double>(t1 - t0) / 1e6;
    int queued = 0;
    if (::ioctl(pipe, FIONREAD, &queued) == 0) {
      out.max_backlog = std::max<std::uint64_t>(out.max_backlog, static_cast<std::uint64_t>(queued));
    }
    if (frame.kind == StreamFile::Kind::kDayEnd) {
      book.set_closed(static_cast<std::size_t>(frame.day) + 1, t1);
    }
    if (!ok) break;
  }
  ::close(pipe);
  ::close(file);
  return ok;
}

std::string epoch_copy(const std::string& work_dir, std::uint64_t epoch) {
  return work_dir + "/live.e" + std::to_string(epoch) + ".snap";
}

/// Keep the just-published inode under another name for the byte check.
void keep_published(const std::string& path, const std::string& copy) {
  ::unlink(copy.c_str());
  if (::link(path.c_str(), copy.c_str()) != 0) {
    note("live_week: cannot keep %s: %s", copy.c_str(), std::strerror(errno));
  }
}

struct Pass {
  PhaseResult client;
  std::vector<double> freshness;
  double setup_s = 0;
  double throughput = 0;
  double peak_rss = 0;
  double process_cpu = 0;
  Producer producer;
  std::uint64_t publishes = 0;
};

/// What the traced composition measures besides its spans.
struct Composition {
  std::uint64_t rows_evicted = 0;
  std::uint64_t publish_bytes = 0;
  std::uint64_t funnel_blocks = 0;
  double store_bytes_per_block = 0;
  std::uint64_t arena_spills = 0;
  std::uint64_t cells_rx = 0, cells_src_ports = 0, cells_src_touch = 0, matrix_bytes = 0;
  std::vector<std::int64_t> publish_end_ns;  // by epoch
  std::vector<int> merge_spans;              // span handle by epoch
  std::string error;
};

/// The daemon's loop, call for call, with a span around each call.
void compose(const std::string& fifo, const std::string& snapshot_out,
             const std::string& work_dir, int window_days, unsigned threads, Tracer& tracer,
             Composition& out) {
  std::ifstream in(fifo, std::ios::binary);
  ingest::FlowStreamReader reader(in);
  const auto header_read = reader.read_header();
  if (!header_read.ok()) {
    out.error = header_read.error().to_string();
    return;
  }
  const ingest::StreamHeader header = header_read.value();
  std::unique_ptr<mtscope::sim::Simulation> simulation;
  {
    const Scope span(tracer, "sim.plan", 0);
    simulation = make_simulation(header.tiny, header.seed);
  }
  const auto registry = mtscope::routing::SpecialPurposeRegistry::standard();
  ingest::SlidingWindow window(window_days, simulation->plan().universe_mask(), true);
  const serve::BlockLabeler labeler = ingest::plan_labeler(simulation->plan());
  std::int64_t epoch = 0;
  out.publish_end_ns.assign(1, 0);
  out.merge_spans.assign(1, -1);
  while (true) {
    const int next = tracer.begin("ingest.stream.next", epoch + 1);
    auto event_read = reader.next();
    tracer.end(next);
    if (!event_read.ok()) {
      out.error = event_read.error().to_string();
      return;
    }
    const ingest::StreamEvent& event = event_read.value();
    if (event.kind == ingest::StreamEvent::Kind::kStreamEnd) break;
    if (event.kind == ingest::StreamEvent::Kind::kDataset) {
      const Scope span(tracer, "ingest.window.add_flows", epoch + 1);
      window.add_flows(event.day, event.flows, event.sampling_rate);
      continue;
    }
    epoch += 1;
    // One span per epoch, from the day-end frame to the finished publish;
    // each call the daemon makes for the epoch is a child of it.
    const int whole = tracer.begin("ingest.epoch", epoch);
    {
      const Scope span(tracer, "ingest.window.note_day", epoch, whole);
      window.note_day(event.day);
    }
    {
      const Scope span(tracer, "ingest.window.advance_to", epoch, whole);
      out.rows_evicted += window.advance_to(event.day).rows;
    }
    const int merge = tracer.begin("ingest.window.merged", epoch, whole);
    const pipeline::VantageStats stats = window.merged();
    tracer.end(merge);
    out.merge_spans.push_back(merge);

    std::uint64_t tolerance = 0;
    {
      const Scope span(tracer, "pipeline.tolerance", epoch, whole);
      tolerance = pipeline::compute_spoof_tolerance(stats, simulation->plan().unrouted_slash8s());
    }
    pipeline::PipelineConfig config;
    config.volume_scale = simulation->config().volume_scale;
    config.spoof_tolerance_pkts = tolerance;
    const pipeline::InferenceEngine engine(config, simulation->plan().rib(), registry);
    pipeline::InferenceResult result;
    {
      const Scope span(tracer, "pipeline.funnel", epoch, whole);
      result = pipeline::parallel_infer(engine, stats, threads);
    }
    const auto meta = ingest::publish_metadata(header, window_days, window.days(),
                                               stats.flows_ingested(), tolerance, kCreatedUnixS);
    serve::TelescopeSnapshot snapshot;
    {
      const Scope span(tracer, "serve.snapshot.build", epoch, whole);
      snapshot = serve::build_snapshot(result, simulation->plan().rib(), meta);
    }
    {
      const Scope span(tracer, "analytics.build", epoch, whole);
      snapshot.analytics = serve::build_analytics(stats.ibr(), snapshot, labeler);
    }
    {
      const Scope span(tracer, "ingest.publish", epoch, whole);
      const auto published = ingest::publish_snapshot(snapshot, snapshot_out);
      if (published.ok()) out.publish_bytes += published.value();
    }
    tracer.end(whole);
    out.publish_end_ns.push_back(now_ns());
    keep_published(snapshot_out, epoch_copy(work_dir, static_cast<std::uint64_t>(epoch)));

    out.funnel_blocks = stats.blocks().size();
    out.store_bytes_per_block = stats.blocks().empty()
                                    ? 0.0
                                    : static_cast<double>(stats.blocks().memory_bytes()) /
                                          static_cast<double>(stats.blocks().size());
    out.arena_spills = stats.blocks().arena_spills();
    out.cells_rx = stats.ibr().rx_cell_count();
    out.cells_src_ports = stats.ibr().src_port_count();
    out.cells_src_touch = stats.ibr().src_touch_count();
    out.matrix_bytes = stats.ibr().memory_bytes();
  }
}

/// Split the window merge into its store and matrix halves, and the insert
/// into its store and analytics-tap halves, on copies of the final
/// window's day slices (traced runs, after the measured loop).
void split_merge(const StreamFile& stream, const mtscope::sim::Simulation& simulation,
                 int first_day, Tracer& tracer, Metrics& layers) {
  std::ifstream in(stream.path, std::ios::binary);
  ingest::FlowStreamReader reader(in);
  if (!reader.read_header().ok()) return;
  std::vector<pipeline::VantageStats> slices;
  double with_tap = 0;
  double without_tap = 0;
  while (true) {
    auto event = reader.next();
    if (!event.ok() || event.value().kind == ingest::StreamEvent::Kind::kStreamEnd) break;
    const auto& e = event.value();
    if (e.kind != ingest::StreamEvent::Kind::kDataset || e.day < first_day) continue;
    pipeline::VantageStats plain(simulation.plan().universe_mask(), false);
    std::int64_t t0 = now_ns();
    plain.add_flows(e.flows, e.sampling_rate, e.day);
    tracer.add("pipeline.store.insert", t0, now_ns(), e.day);
    without_tap += static_cast<double>(now_ns() - t0) / 1e6;
    slices.emplace_back(simulation.plan().universe_mask(), true);
    t0 = now_ns();
    slices.back().add_flows(e.flows, e.sampling_rate, e.day);
    tracer.add("analytics.tap_and_insert", t0, now_ns(), e.day);
    with_tap += static_cast<double>(now_ns() - t0) / 1e6;
  }
  if (slices.empty()) return;
  layers.set("analytics.tap_ms", std::max(0.0, with_tap - without_tap), "ms");
  {
    const int span = tracer.begin("pipeline.store.merge", first_day);
    pipeline::BlockStatsStore store = slices.front().blocks();
    for (std::size_t i = 1; i < slices.size(); ++i) store.merge(slices[i].blocks());
    tracer.end(span);
  }
  {
    const int span = tracer.begin("analytics.matrix.merge", first_day);
    mtscope::analytics::IbrMatrix matrix = slices.front().ibr();
    for (std::size_t i = 1; i < slices.size(); ++i) matrix.merge(slices[i].ibr());
    tracer.end(span);
  }
  const auto self = tracer.self_ms_by_name();
  layers.set("pipeline.store.merge_ms", self.at("pipeline.store.merge"), "ms");
  layers.set("analytics.matrix.merge_ms", self.at("analytics.matrix.merge"), "ms");
}

}  // namespace

RunOutcome run_live_week(const RunConfig& config) {
  RunOutcome outcome;
  outcome.idle_layers = {"pipeline.collect."};
  const auto& host = config.host;
  const int window_days = config.smoke ? 2 : 7;
  const int days = window_days + 2;  // three full-window epochs
  // One system CPU fewer than the daemon could use is left to the reactor.
  const unsigned threads = std::max<std::size_t>(1, host.system_cpus.size() - 1);
  const ingest::StreamHeader header{config.seed, true};

  note("live_week: materialising the stream and %d reference epochs", days);
  const auto simulation = make_simulation(true, config.seed);
  const std::size_t ixps[] = {simulation->ixp_index("CE1")};
  std::vector<Dataset> datasets;
  std::vector<mtscope::net::Ipv4Addr> destinations;
  const StreamFile stream =
      write_stream(*simulation, header, ixps, days, config.smoke ? 20'000 : kFlowsPerDataset,
                   config.work_dir + "/live.mtflow", datasets, destinations);
  if (stream.frames.empty()) {
    outcome.error("cannot write the flow stream");
    return outcome;
  }

  // Epoch 0 is the empty map the server starts on; epoch k is what the
  // daemon publishes when day k-1 closes, referenced by a batch build that
  // folds every dataset of the days the window then retains into one fresh
  // VantageStats (no per-day slices, no tree merge).
  std::vector<std::vector<std::uint8_t>> ref_bytes(static_cast<std::size_t>(days) + 1);
  std::vector<std::shared_ptr<const serve::TelescopeIndex>> ref_index(ref_bytes.size());
  std::vector<bool> full_window(ref_bytes.size(), false);
  {
    const auto meta = ingest::publish_metadata(header, window_days, {}, 0, 0, kCreatedUnixS);
    ref_bytes[0] = serve::serialize_snapshot(
        serve::build_snapshot(pipeline::InferenceResult{}, simulation->plan().rib(), meta));
  }
  BatchOptions build;
  build.analytics = true;
  build.live_header = header;
  build.window_days = window_days;
  std::size_t last_blocks = 0;
  for (int k = 1; k <= days; ++k) {
    std::vector<int> retained;
    for (int d = std::max(0, k - window_days); d <= k - 1; ++d) retained.push_back(d);
    full_window[static_cast<std::size_t>(k)] = static_cast<int>(retained.size()) == window_days;
    pipeline::VantageStats stats(simulation->plan().universe_mask(), true);
    for (const auto& dataset : datasets) {
      if (dataset.day >= retained.front() && dataset.day <= retained.back()) {
        stats.add_flows(dataset.flows, dataset.sampling_rate, dataset.day);
      }
    }
    BatchResult ref = finish_build(*simulation, stats, retained, build);
    last_blocks = ref.snapshot.blocks.size();
    ref_bytes[static_cast<std::size_t>(k)] = std::move(ref.bytes);
  }
  datasets.clear();
  datasets.shrink_to_fit();
  for (std::size_t k = 0; k < ref_bytes.size(); ++k) {
    ref_index[k] = index_of(ref_bytes[k]);
    if (!ref_index[k]) {
      outcome.error("reference epoch " + std::to_string(k) + " does not parse");
      return outcome;
    }
  }
  const QuerySet queries = make_queries(destinations, ref_index.back()->snapshot(), config.seed);
  const std::string snapshot_path = config.work_dir + "/live.snap";
  const std::string fifo = config.work_dir + "/live.fifo";

  const auto make_fifo = [&] {
    ::unlink(fifo.c_str());
    return ::mkfifo(fifo.c_str(), 0600) == 0;
  };
  ingest::IngestConfig daemon_config;
  daemon_config.source_path = fifo;
  daemon_config.snapshot_out = snapshot_path;
  daemon_config.window_days = window_days;
  daemon_config.cadence_days = 1;
  daemon_config.threads = threads;
  daemon_config.analytics = true;
  daemon_config.created_unix_s = kCreatedUnixS;

  // Launch -> the server answers its first lookup and the daemon has taken
  // its first dataset frame.
  const auto time_setup = [&]() -> double {
    if (!replace_file(snapshot_path, ref_bytes[0]) || !make_fifo()) return -1;
    const std::int64_t t0 = now_ns();
    serve::ServerConfig server_config;
    server_config.snapshot_path = snapshot_path;
    ServerHarness server;
    if (!server.start(server_config, host.system_cpus, false)) return -1;
    ingest::IngestConfig setup_config = daemon_config;
    setup_config.snapshot_out = config.work_dir + "/setup.snap";
    ingest::IngestDaemon daemon(setup_config);
    std::thread daemon_thread([&] {
      pin_current_thread(host.system_cpus);
      (void)daemon.run();
    });
    const bool answered = LookupClient::probe_once(server.port(), queries.addrs.front());
    StreamFile head = stream;
    head.frames.resize(2);  // header + first dataset
    head.frames.push_back(stream.frames.back());
    std::int64_t t1 = 0;
    {
      const int file = ::open(stream.path.c_str(), O_RDONLY | O_CLOEXEC);
      const int pipe = open_fifo_writer(fifo);
      std::vector<char> buffer;
      for (std::size_t i = 0; i < head.frames.size() && file >= 0 && pipe >= 0; ++i) {
        const auto& frame = head.frames[i];
        buffer.resize(frame.length);
        if (::pread(file, buffer.data(), frame.length, static_cast<off_t>(frame.offset)) < 0) break;
        std::size_t written = 0;
        while (written < buffer.size()) {
          const auto n = ::write(pipe, buffer.data() + written, buffer.size() - written);
          if (n <= 0) break;
          written += static_cast<std::size_t>(n);
        }
        if (i == 1) t1 = now_ns();
      }
      if (pipe >= 0) ::close(pipe);
      if (file >= 0) ::close(file);
    }
    daemon_thread.join();
    server.stop();
    return answered && t1 > 0 ? static_cast<double>(t1 - t0) / 1e9 : -1;
  };

  const auto run_pass = [&](bool traced, bool cross_check, Tracer& tracer, Composition& comp) {
    Pass pass;
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) setups.push_back(time_setup());
    if (*std::min_element(setups.begin(), setups.end()) < 0) outcome.error("set-up failed");
    pass.setup_s = median(setups);
    const double rss0 = reset_peak_rss();

    if (!replace_file(snapshot_path, ref_bytes[0]) || !make_fifo()) {
      outcome.error("cannot prepare " + snapshot_path);
      return pass;
    }
    serve::ServerConfig server_config;
    server_config.snapshot_path = snapshot_path;
    server_config.watch_interval_ms = 10;
    ServerHarness server;
    if (!server.start(server_config, host.system_cpus, traced)) {
      outcome.error("server start failed");
      return pass;
    }
    EpochBook book(ref_index.size(), queries.verbs);
    book.add(ref_index[0], false);
    for (std::size_t k = 1; k < ref_index.size(); ++k) {
      book.add(k == 1 && config.wrong_verdict ? corrupted_index(ref_index[k]->snapshot()) : ref_index[k],
               full_window[k]);
    }
    // IngestDaemon publishes on its own thread, so the mark of published
    // epochs comes from the server: the epoch it holds now, told apart by
    // its metadata (unique per retained day range).
    book.set_installed_probe([&server, &ref_index] {
      const auto current = server.server().manager().current();
      for (std::size_t k = ref_index.size(); current != nullptr && k-- > 0;) {
        if (current->snapshot().meta == ref_index[k]->snapshot().meta) return k;
      }
      return std::size_t{0};
    });
    ClientMix mix;
    mix.count_in_share = 0.05;
    mix.verb_share = 0.0005;
    mix.probe_share = 0.3;
    LookupClient client(book, queries, mix, config.seed);
    if (config.smoke) client.set_warmup(0);
    if (!client.connect(server.port(), 1, 1, 1, host.client_cpus)) {
      outcome.error("client cannot connect");
      server.stop();
      return pass;
    }
    std::atomic<bool> stop{false};
    std::thread client_thread([&] { pass.client = client.run(1e9, kBinRate, kLineRate, &stop); });

    // Traced runs: watch the server's epoch counter to time each reload.
    std::vector<std::int64_t> installed;
    std::atomic<bool> monitor_stop{false};
    std::thread monitor;
    if (traced) {
      monitor = std::thread([&] {
        pin_current_thread(host.client_cpus);
        std::uint64_t seen = server.server().manager().epoch();
        while (!monitor_stop.load(std::memory_order_acquire)) {
          const std::uint64_t now_epoch = server.server().manager().epoch();
          for (; seen < now_epoch; ++seen) installed.push_back(now_ns());
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      });
    }

    const double cpu0 = process_cpu_s();
    mtscope::obs::MetricsRegistry daemon_metrics;
    ingest::IngestDaemon daemon(daemon_config, cross_check ? &daemon_metrics : nullptr);
    daemon.on_publish = [&](std::uint64_t epoch, const serve::TelescopeSnapshot&) {
      keep_published(snapshot_path, epoch_copy(config.work_dir, epoch));
      pass.publishes = epoch;
    };
    std::thread system_thread([&] {
      pin_current_thread(host.system_cpus);
      if (traced) {
        compose(fifo, snapshot_path, config.work_dir, window_days, threads, tracer, comp);
        pass.publishes = comp.publish_end_ns.size() - 1;
      } else {
        const auto finished = daemon.run();
        if (!finished.ok()) comp.error = finished.error().to_string();
      }
    });
    pin_current_thread(host.client_cpus);
    if (!produce(stream, fifo, book, pass.producer)) outcome.error("stream producer failed");
    pin_current_thread(host.allowed);
    system_thread.join();
    if (!comp.error.empty()) outcome.error("ingest: " + comp.error);

    const std::size_t last = ref_index.size() - 1;
    while (book.served_ns(last) == 0 && now_ns() - pass.producer.first_ns < 60'000'000'000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::int64_t last_served = book.served_ns(last);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true, std::memory_order_release);
    client_thread.join();
    pass.process_cpu = process_cpu_s() - cpu0;
    if (traced) {
      monitor_stop.store(true, std::memory_order_release);
      monitor.join();
    }
    client.close();
    server.stop();
    pass.peak_rss = peak_rss_mb() - rss0;

    outcome.attempted += pass.client.attempted + static_cast<std::uint64_t>(days);
    outcome.failed += pass.client.failed;
    if (pass.client.wrong > 0) {
      outcome.error(std::to_string(pass.client.wrong) + " wrong verdict(s); first: " +
                    pass.client.first_error);
    }
    std::uint64_t missed = 0;
    pass.freshness = book.freshness_ms(&missed);
    outcome.failed += missed;
    if (last_served != 0) {
      pass.throughput = static_cast<double>(stream.flows) /
                        (static_cast<double>(last_served - pass.producer.first_ns) / 1e9);
    }

    // Every epoch on disk must be the reference batch build, byte for byte.
    if (pass.publishes != static_cast<std::uint64_t>(days)) {
      outcome.failed += static_cast<std::uint64_t>(days) - std::min<std::uint64_t>(days, pass.publishes);
      outcome.error("published " + std::to_string(pass.publishes) + " of " + std::to_string(days) +
                    " epochs");
    }
    for (std::size_t k = 1; k <= pass.publishes && k < ref_bytes.size(); ++k) {
      if (read_file(epoch_copy(config.work_dir, k)) != ref_bytes[k]) {
        outcome.error("epoch " + std::to_string(k) + " is not byte-identical to its batch reference");
      }
      ::unlink(epoch_copy(config.work_dir, k).c_str());
    }
    if (cross_check) {
      // The daemon's own obs registry must agree with what was streamed.
      if (daemon_metrics.counter_value("ingest.flows") != stream.flows ||
          daemon_metrics.counter_value("ingest.days") != static_cast<std::uint64_t>(days) ||
          daemon_metrics.counter_value("ingest.publish.failures") != 0) {
        outcome.error("ingest.* obs counters disagree with the stream");
      }
    }

    if (traced) {
      // installed[k - 1] is the server's k-th reload after its start epoch.
      for (std::size_t k = 1; k < comp.publish_end_ns.size() && k <= installed.size(); ++k) {
        tracer.add("serve.reload", comp.publish_end_ns[k], installed[k - 1], static_cast<std::int64_t>(k));
      }
      Metrics& layers = outcome.layers;
      const auto self = tracer.self_ms_by_name();
      const auto sum = [&](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
      };
      std::vector<double> merges;
      const auto spans = tracer.spans();
      for (std::size_t k = 1; k < comp.merge_spans.size(); ++k) {
        if (full_window[k] && comp.merge_spans[k] >= 0) {
          const auto& s = spans[static_cast<std::size_t>(comp.merge_spans[k])];
          merges.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
        }
      }
      layers.set("sim.ms", sum("sim.plan"), "ms");
      layers.set("ingest.stream.decode_ms", sum("ingest.stream.next"), "ms");
      layers.set("ingest.stream.bytes", static_cast<double>(stream.bytes), "B");
      layers.set("ingest.window.insert_ms", sum("ingest.window.add_flows"), "ms");
      layers.set("ingest.window.merge_p50_ms", median(merges), "ms");
      layers.set("ingest.window.merge_max_ms",
                 merges.empty() ? 0.0 : *std::max_element(merges.begin(), merges.end()), "ms");
      layers.set("ingest.window.evict_ms", sum("ingest.window.advance_to"), "ms");
      layers.set("ingest.window.rows_evicted", static_cast<double>(comp.rows_evicted), "count");
      layers.set("ingest.publish_ms", sum("ingest.publish"), "ms");
      layers.set("ingest.publish.bytes", static_cast<double>(comp.publish_bytes), "B");
      layers.set("ingest.backlog_bytes", static_cast<double>(pass.producer.max_backlog), "B");
      layers.set("ingest.producer_blocked_ms", pass.producer.blocked_ms, "ms");
      layers.set("pipeline.tolerance_ms", sum("pipeline.tolerance"), "ms");
      layers.set("pipeline.funnel_ms", sum("pipeline.funnel"), "ms");
      layers.set("pipeline.funnel.blocks", static_cast<double>(comp.funnel_blocks), "count");
      layers.set("pipeline.store.bytes_per_block", comp.store_bytes_per_block, "B");
      layers.set("pipeline.store.arena_spills", static_cast<double>(comp.arena_spills), "count");
      layers.set("analytics.build_ms", sum("analytics.build"), "ms");
      layers.set("analytics.cells.rx", static_cast<double>(comp.cells_rx), "count");
      layers.set("analytics.cells.src_ports", static_cast<double>(comp.cells_src_ports), "count");
      layers.set("analytics.cells.src_touch", static_cast<double>(comp.cells_src_touch), "count");
      layers.set("analytics.matrix.bytes", static_cast<double>(comp.matrix_bytes), "B");
      layers.set("serve.snapshot.build_ms", sum("serve.snapshot.build"), "ms");
      layers.set("serve.reload_lag_ms", median(tracer.self_ms_of("serve.reload")), "ms");
      server_registry_metrics(server.registry(), server.server().stats().partial_flushes, layers);
      client_metrics(pass.client, pass.process_cpu, layers);
      swap_window_metric(pass.client, book, layers);

      // The slowest full-window epoch: how much of day-end -> first served
      // reply the spans along the blocking steps cover.
      double worst = -1;
      std::int64_t from = 0;
      std::int64_t to = 0;
      for (std::size_t e = 1; e < book.size(); ++e) {
        if (!full_window[e] || book.served_ns(e) == 0) continue;
        const double f = static_cast<double>(book.served_ns(e) - book.closed_ns(e)) / 1e6;
        if (f > worst) {
          worst = f;
          from = book.closed_ns(e);
          to = book.served_ns(e);
        }
      }
      if (worst > 0) {
        layers.set("trace.freshness_accounted_pct", 100.0 * tracer.covered_ms(from, to) / worst, "%");
      }
      split_merge(stream, *simulation, days - window_days, tracer, layers);
      calibrate_serve_path(*ref_index.back(), queries, tracer, layers);
    }
    ::unlink(fifo.c_str());
    return pass;
  };

  Tracer untraced(false);
  Composition unused;
  const Pass plain = run_pass(false, config.trace, untraced, unused);
  lookup_metrics(plain.client, outcome.e2e);
  common_metrics(outcome, plain.freshness, plain.setup_s, plain.throughput, plain.peak_rss);
  if (config.trace) {
    Tracer tracer(true);
    Composition comp;
    const Pass traced = run_pass(true, false, tracer, comp);
    outcome.layers.set("trace.overhead_pct",
                       plain.throughput > 0 ? 100.0 * (plain.throughput - traced.throughput) / plain.throughput
                                            : 0.0,
                       "%");
    outcome.layers.set("trace.spans", static_cast<double>(tracer.spans().size()), "count");
    if (!config.trace_out.empty()) tracer.write_json(config.trace_out);
  }

  ::unlink(stream.path.c_str());
  outcome.context = "\"inputs\": {\"stream_flows\": " + std::to_string(stream.flows) +
                    ", \"stream_bytes\": " + std::to_string(stream.bytes) +
                    ", \"days\": " + std::to_string(days) +
                    ", \"window_days\": " + std::to_string(window_days) +
                    ", \"snapshot_blocks\": " + std::to_string(last_blocks) +
                    ", \"queries\": " + std::to_string(queries.addrs.size()) +
                    ", \"hit_ratio\": " +
                    std::to_string(plain.client.lookups == 0
                                       ? 0.0
                                       : static_cast<double>(plain.client.hits) /
                                             static_cast<double>(plain.client.lookups)) +
                    "}, " +
                    host_json(host, "\"reactors\": 1, \"daemon_threads\": " + std::to_string(threads) +
                                        ", \"client_threads\": 1, \"bin_conns\": 1, \"line_conns\": 1");
  return outcome;
}

}  // namespace perfbench
