// SERVE — the live service's overhead and latency, measured on real
// sockets. Three numbers the daemon's design hinges on:
//
//   direct_frames_per_sec          frames pushed straight into
//                                  FleetEngine::Stream (the in-process
//                                  ceiling)
//   socket_frames_per_sec          the same frames as candump lines through
//                                  a Unix-domain socket + LineFramer +
//                                  parser — `canids send` -> `canids serve`
//   socket_binary_frames_per_sec   the same frames as canidsBT 22-byte
//                                  records after the BINARY upgrade —
//                                  `canids send --wire binary`
//   fanout_latency_*_us            wall time from the window-closing frame
//                                  hitting the socket to the alert JSON
//                                  line arriving on a SUBSCRIBE connection
//
// The SHAPE gate requires binary socket ingest to reach >= 0.7x direct
// push, the in-process ceiling, and to beat text socket ingest: the point
// of the binary wire mode is that a socket costs it little, and that it
// stays the faster wire.
//
// Latency percentiles come from the shared telemetry::Histogram (the same
// fixed ladder the serve daemon exports over METRICS), not an ad-hoc
// sorted-vector computation; the SHAPE check asserts the two approaches
// agree on a hand-built sample. Telemetry sampling stays off in the
// throughput runs — the bench measures the unperturbed hot path.
//
//   ./bench_serve              ->  BENCH_serve.json
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/registry.h"
#include "engine/fleet_engine.h"
#include "ids/bit_counters.h"
#include "ids/golden_template.h"
#include "serve/line_framing.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "telemetry/metrics.h"
#include "trace/binary_trace.h"
#include "trace/candump.h"
#include "trace/log_record.h"
#include "util/bench_json.h"
#include "util/rng.h"

using namespace canids;

namespace {

// ~360k frames per run: about 10 ms of direct push, so the socket rows'
// 200 us drain poll and a scheduler hiccup stay small against the run.
constexpr int kThroughputSeconds = 1200;
constexpr int kLatencyWindows = 40;

const std::vector<std::uint32_t> kPool = {0x080, 0x120, 0x1C0, 0x260, 0x300,
                                          0x3A0, 0x440, 0x4E0, 0x580, 0x620};

std::shared_ptr<const ids::GoldenTemplate> make_template() {
  ids::TemplateBuilder builder;
  util::Rng rng(5);
  for (int w = 0; w < 40; ++w) {
    ids::BitCounters counters;
    for (std::uint32_t id : kPool) {
      const int count = 30 + static_cast<int>(rng.between(-1, 1));
      for (int i = 0; i < count; ++i) counters.add(id);
    }
    ids::WindowSnapshot snap;
    snap.frames = counters.total();
    snap.probabilities = counters.probabilities();
    snap.entropies = counters.entropies();
    builder.add_window(snap);
  }
  return std::make_shared<const ids::GoldenTemplate>(
      builder.build(ids::kPaperTrainingWindows));
}

/// `seconds` of shuffled clean traffic; seconds in `attacked` get 120
/// injected frames (every such window alerts against the template above).
std::vector<trace::LogRecord> make_trace(std::uint64_t seed, int seconds,
                                         bool attack_all) {
  std::vector<trace::LogRecord> records;
  for (int s = 0; s < seconds; ++s) {
    std::vector<std::uint32_t> stream;
    for (std::uint32_t id : kPool) {
      for (int i = 0; i < 30; ++i) stream.push_back(id);
    }
    if (attack_all) {
      for (int i = 0; i < 120; ++i) stream.push_back(kPool[4]);
    }
    util::Rng shuffle(seed * 1000 + static_cast<std::uint64_t>(s));
    for (std::size_t i = stream.size(); i > 1; --i) {
      std::swap(stream[i - 1], stream[shuffle.below(i)]);
    }
    const util::TimeNs start = static_cast<util::TimeNs>(s) * util::kSecond;
    const util::TimeNs step =
        util::kSecond / static_cast<util::TimeNs>(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      records.push_back(trace::LogRecord{
          start + static_cast<util::TimeNs>(i) * step, "can0",
          can::Frame::data_frame(can::CanId::standard(stream[i]), {})});
    }
  }
  return records;
}

analysis::DetectorOptions detector_options(
    std::shared_ptr<const ids::GoldenTemplate> golden) {
  analysis::DetectorOptions options;
  options.golden = std::move(golden);
  return options;
}

/// Throughput-run engine tuning, shared by the direct and both socket rows
/// so every number measures the same engine: a deeper per-stream queue and
/// bigger drain batches keep the shard worker off the wake/rotate path at
/// tens of millions of frames per second (the `fleet --queue-capacity /
/// --drain-batch` knobs an operator would turn for one firehose stream).
engine::FleetConfig throughput_config() {
  engine::FleetConfig config;
  config.queue_capacity = 1u << 16;
  config.drain_batch = 4096;
  return config;
}

void send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent > 0) {
      data += sent;
      size -= static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    std::perror("send");
    std::exit(1);
  }
}

void wait_drained(engine::FleetEngine& engine) {
  for (;;) {
    const std::vector<engine::StreamStatus> status = engine.status();
    bool all = !status.empty();
    for (const engine::StreamStatus& row : status) all = all && row.drained;
    if (all) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

double run_direct(const std::vector<trace::LogRecord>& records,
                  const std::shared_ptr<const ids::GoldenTemplate>& golden) {
  engine::FleetEngine engine(
      analysis::make_detector("bit-entropy", detector_options(golden)),
      throughput_config());
  engine::FleetEngine::Stream stream = engine.open_stream("bench");
  engine.start();
  const auto begin = std::chrono::steady_clock::now();
  for (const trace::LogRecord& record : records) {
    stream.push(record.timestamp, record.frame.id());
  }
  stream.close();
  engine.finish();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();
  return static_cast<double>(records.size()) / seconds;
}

double run_socket(const std::vector<trace::LogRecord>& records,
                  const std::shared_ptr<const ids::GoldenTemplate>& golden,
                  const std::string& uds_path, bool binary) {
  engine::FleetEngine engine(
      analysis::make_detector("bit-entropy", detector_options(golden)),
      throughput_config());
  serve::ServeConfig config;
  config.uds_path = uds_path;
  serve::ServeServer server(engine, config);
  engine.start();
  std::thread server_thread([&server] { server.run(); });

  // Render outside the timed region: the bench measures the wire + framer
  // + parser/decoder + engine path, not snprintf/encode.
  std::string payload = "HELLO bench\n";
  if (binary) {
    payload += "BINARY\n";
    unsigned char record_bytes[trace::kBinaryRecordBytes];
    for (const trace::LogRecord& record : records) {
      trace::encode_binary_record(record.timestamp, record.frame, 0,
                                  record_bytes);
      payload.append(reinterpret_cast<const char*>(record_bytes),
                     sizeof record_bytes);
    }
  } else {
    for (const trace::LogRecord& record : records) {
      payload += trace::to_candump_line(record);
      payload.push_back('\n');
    }
  }

  const int fd = serve::connect_addr(uds_path);
  // A deep client send buffer keeps the single sender thread from
  // ping-ponging with the server per ~200KB of kernel buffer — the bench
  // measures the server's ingest path, not scheduler round-trips.
  const int sndbuf = 4 * 1024 * 1024;
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  const auto begin = std::chrono::steady_clock::now();
  send_all(fd, payload.data(), payload.size());
  ::close(fd);
  wait_drained(engine);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  server.post_shutdown();
  server_thread.join();
  engine.finish();
  std::filesystem::remove(uds_path);
  return static_cast<double>(records.size()) / seconds;
}

struct LatencyStats {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t alerts = 0;
};

/// Reduce a latency histogram (nanosecond observations) to the reported
/// microsecond stats — one percentile implementation for the bench and
/// the daemon's exposition.
LatencyStats stats_from(const telemetry::HistogramSnapshot& snap) {
  LatencyStats stats;
  stats.alerts = snap.count();
  if (stats.alerts == 0) return stats;
  stats.mean_us = static_cast<double>(snap.sum) /
                  static_cast<double>(stats.alerts) / 1000.0;
  stats.p50_us = snap.quantile(0.5) / 1000.0;
  stats.p99_us = snap.quantile(0.99) / 1000.0;
  return stats;
}

/// Per-window alert latency: send every frame of window k, then the first
/// frame of window k+1 (which closes k), and clock until the alert JSON
/// line lands on the subscriber connection.
LatencyStats run_fanout_latency(
    const std::shared_ptr<const ids::GoldenTemplate>& golden,
    const std::string& uds_path) {
  engine::FleetEngine engine(
      analysis::make_detector("bit-entropy", detector_options(golden)), {});
  serve::ServeConfig config;
  config.uds_path = uds_path;
  serve::ServeServer server(engine, config);
  engine.start();
  std::thread server_thread([&server] { server.run(); });

  const int subscriber = serve::connect_addr(uds_path);
  {
    const std::string hello = "SUBSCRIBE\n";
    send_all(subscriber, hello.data(), hello.size());
  }
  const int data = serve::connect_addr(uds_path);
  {
    const std::string hello = "HELLO bench\n";
    send_all(data, hello.data(), hello.size());
  }

  // Every window carries an injection, so every window alerts.
  const std::vector<trace::LogRecord> records =
      make_trace(17, kLatencyWindows + 1, true);

  telemetry::Histogram latency_hist(telemetry::latency_bounds_ns());
  serve::LineFramer framer;
  std::size_t pending = 0;  // alert lines parsed but not yet awaited
  std::string line_payload;
  std::size_t next = 0;
  for (int window = 0; window < kLatencyWindows; ++window) {
    const util::TimeNs window_end =
        static_cast<util::TimeNs>(window + 1) * util::kSecond;
    line_payload.clear();
    while (next < records.size() &&
           records[next].timestamp < window_end) {
      line_payload += trace::to_candump_line(records[next]);
      line_payload.push_back('\n');
      ++next;
    }
    // The boundary frame that closes this window rides the same write.
    if (next < records.size()) {
      line_payload += trace::to_candump_line(records[next]);
      line_payload.push_back('\n');
      ++next;
    }
    const auto sent_at = std::chrono::steady_clock::now();
    send_all(data, line_payload.data(), line_payload.size());

    // Block until this window's alert line arrives.
    char buf[4096];
    while (pending == 0) {
      const ssize_t got = ::recv(subscriber, buf, sizeof buf, 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) {
        std::fprintf(stderr, "subscriber connection died\n");
        std::exit(1);
      }
      framer.feed(buf, static_cast<std::size_t>(got),
                  [&pending](std::string_view) { ++pending; });
    }
    --pending;
    latency_hist.observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - sent_at)
            .count()));
  }

  ::close(data);
  ::close(subscriber);
  server.post_shutdown();
  server_thread.join();
  engine.finish();
  std::filesystem::remove(uds_path);

  return stats_from(latency_hist.snapshot());
}

/// The histogram percentiles must agree with the old ad-hoc
/// sorted-vector computation: on a hand-built sample, each exact
/// percentile and the histogram's quantile estimate land in the same
/// bucket of the shared latency ladder (a bucketed estimator cannot
/// promise more), and count/sum are exact.
bool percentiles_agree() {
  std::vector<std::uint64_t> sample;
  std::uint64_t accumulated = 0;
  util::Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    // Spread over ~3 decades (2 µs .. 2 ms), like real fan-out latencies.
    const std::uint64_t v = 2'000 + rng.below(2'000'000);
    sample.push_back(v);
    accumulated += v;
  }

  telemetry::Histogram hist(telemetry::latency_bounds_ns());
  for (const std::uint64_t v : sample) hist.observe(v);
  const telemetry::HistogramSnapshot snap = hist.snapshot();

  std::sort(sample.begin(), sample.end());
  bool ok = snap.count() == sample.size() && snap.sum == accumulated;
  for (const double q : {0.5, 0.99}) {
    // The ad-hoc path: index into the sorted sample.
    const std::uint64_t exact =
        sample[static_cast<std::size_t>(q * static_cast<double>(
                                                sample.size()))];
    const auto estimated = static_cast<std::uint64_t>(snap.quantile(q));
    if (snap.bucket_index(exact) != snap.bucket_index(estimated)) {
      std::printf(
          "FAIL: q=%.2f exact %llu and histogram %llu fall in different "
          "buckets\n",
          q, static_cast<unsigned long long>(exact),
          static_cast<unsigned long long>(estimated));
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main() {
  const util::BenchTimer timer;
  const auto golden = make_template();
  const std::vector<trace::LogRecord> records =
      make_trace(3, kThroughputSeconds, false);
  const std::string uds_path =
      (std::filesystem::temp_directory_path() /
       ("canids-bench-serve-" + std::to_string(::getpid()) + ".sock"))
          .string();

  std::printf("== serve: socket ingest vs direct push (%zu frames) ==\n",
              records.size());
  // Best-of-5 per row: every stage of the pipeline shares the machine with
  // the sender thread, so a single run is at the mercy of the scheduler —
  // the max is the honest capability number.
  constexpr int kRuns = 5;
  double direct = 0.0;
  double socket_text = 0.0;
  double socket_binary = 0.0;
  for (int r = 0; r < kRuns; ++r) {
    direct = std::max(direct, run_direct(records, golden));
    socket_text = std::max(
        socket_text, run_socket(records, golden, uds_path, /*binary=*/false));
    socket_binary = std::max(
        socket_binary, run_socket(records, golden, uds_path, /*binary=*/true));
  }
  std::printf("  direct push    %12.0f frames/s\n", direct);
  std::printf("  socket text    %12.0f frames/s (%.0f%% of direct)\n",
              socket_text, 100.0 * socket_text / direct);
  std::printf(
      "  socket binary  %12.0f frames/s (%.0f%% of direct, %.1fx text)\n",
      socket_binary, 100.0 * socket_binary / direct,
      socket_binary / socket_text);

  std::printf("== serve: alert fan-out latency (%d windows) ==\n",
              kLatencyWindows);
  const LatencyStats latency = run_fanout_latency(golden, uds_path);
  std::printf(
      "  frame-in to alert-line-out: mean %.0f us, p50 %.0f us, p99 %.0f "
      "us over %zu alerts\n",
      latency.mean_us, latency.p50_us, latency.p99_us, latency.alerts);

  bool ok = percentiles_agree();
  if (latency.alerts == 0) {
    std::printf("FAIL: fan-out run produced no alerts\n");
    ok = false;
  }
  if (socket_binary < 0.7 * direct) {
    std::printf(
        "FAIL: binary socket ingest %.0f frames/s is under 0.7x direct "
        "push's %.0f frames/s\n",
        socket_binary, direct);
    ok = false;
  }
  if (socket_binary <= socket_text) {
    std::printf(
        "FAIL: binary socket ingest %.0f frames/s does not beat text's %.0f "
        "frames/s\n",
        socket_binary, socket_text);
    ok = false;
  }

  util::write_bench_json(
      "serve",
      {{"frames", static_cast<double>(records.size())},
       {"direct_frames_per_sec", direct},
       {"socket_frames_per_sec", socket_text},
       {"socket_binary_frames_per_sec", socket_binary},
       {"socket_over_direct", socket_text / direct},
       {"socket_binary_over_direct", socket_binary / direct},
       {"binary_over_text", socket_binary / socket_text},
       {"fanout_latency_mean_us", latency.mean_us},
       {"fanout_latency_p50_us", latency.p50_us},
       {"fanout_latency_p99_us", latency.p99_us},
       {"fanout_alerts", static_cast<double>(latency.alerts)},
       {"wall_seconds", timer.seconds()}});
  std::cout << (ok ? "SHAPE OK\n" : "SHAPE MISMATCH\n");
  return ok ? 0 : 1;
}
