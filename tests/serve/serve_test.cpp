// The serve subsystem's contract tests: newline framing survives arbitrary
// read fragmentation and hostile lines, alert JSONL round-trips byte-exact,
// and a real ServeServer on a Unix-domain socket produces the same verdicts
// as feeding the engine directly — including across a mid-stream hot
// reload, the invariant the live service's CI gate rests on.
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/registry.h"
#include "engine/fleet_engine.h"
#include "ids/bit_counters.h"
#include "ids/golden_template.h"
#include "model/store.h"
#include "serve/alert_json.h"
#include "serve/line_framing.h"
#include "serve/replay.h"
#include "serve/server.h"
#include "telemetry/event_log.h"
#include "telemetry/metrics.h"
#include "trace/binary_trace.h"
#include "trace/candump.h"
#include "trace/log_record.h"
#include "util/json.h"
#include "util/rng.h"

namespace canids::serve {
namespace {

using util::kSecond;

// ---- line framing -----------------------------------------------------------

std::vector<std::string> frame_all(LineFramer& framer, std::string_view data,
                                   std::size_t chunk) {
  std::vector<std::string> lines;
  const auto sink = [&lines](std::string_view line) {
    lines.emplace_back(line);
  };
  for (std::size_t at = 0; at < data.size(); at += chunk) {
    const std::size_t n = std::min(chunk, data.size() - at);
    framer.feed(data.data() + at, n, sink);
  }
  framer.finish(sink);
  return lines;
}

TEST(LineFramerTest, SplitReadsReassembleIdentically) {
  const std::string data =
      "(1.000000) can0 123#DEADBEEF\n"
      "(1.000100) can0 456#00\n"
      "\n"
      "(1.000200) can0 789#CAFE\r\n"
      "trailing without newline";
  const std::vector<std::string> expected = {
      "(1.000000) can0 123#DEADBEEF", "(1.000100) can0 456#00", "",
      "(1.000200) can0 789#CAFE", "trailing without newline"};

  for (const std::size_t chunk : {1UL, 2UL, 3UL, 7UL, 16UL, 1024UL}) {
    LineFramer framer;
    EXPECT_EQ(frame_all(framer, data, chunk), expected)
        << "chunk size " << chunk;
    EXPECT_EQ(framer.oversized(), 0u);
  }
}

TEST(LineFramerTest, RandomFragmentationFuzz) {
  // Deterministic fuzz: random printable lines, random chunking. Every
  // seed must reassemble the exact line sequence.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    std::vector<std::string> expected;
    std::string data;
    const std::size_t count = 1 + rng.below(40);
    for (std::size_t i = 0; i < count; ++i) {
      std::string line;
      const std::size_t len = rng.below(120);
      for (std::size_t c = 0; c < len; ++c) {
        line.push_back(static_cast<char>(' ' + rng.below(95)));
      }
      expected.push_back(line);
      data += line;
      data.push_back('\n');
    }

    LineFramer framer;
    std::vector<std::string> lines;
    const auto sink = [&lines](std::string_view line) {
      lines.emplace_back(line);
    };
    std::size_t at = 0;
    while (at < data.size()) {
      const std::size_t n =
          std::min(1 + rng.below(13), data.size() - at);
      framer.feed(data.data() + at, n, sink);
      at += n;
    }
    framer.finish(sink);
    EXPECT_EQ(lines, expected) << "seed " << seed;
  }
}

TEST(LineFramerTest, OversizedLineIsDiscardedAndStreamRecovers) {
  LineFramer framer(16);
  const std::string data =
      "short one\n" + std::string(300, 'x') + "\nshort two\n";
  std::vector<std::string> lines;
  const auto sink = [&lines](std::string_view line) {
    lines.emplace_back(line);
  };
  // Feed in small chunks so the discard path crosses reads.
  for (std::size_t at = 0; at < data.size(); at += 7) {
    framer.feed(data.data() + at, std::min<std::size_t>(7, data.size() - at),
                sink);
  }
  framer.finish(sink);
  EXPECT_EQ(lines, (std::vector<std::string>{"short one", "short two"}));
  EXPECT_EQ(framer.oversized(), 1u);
}

TEST(LineFramerTest, UnterminatedOversizedTailCountsAtFinish) {
  LineFramer framer(8);
  const std::string data = std::string(50, 'y');  // never newline-terminated
  std::vector<std::string> lines;
  const auto sink = [&lines](std::string_view line) {
    lines.emplace_back(line);
  };
  framer.feed(data.data(), data.size(), sink);
  framer.finish(sink);
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(framer.oversized(), 1u);
}

// ---- alert JSONL ------------------------------------------------------------

engine::FleetAlert sample_alert(bool with_detail) {
  engine::FleetAlert alert;
  alert.stream = "veh-\"07\"\n";  // exercises string escaping
  alert.verdict.start = 12 * kSecond;
  alert.verdict.end = 13 * kSecond;
  alert.verdict.frames = 941;
  alert.verdict.evaluated = true;
  alert.verdict.alert = with_detail;
  alert.verdict.metric = 0.10033753152200221;   // needs %.17g to survive
  alert.verdict.threshold = 0.01;
  if (with_detail) {
    analysis::Alert detail;
    detail.alerted_bits = {0, 3, 6, 8};
    detail.ranked_candidates = {0x4F1, 0x0D3};
    detail.voters = {"bit-entropy", "interval"};
    alert.verdict.detail = std::move(detail);
  }
  return alert;
}

TEST(AlertJsonTest, RoundTripIsByteIdentical) {
  for (const bool with_detail : {true, false}) {
    const engine::FleetAlert original = sample_alert(with_detail);
    const std::string line = to_json_line(original);
    const engine::FleetAlert parsed = parse_json_line(line);
    // Byte-level schema round-trip: render(parse(render(x))) == render(x).
    EXPECT_EQ(to_json_line(parsed), line);
    EXPECT_EQ(parsed.stream, original.stream);
    EXPECT_EQ(parsed.verdict.start, original.verdict.start);
    EXPECT_EQ(parsed.verdict.frames, original.verdict.frames);
    EXPECT_EQ(parsed.verdict.alert, original.verdict.alert);
    EXPECT_EQ(parsed.verdict.metric, original.verdict.metric);
    EXPECT_EQ(parsed.verdict.detail.has_value(), with_detail);
    if (with_detail) {
      EXPECT_EQ(parsed.verdict.detail->alerted_bits,
                original.verdict.detail->alerted_bits);
      EXPECT_EQ(parsed.verdict.detail->ranked_candidates,
                original.verdict.detail->ranked_candidates);
      EXPECT_EQ(parsed.verdict.detail->voters,
                original.verdict.detail->voters);
    }
  }
}

TEST(AlertJsonTest, ParserToleratesKeyOrderAndUnknownKeys) {
  const std::string line =
      "{\"future_field\": {\"nested\": [1, 2, {\"x\": null}]}, "
      "\"alert\": true, \"stream\": \"bus\", \"metric\": 0.5, "
      "\"threshold\": 0.01, \"bits\": [2], \"start_ns\": 1000, "
      "\"end_ns\": 2000, \"frames\": 10, \"evaluated\": true}";
  const engine::FleetAlert parsed = parse_json_line(line);
  EXPECT_EQ(parsed.stream, "bus");
  EXPECT_TRUE(parsed.verdict.alert);
  EXPECT_EQ(parsed.verdict.frames, 10u);
  ASSERT_TRUE(parsed.verdict.detail.has_value());
  EXPECT_EQ(parsed.verdict.detail->alerted_bits, std::vector<int>{2});
}

TEST(AlertJsonTest, UnknownValuesNestingTooDeepThrowTypedError) {
  // 200k unclosed brackets under an unknown key once overflowed the
  // recursive skip_value()'s stack.
  EXPECT_THROW(
      parse_json_line("{\"future\": " + std::string(200'000, '[')),
      util::JsonDepthError);
  // The top-level object is one level; an unknown value may nest up to
  // the limit and no deeper.
  const int inner = util::kMaxJsonDepth - 1;
  const std::string fits = "{\"future\": " + std::string(inner, '[') +
                           std::string(inner, ']') + ", \"stream\": \"s\"}";
  EXPECT_EQ(parse_json_line(fits).stream, "s");
  const std::string too_deep = "{\"future\": " +
                               std::string(inner + 1, '[') +
                               std::string(inner + 1, ']') + "}";
  EXPECT_THROW(parse_json_line(too_deep), util::JsonDepthError);
}

TEST(AlertJsonTest, MalformedLinesThrow) {
  EXPECT_THROW(parse_json_line(""), std::runtime_error);
  EXPECT_THROW(parse_json_line("{\"stream\": \"x\""), std::runtime_error);
  EXPECT_THROW(parse_json_line("{\"stream\": \"x\"} junk"),
               std::runtime_error);
  EXPECT_THROW(parse_json_line("{\"alert\": maybe}"), std::runtime_error);
  // Integer fields are converted exactly into their C++ type, never cast;
  // numbers and whitespace follow RFC 8259.
  for (const char* line :
       {"{\"frames\": 1.9}", "{\"frames\": -1}", "{\"start_ns\": 1e3}",
        "{\"start_ns\": 99999999999999999999999}", "{\"metric\": 1.2.3}",
        "{\"metric\": -}", "{\"bits\": [99999999999]}",
        "\v{\"stream\": \"x\"}"}) {
    EXPECT_THROW(parse_json_line(line), std::runtime_error) << line;
  }
}

// ---- the server over a real Unix-domain socket ------------------------------

/// Synthetic world shared by the socket tests: a golden template over a
/// small ID pool plus deterministic candump traffic with injected seconds.
struct ServeWorld {
  std::vector<std::uint32_t> pool = {0x080, 0x120, 0x1C0, 0x260, 0x300,
                                     0x3A0, 0x440, 0x4E0, 0x580, 0x620};
  std::shared_ptr<const ids::GoldenTemplate> golden;

  ServeWorld() {
    ids::TemplateBuilder builder;
    util::Rng rng(5);
    for (int w = 0; w < 40; ++w) {
      ids::BitCounters counters;
      for (std::uint32_t id : pool) {
        const int count = 30 + static_cast<int>(rng.between(-1, 1));
        for (int i = 0; i < count; ++i) counters.add(id);
      }
      ids::WindowSnapshot snap;
      snap.frames = counters.total();
      snap.probabilities = counters.probabilities();
      snap.entropies = counters.entropies();
      builder.add_window(snap);
    }
    golden = std::make_shared<const ids::GoldenTemplate>(
        builder.build(ids::kPaperTrainingWindows));
  }

  /// `seconds` of traffic; listed seconds get 120 injected frames.
  [[nodiscard]] std::vector<trace::LogRecord> make_trace(
      std::uint64_t seed, int seconds,
      const std::vector<int>& attacked = {}) const {
    std::vector<trace::LogRecord> records;
    for (int s = 0; s < seconds; ++s) {
      std::vector<std::uint32_t> stream;
      for (std::uint32_t id : pool) {
        for (int i = 0; i < 30; ++i) stream.push_back(id);
      }
      if (std::find(attacked.begin(), attacked.end(), s) != attacked.end()) {
        for (int i = 0; i < 120; ++i) stream.push_back(pool[4]);
      }
      util::Rng shuffle(seed * 1000 + static_cast<std::uint64_t>(s));
      for (std::size_t i = stream.size(); i > 1; --i) {
        std::swap(stream[i - 1], stream[shuffle.below(i)]);
      }
      const util::TimeNs start = static_cast<util::TimeNs>(s) * kSecond;
      const util::TimeNs step =
          kSecond / static_cast<util::TimeNs>(stream.size());
      for (std::size_t i = 0; i < stream.size(); ++i) {
        records.push_back(trace::LogRecord{
            start + static_cast<util::TimeNs>(i) * step, "can0",
            can::Frame::data_frame(can::CanId::standard(stream[i]), {})});
      }
    }
    return records;
  }

  [[nodiscard]] analysis::DetectorOptions options() const {
    analysis::DetectorOptions opts;
    opts.golden = golden;
    opts.id_pool = pool;  // alerts carry ranked candidates in their JSON
    opts.pipeline.window.duration = kSecond;
    return opts;
  }

  [[nodiscard]] engine::FleetConfig fleet_config() const {
    engine::FleetConfig config;
    config.shards = 1;
    return config;
  }
};

std::string socket_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("canids-test-") + tag + "-" +
           std::to_string(::getpid()) + ".sock"))
      .string();
}

void send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    ASSERT_GT(sent, 0) << std::strerror(errno);
    data.remove_prefix(static_cast<std::size_t>(sent));
  }
}

std::string read_reply_line(int fd) {
  std::string reply;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    reply.append(buf, static_cast<std::size_t>(got));
    const std::size_t newline = reply.find('\n');
    if (newline != std::string::npos) {
      reply.resize(newline);
      break;
    }
  }
  return reply;
}

/// Reference run: the same records through a directly-driven engine.
std::vector<std::string> direct_alert_lines(
    const ServeWorld& world, const std::vector<trace::LogRecord>& records) {
  engine::FleetEngine engine(
      analysis::make_detector("bit-entropy", world.options()),
      world.fleet_config());
  std::vector<std::string> lines;
  engine.alerts().set_handler([&lines](const engine::FleetAlert& alert) {
    lines.push_back(to_json_line(alert));
  });
  engine::FleetEngine::Stream stream = engine.open_stream("bus");
  engine.start();
  for (const trace::LogRecord& record : records) {
    stream.push(record.timestamp, record.frame.id());
  }
  stream.close();
  engine.finish();
  return lines;
}

struct RunningServer {
  std::unique_ptr<engine::FleetEngine> engine;
  std::unique_ptr<ServeServer> server;
  std::thread thread;

  RunningServer(const ServeWorld& world, ServeConfig config)
      : RunningServer(world, std::move(config), world.fleet_config()) {}

  RunningServer(const ServeWorld& world, ServeConfig config,
                engine::FleetConfig fleet_config) {
    engine = std::make_unique<engine::FleetEngine>(
        analysis::make_detector("bit-entropy", world.options()),
        std::move(fleet_config));
    server = std::make_unique<ServeServer>(*engine, std::move(config));
    engine->start();
    thread = std::thread([this] { server->run(); });
  }

  void shutdown_and_join() {
    server->post_shutdown();
    thread.join();
    engine->finish();
    server->flush_alerts();
  }

  ~RunningServer() {
    if (thread.joinable()) {
      server->post_shutdown();
      thread.join();
      engine->finish();
    }
  }
};

TEST(ServeServerTest, SocketIngestMatchesDirectEngineRun) {
  const ServeWorld world;
  const std::vector<trace::LogRecord> records =
      world.make_trace(3, 6, {2, 4});
  const std::vector<std::string> expected =
      direct_alert_lines(world, records);
  ASSERT_FALSE(expected.empty());

  ServeConfig config;
  config.uds_path = socket_path("ingest");
  const std::string alerts_path = config.uds_path + ".jsonl";
  config.alerts_out = alerts_path;
  RunningServer running(world, config);

  // Subscriber first, so it observes every alert the file sink records.
  const int subscriber = connect_addr(config.uds_path);
  send_all(subscriber, "SUBSCRIBE\n");

  const int data = connect_addr(config.uds_path);
  send_all(data, "HELLO bus\n");
  std::string payload;
  for (const trace::LogRecord& record : records) {
    payload += trace::to_candump_line(record);
    payload.push_back('\n');
  }
  // Interleave garbage: counted, never fatal (same contract as file ingest).
  payload += "this is not a frame\n";
  send_all(data, payload);
  ::close(data);

  // The stream drains asynchronously; wait for the engine to finish it.
  for (int i = 0; i < 2000; ++i) {
    const std::vector<engine::StreamStatus> status =
        running.engine->status();
    if (!status.empty() && status.front().drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Subscriber stream: one JSON line per alert, identical to the direct
  // run's rendering.
  std::vector<std::string> streamed;
  {
    LineFramer framer;
    char buf[65536];
    while (streamed.size() < expected.size()) {
      const ssize_t got = ::recv(subscriber, buf, sizeof buf, MSG_DONTWAIT);
      if (got > 0) {
        framer.feed(buf, static_cast<std::size_t>(got),
                    [&streamed](std::string_view line) {
                      streamed.emplace_back(line);
                    });
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      break;
    }
  }
  EXPECT_EQ(streamed, expected);
  ::close(subscriber);

  running.shutdown_and_join();

  // File sink: the same lines, in the same order.
  std::ifstream in(alerts_path);
  std::vector<std::string> filed;
  for (std::string line; std::getline(in, line);) filed.push_back(line);
  EXPECT_EQ(filed, expected);

  // Ingest accounting: every frame arrived, the garbage line was counted.
  const ids::PipelineCounters& totals = running.engine->totals();
  EXPECT_EQ(totals.frames, records.size());
  EXPECT_EQ(totals.parse_errors, 1u);

  std::filesystem::remove(alerts_path);
  std::filesystem::remove(config.uds_path);
}

TEST(ServeServerTest, ControlStatusReloadShutdown) {
  const ServeWorld world;

  // RELOAD re-reads this bundle from disk.
  const std::string bundle_path = socket_path("bundle") + ".bundle";
  model::save_models_file(bundle_path,
                          model::StoredModels{world.golden, nullptr, nullptr});

  ServeConfig config;
  config.uds_path = socket_path("ctl-data");
  config.control_path = socket_path("ctl");
  config.models_path = bundle_path;
  RunningServer running(world, config);

  const int data = connect_addr(config.uds_path);
  send_all(data, "HELLO veh\n(0.100000) can0 080#11\n");

  {
    const int control = connect_addr(config.control_path);
    send_all(control, "STATUS\n");
    const std::string status = read_reply_line(control);
    EXPECT_NE(status.find("\"model_generation\": 0"), std::string::npos)
        << status;
    EXPECT_NE(status.find("\"key\": \"veh\""), std::string::npos) << status;
    ::close(control);
  }
  {
    const int control = connect_addr(config.control_path);
    send_all(control, "RELOAD\n");
    EXPECT_EQ(read_reply_line(control), "ok generation=1");
    ::close(control);
  }
  {
    const int control = connect_addr(config.control_path);
    send_all(control, "RELOAD /nonexistent/path.bundle\n");
    const std::string reply = read_reply_line(control);
    EXPECT_EQ(reply.rfind("error:", 0), 0u) << reply;
    ::close(control);
  }
  EXPECT_EQ(running.engine->model_generation(), 1u);

  ::close(data);
  {
    const int control = connect_addr(config.control_path);
    send_all(control, "SHUTDOWN\n");
    EXPECT_EQ(read_reply_line(control), "ok");
    ::close(control);
  }
  running.thread.join();
  running.engine->finish();

  std::filesystem::remove(bundle_path);
}

TEST(ServeServerTest, HotReloadUnderLoadKeepsVerdictsIdentical) {
  const ServeWorld world;
  const std::vector<trace::LogRecord> records =
      world.make_trace(7, 8, {1, 5});
  const std::vector<std::string> expected =
      direct_alert_lines(world, records);
  ASSERT_FALSE(expected.empty());

  const std::string bundle_path = socket_path("reload") + ".bundle";
  model::save_models_file(bundle_path,
                          model::StoredModels{world.golden, nullptr, nullptr});

  ServeConfig config;
  config.uds_path = socket_path("reload-data");
  config.control_path = socket_path("reload-ctl");
  config.models_path = bundle_path;
  const std::string alerts_path = config.uds_path + ".jsonl";
  config.alerts_out = alerts_path;
  RunningServer running(world, config);

  const int data = connect_addr(config.uds_path);
  send_all(data, "HELLO bus\n");

  // Stream the first half, hot-reload the (identical) bundle while the
  // stream is mid-window, stream the rest: rebind_models preserves open
  // windows, so the verdict sequence must not change.
  std::string payload;
  const std::size_t half = records.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    payload += trace::to_candump_line(records[i]);
    payload.push_back('\n');
  }
  send_all(data, payload);

  {
    const int control = connect_addr(config.control_path);
    send_all(control, "RELOAD\n");
    EXPECT_EQ(read_reply_line(control), "ok generation=1");
    ::close(control);
  }

  payload.clear();
  for (std::size_t i = half; i < records.size(); ++i) {
    payload += trace::to_candump_line(records[i]);
    payload.push_back('\n');
  }
  send_all(data, payload);
  ::close(data);

  for (int i = 0; i < 2000; ++i) {
    const std::vector<engine::StreamStatus> status =
        running.engine->status();
    if (!status.empty() && status.front().drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  running.shutdown_and_join();
  EXPECT_EQ(running.engine->model_generation(), 1u);

  std::ifstream in(alerts_path);
  std::vector<std::string> filed;
  for (std::string line; std::getline(in, line);) filed.push_back(line);
  EXPECT_EQ(filed, expected);

  std::filesystem::remove(alerts_path);
  std::filesystem::remove(bundle_path);
}

// ---- METRICS verb + event log ----------------------------------------------

/// Drain a control connection until the exposition's "# EOF" terminator
/// line arrives; returns the text without the marker.
std::string read_metrics_reply(int fd) {
  std::string reply;
  char buf[4096];
  for (;;) {
    const std::size_t marker = reply.find("# EOF\n");
    if (marker != std::string::npos) {
      reply.resize(marker);
      return reply;
    }
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return reply;
    reply.append(buf, static_cast<std::size_t>(got));
  }
}

/// Minimal Prometheus text-format check: every line is a comment or
/// `name[{labels}] <integer>`, every sample's family was announced by a
/// preceding # TYPE line.
void expect_valid_prometheus(const std::string& text) {
  std::vector<std::string> typed_families;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t space = line.find(' ', 7);
      ASSERT_NE(space, std::string::npos) << line;
      typed_families.push_back(line.substr(7, space - 7));
      continue;
    }
    ASSERT_NE(line[0], '#') << "unknown comment: " << line;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    // Integer-valued samples only — the determinism contract.
    const std::string value = line.substr(space + 1);
    ASSERT_FALSE(value.empty()) << line;
    for (std::size_t i = value[0] == '-' ? 1 : 0; i < value.size(); ++i) {
      ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(value[i])))
          << "non-integer sample: " << line;
    }
    std::string name = line.substr(0, line.find_first_of("{ "));
    const bool known = std::any_of(
        typed_families.begin(), typed_families.end(),
        [&name](const std::string& family) {
          return name == family || name == family + "_bucket" ||
                 name == family + "_sum" || name == family + "_count";
        });
    ASSERT_TRUE(known) << "sample before its # TYPE: " << line;
  }
}

TEST(ServeServerTest, MetricsVerbAndEventLogCoverTheRun) {
  const ServeWorld world;
  const std::vector<trace::LogRecord> records = world.make_trace(11, 5, {2});

  ServeConfig config;
  config.uds_path = socket_path("metrics-data");
  config.control_path = socket_path("metrics-ctl");
  const std::string events_path = config.uds_path + ".events.jsonl";

  engine::FleetConfig fleet_config = world.fleet_config();
  fleet_config.metrics = std::make_shared<telemetry::MetricsRegistry>();
  fleet_config.events = std::make_shared<telemetry::EventLog>(events_path);
  fleet_config.telemetry_sample = 2;
  RunningServer running(world, config, fleet_config);

  const int data = connect_addr(config.uds_path);
  send_all(data, "HELLO veh\n");
  std::string payload;
  for (const trace::LogRecord& record : records) {
    payload += trace::to_candump_line(record);
    payload.push_back('\n');
  }
  send_all(data, payload);
  ::close(data);
  for (int i = 0; i < 2000; ++i) {
    const std::vector<engine::StreamStatus> status = running.engine->status();
    if (!status.empty() && status.front().drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const int control = connect_addr(config.control_path);
  send_all(control, "METRICS\n");
  const std::string text = read_metrics_reply(control);
  ::close(control);
  expect_valid_prometheus(text);

  // Engine and serve families come out of the one registry together, and
  // the frame counter agrees with the engine's own accounting.
  EXPECT_NE(text.find("# TYPE canids_frames_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("canids_frames_total " +
                      std::to_string(records.size()) + "\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("canids_model_generation 0\n"), std::string::npos);
  EXPECT_NE(text.find("canids_serve_connections_total"), std::string::npos);
  // Sampling was on, so the hot-path histograms carry observations.
  EXPECT_NE(text.find("canids_scoring_batch_ns_count"), std::string::npos);

  // stats() reads the same counters the exposition renders.
  const ServeStats stats = running.server->stats();
  EXPECT_EQ(stats.connections, 2u);  // data + this control connection
  EXPECT_EQ(stats.streams_opened, 1u);

  running.shutdown_and_join();
  fleet_config.events->flush();

  // The event log recorded the lifecycle in sequence order.
  std::ifstream in(events_path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.front().rfind("{\"seq\":0,", 0), 0u) << lines.front();
  std::uint64_t expected_seq = 0;
  bool saw_open = false, saw_close = false, saw_drained = false,
       saw_stop = false;
  for (const std::string& line : lines) {
    const std::string prefix =
        "{\"seq\":" + std::to_string(expected_seq) + ",";
    EXPECT_EQ(line.rfind(prefix, 0), 0u) << line;
    ++expected_seq;
    saw_open |= line.find("\"type\":\"stream_open\"") != std::string::npos;
    saw_close |= line.find("\"type\":\"stream_close\"") != std::string::npos;
    saw_drained |=
        line.find("\"type\":\"stream_drained\"") != std::string::npos;
    saw_stop |= line.find("\"type\":\"serve_stop\"") != std::string::npos;
  }
  EXPECT_TRUE(saw_open);
  EXPECT_TRUE(saw_close);
  EXPECT_TRUE(saw_drained);
  EXPECT_TRUE(saw_stop);

  std::filesystem::remove(events_path);
  std::filesystem::remove(config.uds_path);
  std::filesystem::remove(config.control_path);
}

// ---- the BINARY wire mode ---------------------------------------------------

/// Extract one integer sample from a Prometheus exposition, or -1.
std::int64_t metric_value(const std::string& text, const std::string& series) {
  const std::string needle = series + " ";
  std::size_t at = text.find(needle);
  // Only accept a match at the start of a line.
  while (at != std::string::npos && at != 0 && text[at - 1] != '\n') {
    at = text.find(needle, at + 1);
  }
  if (at == std::string::npos) return -1;
  return std::stoll(text.substr(at + needle.size()));
}

TEST(ServeServerTest, BinarySocketIngestMatchesDirectEngineRun) {
  const ServeWorld world;
  const std::vector<trace::LogRecord> records =
      world.make_trace(13, 6, {2, 4});
  const std::vector<std::string> expected =
      direct_alert_lines(world, records);
  ASSERT_FALSE(expected.empty());

  ServeConfig config;
  config.uds_path = socket_path("binary-data");
  config.control_path = socket_path("binary-ctl");
  const std::string alerts_path = config.uds_path + ".jsonl";
  config.alerts_out = alerts_path;
  engine::FleetConfig fleet_config = world.fleet_config();
  fleet_config.metrics = std::make_shared<telemetry::MetricsRegistry>();
  RunningServer running(world, config, fleet_config);

  const int subscriber = connect_addr(config.uds_path);
  send_all(subscriber, "SUBSCRIBE\n");

  const int data = connect_addr(config.uds_path);
  std::string payload = "HELLO bus\nBINARY\n";
  unsigned char record_bytes[trace::kBinaryRecordBytes];
  for (const trace::LogRecord& record : records) {
    trace::encode_binary_record(record.timestamp, record.frame, 0,
                                record_bytes);
    payload.append(reinterpret_cast<const char*>(record_bytes),
                   sizeof record_bytes);
  }
  // Inject a tampered record mid-stream (reserved id bit set): counted as
  // a parse error, the connection and every later record live on.
  trace::encode_binary_record(records.front().timestamp,
                              records.front().frame, 0, record_bytes);
  record_bytes[11] |= 0x80;
  const std::size_t mid =
      payload.size() / (2 * trace::kBinaryRecordBytes) *
      trace::kBinaryRecordBytes;
  payload.insert(mid, reinterpret_cast<const char*>(record_bytes),
                 sizeof record_bytes);

  // Send in two pieces split inside a record so the partial-carry path
  // runs over a real socket.
  const std::size_t split = payload.size() / 2 + 11;
  send_all(data, std::string_view(payload).substr(0, split));
  send_all(data, std::string_view(payload).substr(split));

  // Disconnect mid-record: a trailing partial is one more parse error.
  trace::encode_binary_record(records.front().timestamp,
                              records.front().frame, 0, record_bytes);
  send_all(data, std::string_view(
                     reinterpret_cast<const char*>(record_bytes), 10));
  ::close(data);

  for (int i = 0; i < 2000; ++i) {
    const std::vector<engine::StreamStatus> status =
        running.engine->status();
    if (!status.empty() && status.front().drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // STATUS reports the stream's negotiated wire mode.
  {
    const int control = connect_addr(config.control_path);
    send_all(control, "STATUS\n");
    const std::string status = read_reply_line(control);
    EXPECT_NE(status.find("\"key\": \"bus\""), std::string::npos) << status;
    EXPECT_NE(status.find("\"wire\": \"binary\""), std::string::npos)
        << status;
    ::close(control);
  }
  // The wire counters split by mode: every valid record landed as binary,
  // none as text.
  {
    const int control = connect_addr(config.control_path);
    send_all(control, "METRICS\n");
    const std::string text = read_metrics_reply(control);
    ::close(control);
    EXPECT_EQ(metric_value(text,
                           "canids_wire_records_total{mode=\"binary\"}"),
              static_cast<std::int64_t>(records.size()));
    EXPECT_EQ(metric_value(text, "canids_wire_records_total{mode=\"text\"}"),
              0);
    EXPECT_GE(metric_value(text, "canids_ingest_bytes_total"),
              static_cast<std::int64_t>(payload.size()));
  }

  std::vector<std::string> streamed;
  {
    LineFramer framer;
    char buf[65536];
    while (streamed.size() < expected.size()) {
      const ssize_t got = ::recv(subscriber, buf, sizeof buf, MSG_DONTWAIT);
      if (got > 0) {
        framer.feed(buf, static_cast<std::size_t>(got),
                    [&streamed](std::string_view line) {
                      streamed.emplace_back(line);
                    });
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      break;
    }
  }
  EXPECT_EQ(streamed, expected);
  ::close(subscriber);

  running.shutdown_and_join();

  std::ifstream in(alerts_path);
  std::vector<std::string> filed;
  for (std::string line; std::getline(in, line);) filed.push_back(line);
  EXPECT_EQ(filed, expected);

  // Every real frame arrived; the tampered record and the trailing
  // partial were counted, not fatal.
  const ids::PipelineCounters& totals = running.engine->totals();
  EXPECT_EQ(totals.frames, records.size());
  EXPECT_EQ(totals.parse_errors, 2u);

  std::filesystem::remove(alerts_path);
  std::filesystem::remove(config.uds_path);
  std::filesystem::remove(config.control_path);
}

TEST(SendTraceTest, BinaryWireReplayMatchesDirectRun) {
  const ServeWorld world;
  const std::vector<trace::LogRecord> records = world.make_trace(17, 5, {2});
  const std::vector<std::string> expected =
      direct_alert_lines(world, records);
  ASSERT_FALSE(expected.empty());

  // A canidsBT capture, as `canids convert` writes it.
  const std::string trace_path = socket_path("binreplay") + ".bt";
  {
    std::ofstream out(trace_path, std::ios::binary);
    trace::Trace trace(records.begin(), records.end());
    trace::write_binary_trace(out, trace);
  }

  ServeConfig config;
  config.uds_path = socket_path("binreplay-data");
  const std::string alerts_path = config.uds_path + ".jsonl";
  config.alerts_out = alerts_path;
  RunningServer running(world, config);

  // kAuto on a binary capture streams records without a text round-trip:
  // exactly 22 bytes per frame after the negotiation lines.
  SendOptions options;
  options.key = "bus";
  options.wire = SendWire::kAuto;
  const SendStats stats = send_trace(config.uds_path, trace_path, options);
  EXPECT_EQ(stats.frames, records.size());
  EXPECT_EQ(stats.bytes, std::string("HELLO bus\nBINARY\n").size() +
                             records.size() * trace::kBinaryRecordBytes);

  for (int i = 0; i < 2000; ++i) {
    const std::vector<engine::StreamStatus> status =
        running.engine->status();
    if (!status.empty() && status.front().drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  running.shutdown_and_join();

  EXPECT_EQ(running.engine->totals().frames, records.size());
  EXPECT_EQ(running.engine->totals().parse_errors, 0u);

  std::ifstream in(alerts_path);
  std::vector<std::string> filed;
  for (std::string line; std::getline(in, line);) filed.push_back(line);
  EXPECT_EQ(filed, expected);

  std::filesystem::remove(alerts_path);
  std::filesystem::remove(trace_path);
}

TEST(SendTraceTest, ReplaysACandumpFileOverTheSocket) {
  const ServeWorld world;
  const std::vector<trace::LogRecord> records = world.make_trace(9, 3, {1});

  // Write the capture the way `canids simulate` would.
  const std::string trace_path = socket_path("replay") + ".log";
  {
    std::ofstream out(trace_path);
    for (const trace::LogRecord& record : records) {
      out << trace::to_candump_line(record) << '\n';
    }
    out << "# trailing comment\n";
  }

  ServeConfig config;
  config.uds_path = socket_path("replay-data");
  RunningServer running(world, config);

  SendOptions options;
  options.key = "replayed";
  const SendStats stats = send_trace(config.uds_path, trace_path, options);
  EXPECT_EQ(stats.frames, records.size());
  EXPECT_GT(stats.bytes, stats.frames);  // every line outweighs one frame

  for (int i = 0; i < 2000; ++i) {
    const std::vector<engine::StreamStatus> status =
        running.engine->status();
    if (!status.empty() && status.front().drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  running.shutdown_and_join();

  EXPECT_EQ(running.engine->totals().frames, records.size());

  std::filesystem::remove(trace_path);
}

}  // namespace
}  // namespace canids::serve
