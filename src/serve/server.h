// The live fleet service: a poll()-driven socket front door for
// FleetEngine. Clients connect over TCP or a Unix-domain socket and write
// candump-format frame lines; each connection becomes one engine stream
// (keyed by its HELLO line, or a generated connection id), flowing through
// the same per-stream SPSC shard queues as batch ingest. Alerting windows
// fan out as JSON lines (serve/alert_json.h) to subscriber connections
// and/or an --alerts-out JSONL sink. A control socket (and signals, via
// the async-signal-safe post_* entry points) exposes STATUS / RELOAD /
// SHUTDOWN: status is a JSON dump of per-stream counters + queue depths,
// and reload hot-swaps the trained models of every running stream without
// disconnecting anything (FleetEngine::reload_models).
//
// Data protocol (newline-framed text, one stream per connection):
//   HELLO <key>      optional first line: name this stream
//   SUBSCRIBE        turn this connection into an alert subscriber
//   BINARY           switch this connection to the binary wire mode: every
//                    byte after the newline is a stream of canidsBT
//                    22-byte records (see serve/wire_framing.h)
//   <candump line>   e.g. "(1.234567) can0 123#DEADBEEF" — one frame
// Malformed lines (and invalid binary records) are counted against the
// stream (parse_errors) and the connection keeps going — same contract as
// file ingest. Closing the connection closes the stream; its final partial
// window is still judged. Both modes batch ingest per recv chunk: parsed
// frames accumulate in a per-connection scratch vector and land in the
// engine with one push_batch call per chunk.
//
// Control protocol (one reply line per command line; METRICS is the one
// multi-line reply, terminated by a "# EOF" line):
//   STATUS           -> the status JSON object
//   METRICS          -> Prometheus text exposition, then "# EOF"
//   RELOAD [path]    -> "ok generation=N" | "error: <why>"
//   SHUTDOWN         -> "ok" (run() returns after teardown)
//
// Observability: the server publishes service-level counters into the
// engine's telemetry::MetricsRegistry (or a private one when the engine
// has none), so STATUS, the METRICS exposition, and stats() are three
// views of the same instruments. Lifecycle events (serve start/stop,
// stream close, queue-drop and parse-error bursts, reload failures) go to
// the engine's EventLog when configured.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/fleet_engine.h"
#include "serve/line_framing.h"

namespace canids::serve {

struct ServeConfig {
  /// Unix-domain data listener path; empty = no UDS listener. An existing
  /// socket file at the path is replaced.
  std::string uds_path;
  /// TCP data listener port; -1 = no TCP listener, 0 = ephemeral (read the
  /// resolved port back with tcp_port()).
  int tcp_port = -1;
  std::string tcp_host = "127.0.0.1";
  /// Control-socket path (UDS); empty = no control endpoint (signals still
  /// work).
  std::string control_path;
  /// Append alert JSONL here; empty = no file sink.
  std::string alerts_out;
  /// Model bundle (re-)read by RELOAD / SIGHUP when no explicit path is
  /// given with the command.
  std::string models_path;
  /// Longest accepted input line (see LineFramer).
  std::size_t max_line = LineFramer::kDefaultMaxLine;
};

/// Monotone service-level counters (stream-level ones live in
/// FleetEngine::status). subscriber_dropped counts alert lines a slow or
/// gone subscriber did not receive — alert fan-out is best-effort by
/// design; the JSONL file sink and the engine's own accounting are the
/// lossless records.
struct ServeStats {
  std::uint64_t connections = 0;
  std::uint64_t streams_opened = 0;
  std::uint64_t alerts = 0;
  std::uint64_t reloads = 0;
  std::uint64_t subscriber_dropped = 0;
};

/// One server around one running engine. Construct, then run() on the
/// thread that should block serving (the engine's shard workers do the
/// detection work; run() only moves bytes). The engine must be start()ed
/// before run() and finish()ed by the caller after run() returns — alerts
/// emitted during the final drain still reach the sinks, so flush() last.
class ServeServer {
 public:
  ServeServer(engine::FleetEngine& engine, ServeConfig config);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Serve until SHUTDOWN (control command or post_shutdown). On return
  /// every data connection has been drained through its framer and its
  /// stream close()d; listeners and sockets are torn down.
  void run();

  /// Async-signal-safe shutdown/reload/status-dump requests (each writes
  /// one byte to a self-pipe; run() acts on them). Wire these to
  /// SIGINT/SIGTERM, SIGHUP, and SIGUSR1.
  void post_shutdown() noexcept;
  void post_reload() noexcept;
  void post_status() noexcept;

  /// The TCP listener's resolved port (meaningful when config.tcp_port was
  /// 0); -1 without a TCP listener.
  [[nodiscard]] int tcp_port() const noexcept { return tcp_port_; }

  /// The status JSON object (one line): service stats + uptime + model
  /// generation + one row per stream. Thread-safe.
  [[nodiscard]] std::string status_json() const;

  /// The Prometheus exposition behind the METRICS verb: folds the
  /// engine's state into the registry (FleetEngine::publish_metrics),
  /// refreshes serve-level gauges, renders. Thread-safe.
  [[nodiscard]] std::string metrics_text();

  [[nodiscard]] ServeStats stats() const;

  /// Flush the alerts-out sink (call after engine.finish()). False when
  /// any alert line written to it so far was lost (e.g. a full disk); true
  /// with no sink.
  [[nodiscard]] bool flush_alerts();

 private:
  struct Connection;

  /// One alert subscriber: queued-but-unsent alert lines are coalesced
  /// into vectored sendmsg calls, the front line possibly mid-send.
  struct SubscriberState {
    int fd = -1;
    std::deque<std::string> pending;
    std::size_t front_offset = 0;  ///< bytes of pending.front() already sent
    std::size_t pending_bytes = 0;
  };

  void setup_listeners();
  void teardown();
  [[nodiscard]] int accept_on(int listener_fd);
  void handle_data_line(Connection& conn, std::string_view line);
  void handle_control_line(Connection& conn, std::string_view line);
  /// One recv chunk on a data connection: frame (text or binary), batch
  /// into the connection scratch, land with one push_batch.
  void handle_data_chunk(Connection& conn, const char* data,
                         std::size_t size);
  /// push_batch the connection scratch into its stream (opened on demand)
  /// and count the records under the given wire mode.
  void flush_scratch(Connection& conn, bool binary);
  /// Record binary-framer faults that appeared since the last chunk as
  /// per-stream parse errors.
  void note_wire_faults(Connection& conn);
  /// Publish/refresh the connection's wire mode for STATUS.
  void note_wire_mode(Connection& conn);
  void read_connection(Connection& conn);
  void close_connection(Connection& conn);
  void open_stream_for(Connection& conn);
  std::string do_reload(const std::string& path);
  void publish_alert(const engine::FleetAlert& alert);
  void drop_subscriber(int fd);
  /// Drain a subscriber's pending queue with vectored sendmsg; stops at
  /// EAGAIN (retried on POLLOUT). Caller holds alert_mutex_.
  void flush_subscriber(SubscriberState& sub);
  /// True when the subscriber has queued alert bytes (poll for POLLOUT).
  [[nodiscard]] bool subscriber_pending(int fd) const;
  void flush_subscriber_fd(int fd);
  /// Emit queue_drop / parse_error_burst events for counters that moved
  /// since this connection's last recv chunk (coalesces bursts).
  void note_stream_events(Connection& conn);

  engine::FleetEngine& engine_;
  ServeConfig config_;

  int uds_listener_ = -1;
  int tcp_listener_ = -1;
  int control_listener_ = -1;
  int tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};

  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_conn_id_ = 0;

  /// Guards the subscriber fd list and the alerts-out stream — written to
  /// from shard worker threads (the AlertSink handler) while run() edits
  /// the subscriber list.
  mutable std::mutex alert_mutex_;
  std::vector<SubscriberState> subscribers_;
  std::optional<std::ofstream> alerts_out_;

  /// Stream key -> wire mode ("text"/"binary") for STATUS. Separate from
  /// connections_ (run()-thread-only) because status_json is thread-safe.
  mutable std::mutex wire_mutex_;
  std::unordered_map<std::string, const char*> stream_wires_;

  /// Service-level instruments. The registry is the engine's when it has
  /// one (so METRICS exposes engine + serve families together), else a
  /// private registry holding only the serve families. The raw pointers
  /// are stable registry handles — atomic counters, no stats mutex.
  std::shared_ptr<telemetry::MetricsRegistry> registry_;
  std::shared_ptr<telemetry::EventLog> events_;
  telemetry::Counter* connections_total_ = nullptr;
  telemetry::Counter* streams_opened_total_ = nullptr;
  telemetry::Counter* alerts_total_ = nullptr;
  telemetry::Counter* reloads_total_ = nullptr;
  telemetry::Counter* subscriber_dropped_total_ = nullptr;
  telemetry::Counter* ingest_bytes_total_ = nullptr;
  telemetry::Counter* wire_records_text_ = nullptr;
  telemetry::Counter* wire_records_binary_ = nullptr;
  telemetry::Gauge* uptime_gauge_ = nullptr;
  /// Candump parse-time histogram, sampled every Nth data line when the
  /// engine's telemetry_sample knob is on; null = no timing at all.
  telemetry::Histogram* parse_hist_ = nullptr;
  std::size_t telemetry_sample_ = 0;
  std::size_t sample_tick_ = 0;

  std::int64_t started_ns_ = 0;  ///< steady-clock run() start
  std::atomic<bool> shutdown_{false};
};

}  // namespace canids::serve
