#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <array>

#include "model/store.h"
#include "serve/alert_json.h"
#include "serve/wire_framing.h"
#include "telemetry/exposition.h"
#include "trace/candump.h"

namespace canids::serve {

namespace {

/// Alert bytes a subscriber may have queued before further lines are
/// dropped (counted) — bounds memory per slow subscriber.
constexpr std::size_t kMaxSubscriberBacklog = 1u << 20;
/// iovec fan-in per sendmsg call when draining a subscriber queue.
constexpr std::size_t kMaxAlertIov = 64;

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Blocking-ish full write on a (possibly nonblocking) fd — used only for
/// small, rare control replies.
void send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent > 0) {
      data += sent;
      size -= static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 1000);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    return;  // peer gone — nothing useful to do with a control reply
  }
}

int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  (void)::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("bind(" + path + ")");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listen(" + path + ")");
  }
  set_nonblocking(fd);
  return fd;
}

int listen_tcp(const std::string& host, int port, int* resolved_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad listen address: " + host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    throw_errno("bind(" + host + ":" + std::to_string(port) + ")");
  }
  if (::listen(fd, 64) < 0) {
    ::close(fd);
    throw_errno("listen(" + host + ")");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    *resolved_port = ntohs(bound.sin_port);
  }
  set_nonblocking(fd);
  return fd;
}

}  // namespace

/// One accepted socket. Data connections own (at most) one engine stream;
/// control connections only exchange command/reply lines; subscriber
/// connections only receive alert JSONL.
struct ServeServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  bool control = false;
  bool subscriber = false;
  std::string key;  ///< from HELLO; empty = generated at stream open
  bool binary = false;  ///< wire mode: flipped by the BINARY line
  LineFramer framer;
  BinaryFramer bframer;
  /// Frames parsed from the current recv chunk, landed with one
  /// push_batch per chunk.
  std::vector<engine::FleetEngine::FrameItem> scratch;
  std::optional<engine::FleetEngine::Stream> stream;
  std::uint64_t oversized_seen = 0;
  std::uint64_t wire_faults_seen = 0;
  /// Last values the event log saw (note_stream_events deltas).
  std::uint64_t parse_errors_seen = 0;
  std::uint64_t queue_dropped_seen = 0;

  Connection(int fd_in, std::uint64_t id_in, bool control_in,
             std::size_t max_line)
      : fd(fd_in), id(id_in), control(control_in), framer(max_line) {}
};

ServeServer::ServeServer(engine::FleetEngine& engine, ServeConfig config)
    : engine_(engine), config_(std::move(config)) {
  if (config_.uds_path.empty() && config_.tcp_port < 0) {
    throw std::invalid_argument(
        "serve: need at least one data listener (uds path or tcp port)");
  }
  registry_ = engine_.config().metrics
                  ? engine_.config().metrics
                  : std::make_shared<telemetry::MetricsRegistry>();
  events_ = engine_.config().events;
  telemetry_sample_ = engine_.config().telemetry_sample;
  connections_total_ = &registry_->counter(
      "canids_serve_connections_total",
      "Accepted socket connections (data + control).");
  streams_opened_total_ = &registry_->counter(
      "canids_serve_streams_opened_total",
      "Engine streams opened for data connections.");
  alerts_total_ = &registry_->counter(
      "canids_serve_alerts_total",
      "Alert lines fanned out (file sink and/or subscribers).");
  reloads_total_ = &registry_->counter("canids_serve_reloads_total",
                                       "Successful model reloads.");
  subscriber_dropped_total_ = &registry_->counter(
      "canids_serve_subscriber_dropped_total",
      "Alert lines a slow or gone subscriber did not receive.");
  ingest_bytes_total_ = &registry_->counter(
      "canids_ingest_bytes_total",
      "Bytes received on data connections (text and binary wire).");
  wire_records_text_ = &registry_->counter(
      "canids_wire_records_total",
      "Frames accepted from the wire, by connection wire mode.",
      {{"mode", "text"}});
  wire_records_binary_ = &registry_->counter(
      "canids_wire_records_total",
      "Frames accepted from the wire, by connection wire mode.",
      {{"mode", "binary"}});
  uptime_gauge_ = &registry_->gauge("canids_serve_uptime_ns",
                                    "Nanoseconds since run() started.");
  if (telemetry_sample_ > 0) {
    parse_hist_ = &registry_->histogram(
        "canids_ingest_parse_ns",
        "Candump line parse wall time per sampled data line.",
        telemetry::latency_bounds_ns());
  }
  if (::pipe2(wake_pipe_, O_NONBLOCK | O_CLOEXEC) != 0) {
    throw_errno("pipe2");
  }
  try {
    setup_listeners();
  } catch (...) {
    teardown();
    throw;
  }
  if (!config_.alerts_out.empty()) {
    alerts_out_.emplace(config_.alerts_out,
                        std::ios::out | std::ios::trunc);
    if (!*alerts_out_) {
      teardown();
      throw std::runtime_error("serve: cannot open alerts sink " +
                               config_.alerts_out);
    }
  }
  // Alert fan-out starts immediately: shard workers call this handler for
  // every alerting window, including ones flushed during engine.finish().
  engine_.alerts().set_handler(
      [this](const engine::FleetAlert& alert) { publish_alert(alert); });
}

ServeServer::~ServeServer() {
  // Detach the fan-out handler (it captures `this`) before members die;
  // anything the engine publishes later is retained by the sink instead.
  engine_.alerts().set_handler({});
  teardown();
}

void ServeServer::setup_listeners() {
  if (!config_.uds_path.empty()) {
    uds_listener_ = listen_unix(config_.uds_path);
  }
  if (config_.tcp_port >= 0) {
    tcp_listener_ =
        listen_tcp(config_.tcp_host, config_.tcp_port, &tcp_port_);
  }
  if (!config_.control_path.empty()) {
    control_listener_ = listen_unix(config_.control_path);
  }
}

void ServeServer::teardown() {
  for (std::unique_ptr<Connection>& conn : connections_) {
    if (conn->fd >= 0) close_connection(*conn);
  }
  connections_.clear();
  auto close_listener = [](int& fd) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  };
  close_listener(uds_listener_);
  close_listener(tcp_listener_);
  close_listener(control_listener_);
  if (!config_.uds_path.empty()) (void)::unlink(config_.uds_path.c_str());
  if (!config_.control_path.empty()) {
    (void)::unlink(config_.control_path.c_str());
  }
  close_listener(wake_pipe_[0]);
  close_listener(wake_pipe_[1]);
  (void)flush_alerts();
}

void ServeServer::post_shutdown() noexcept {
  const char c = 'q';
  (void)!::write(wake_pipe_[1], &c, 1);
}

void ServeServer::post_reload() noexcept {
  const char c = 'r';
  (void)!::write(wake_pipe_[1], &c, 1);
}

void ServeServer::post_status() noexcept {
  const char c = 's';
  (void)!::write(wake_pipe_[1], &c, 1);
}

ServeStats ServeServer::stats() const {
  ServeStats s;
  s.connections = connections_total_->value();
  s.streams_opened = streams_opened_total_->value();
  s.alerts = alerts_total_->value();
  s.reloads = reloads_total_->value();
  s.subscriber_dropped = subscriber_dropped_total_->value();
  return s;
}

bool ServeServer::flush_alerts() {
  const std::lock_guard<std::mutex> lock(alert_mutex_);
  if (!alerts_out_) return true;
  alerts_out_->flush();
  return static_cast<bool>(*alerts_out_);
}

void ServeServer::publish_alert(const engine::FleetAlert& alert) {
  std::string line = to_json_line(alert);
  line.push_back('\n');
  {
    const std::lock_guard<std::mutex> lock(alert_mutex_);
    if (alerts_out_) alerts_out_->write(line.data(), line.size());
    for (SubscriberState& sub : subscribers_) {
      // Best-effort fan-out: a subscriber more than a backlog behind loses
      // the line (counted), rather than growing an unbounded queue or
      // stalling the shard worker publishing the alert.
      if (sub.pending_bytes + line.size() > kMaxSubscriberBacklog) {
        subscriber_dropped_total_->add();
        continue;
      }
      sub.pending.push_back(line);
      sub.pending_bytes += line.size();
      flush_subscriber(sub);
    }
  }
  alerts_total_->add();
}

void ServeServer::flush_subscriber(SubscriberState& sub) {
  while (!sub.pending.empty()) {
    // Coalesce queued lines into one vectored send — one syscall flushes
    // a burst of alerts instead of one send per line.
    std::array<iovec, kMaxAlertIov> iov;
    std::size_t count = 0;
    std::size_t offset = sub.front_offset;
    for (const std::string& queued : sub.pending) {
      if (count == iov.size()) break;
      iov[count].iov_base = const_cast<char*>(queued.data()) + offset;
      iov[count].iov_len = queued.size() - offset;
      offset = 0;
      ++count;
    }
    msghdr msg{};
    msg.msg_iov = iov.data();
    msg.msg_iovlen = count;
    const ssize_t sent = ::sendmsg(sub.fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      // EAGAIN: retried when poll reports the fd writable. A dead peer is
      // reaped by the run loop (recv reports the hang-up).
      return;
    }
    sub.pending_bytes -= static_cast<std::size_t>(sent);
    std::size_t advanced = static_cast<std::size_t>(sent);
    while (advanced > 0) {
      const std::size_t remain =
          sub.pending.front().size() - sub.front_offset;
      if (advanced < remain) {
        sub.front_offset += advanced;
        break;
      }
      advanced -= remain;
      sub.pending.pop_front();
      sub.front_offset = 0;
    }
  }
}

bool ServeServer::subscriber_pending(int fd) const {
  const std::lock_guard<std::mutex> lock(alert_mutex_);
  for (const SubscriberState& sub : subscribers_) {
    if (sub.fd == fd) return sub.pending_bytes > 0;
  }
  return false;
}

void ServeServer::flush_subscriber_fd(int fd) {
  const std::lock_guard<std::mutex> lock(alert_mutex_);
  for (SubscriberState& sub : subscribers_) {
    if (sub.fd == fd) {
      flush_subscriber(sub);
      return;
    }
  }
}

void ServeServer::drop_subscriber(int fd) {
  const std::lock_guard<std::mutex> lock(alert_mutex_);
  for (std::size_t i = 0; i < subscribers_.size(); ++i) {
    if (subscribers_[i].fd == fd) {
      if (i + 1 < subscribers_.size()) {
        subscribers_[i] = std::move(subscribers_.back());
      }
      subscribers_.pop_back();
      return;
    }
  }
}

void ServeServer::open_stream_for(Connection& conn) {
  std::string key = conn.key;
  if (key.empty()) key = "conn-" + std::to_string(conn.id);
  conn.stream = engine_.open_stream(std::move(key));
  streams_opened_total_->add();
  note_wire_mode(conn);
}

void ServeServer::note_wire_mode(Connection& conn) {
  if (!conn.stream) return;
  const std::lock_guard<std::mutex> lock(wire_mutex_);
  stream_wires_[conn.stream->key()] = conn.binary ? "binary" : "text";
}

void ServeServer::handle_data_line(Connection& conn, std::string_view line) {
  if (conn.subscriber) return;  // subscribers only listen
  if (line == "BINARY") {
    // Protocol upgrade: every byte after this line's newline is a canidsBT
    // record stream. The caller stops line framing and routes the rest of
    // the chunk (and every later chunk) through the binary framer.
    conn.binary = true;
    note_wire_mode(conn);
    return;
  }
  if (!conn.stream) {
    if (line.rfind("HELLO ", 0) == 0) {
      std::string_view key = line.substr(6);
      while (!key.empty() && key.front() == ' ') key.remove_prefix(1);
      while (!key.empty() && key.back() == ' ') key.remove_suffix(1);
      if (!key.empty()) conn.key = std::string(key);
      return;
    }
    if (line == "SUBSCRIBE") {
      conn.subscriber = true;
      const std::lock_guard<std::mutex> lock(alert_mutex_);
      SubscriberState sub;
      sub.fd = conn.fd;
      subscribers_.push_back(std::move(sub));
      return;
    }
  }
  const bool sampled =
      parse_hist_ != nullptr && ++sample_tick_ >= telemetry_sample_;
  std::int64_t t0 = 0;
  if (sampled) {
    sample_tick_ = 0;
    t0 = steady_now_ns();
  }
  // The detectors judge only (timestamp, id): scan the line straight to
  // them, with no record built and no exception on a malformed line.
  const trace::CandumpFields fields = trace::scan_candump_line(line);
  if (fields.fault != nullptr) {
    // Same contract as file ingest: count it against the stream and keep
    // the connection alive.
    if (!conn.stream) open_stream_for(conn);
    conn.stream->record_parse_error();
    return;
  }
  if (sampled) {
    parse_hist_->observe(static_cast<std::uint64_t>(steady_now_ns() - t0));
  }
  conn.scratch.push_back(
      engine::FleetEngine::FrameItem{fields.timestamp, fields.id});
}

std::string ServeServer::do_reload(const std::string& path) {
  const std::string& effective =
      path.empty() ? config_.models_path : path;
  if (effective.empty()) {
    return "error: no model bundle path configured (start serve with a "
           "models argument or pass RELOAD <path>)";
  }
  try {
    const model::StoredModels models = model::load_models_file(effective);
    if (models.empty()) return "error: bundle holds no models";
    engine_.reload_models(models);
  } catch (const std::exception& e) {
    if (events_) {
      events_->emit("reload_error",
                    {{"path", effective}, {"error", e.what()}});
    }
    return std::string("error: ") + e.what();
  }
  reloads_total_->add();
  return "ok generation=" + std::to_string(engine_.model_generation());
}

void ServeServer::handle_control_line(Connection& conn,
                                      std::string_view line) {
  std::string reply;
  if (line == "STATUS") {
    reply = status_json();
  } else if (line == "METRICS") {
    // The one multi-line reply: full Prometheus exposition, terminated by
    // a "# EOF" marker line so clients on a still-open connection know
    // where it ends.
    reply = metrics_text();
    reply += "# EOF";
  } else if (line == "SHUTDOWN") {
    reply = "ok";
    shutdown_.store(true, std::memory_order_release);
  } else if (line == "RELOAD" || line.rfind("RELOAD ", 0) == 0) {
    std::string path;
    if (line.size() > 7) path = std::string(line.substr(7));
    reply = do_reload(path);
  } else {
    reply =
        "error: unknown command (STATUS | METRICS | RELOAD [path] | "
        "SHUTDOWN)";
  }
  reply.push_back('\n');
  send_all(conn.fd, reply.data(), reply.size());
}

std::string ServeServer::metrics_text() {
  engine_.publish_metrics();
  const std::int64_t started = started_ns_;
  uptime_gauge_->set(started == 0 ? 0 : steady_now_ns() - started);
  return telemetry::to_prometheus_text(*registry_);
}

std::string ServeServer::status_json() const {
  const ServeStats snapshot = stats();
  std::string out = "{\"uptime_ns\": ";
  out += std::to_string(started_ns_ == 0 ? 0 : steady_now_ns() -
                                                   started_ns_);
  out += ", \"model_generation\": " +
         std::to_string(engine_.model_generation());
  out += ", \"connections\": " + std::to_string(snapshot.connections);
  out += ", \"streams_opened\": " + std::to_string(snapshot.streams_opened);
  out += ", \"alerts\": " + std::to_string(snapshot.alerts);
  out += ", \"reloads\": " + std::to_string(snapshot.reloads);
  out += ", \"subscriber_dropped\": " +
         std::to_string(snapshot.subscriber_dropped);
  out += ", \"streams\": [";
  bool first = true;
  for (const engine::StreamStatus& row : engine_.status()) {
    if (!first) out += ", ";
    first = false;
    out += "{\"key\": ";
    append_json_string(out, row.key);
    out += ", \"wire\": \"";
    {
      const std::lock_guard<std::mutex> lock(wire_mutex_);
      const auto it = stream_wires_.find(row.key);
      out += it == stream_wires_.end() ? "text" : it->second;
    }
    out += "\"";
    out += ", \"shard\": " + std::to_string(row.shard);
    out += ", \"queue_depth\": " + std::to_string(row.queue_depth);
    out += ", \"closed\": ";
    out += row.closed ? "true" : "false";
    out += ", \"drained\": ";
    out += row.drained ? "true" : "false";
    out += ", \"frames\": " + std::to_string(row.counters.frames);
    out += ", \"windows_closed\": " +
           std::to_string(row.counters.windows_closed);
    out += ", \"windows_evaluated\": " +
           std::to_string(row.counters.windows_evaluated);
    out += ", \"alerts\": " + std::to_string(row.counters.alerts);
    out += ", \"parse_errors\": " +
           std::to_string(row.counters.parse_errors);
    out += ", \"dropped_frames\": " +
           std::to_string(row.counters.dropped_frames);
    out += ", \"queue_dropped\": " +
           std::to_string(row.counters.queue_dropped);
    out += "}";
  }
  out += "]}";
  return out;
}

int ServeServer::accept_on(int listener_fd) {
  const int fd = ::accept4(listener_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (fd < 0) return -1;
  return fd;
}

void ServeServer::note_stream_events(Connection& conn) {
  if (!events_ || !conn.stream) return;
  const std::uint64_t dropped = conn.stream->queue_dropped();
  if (dropped != conn.queue_dropped_seen) {
    events_->emit("queue_drop",
                  {{"stream", conn.stream->key()},
                   {"dropped", dropped - conn.queue_dropped_seen},
                   {"total", dropped}});
    conn.queue_dropped_seen = dropped;
  }
  const std::uint64_t parse_errors = conn.stream->parse_errors();
  if (parse_errors != conn.parse_errors_seen) {
    events_->emit("parse_error_burst",
                  {{"stream", conn.stream->key()},
                   {"errors", parse_errors - conn.parse_errors_seen},
                   {"total", parse_errors}});
    conn.parse_errors_seen = parse_errors;
  }
}

void ServeServer::flush_scratch(Connection& conn, bool binary) {
  if (conn.scratch.empty()) return;
  if (!conn.stream) open_stream_for(conn);
  conn.stream->push_batch(conn.scratch.data(), conn.scratch.size());
  (binary ? wire_records_binary_ : wire_records_text_)
      ->add(conn.scratch.size());
  conn.scratch.clear();
}

void ServeServer::note_wire_faults(Connection& conn) {
  const std::uint64_t faults = conn.bframer.faults();
  if (faults == conn.wire_faults_seen) return;
  // Invalid binary records are the wire equivalent of malformed candump
  // lines: counted against the stream, connection lives (fixed-size
  // framing resumes at the next record boundary).
  if (!conn.stream) open_stream_for(conn);
  for (std::uint64_t i = conn.wire_faults_seen; i < faults; ++i) {
    conn.stream->record_parse_error();
  }
  conn.wire_faults_seen = faults;
}

void ServeServer::handle_data_chunk(Connection& conn, const char* data,
                                    std::size_t size) {
  ingest_bytes_total_->add(size);
  std::size_t pos = 0;
  if (!conn.binary) {
    pos = conn.framer.feed_some(data, size, [&](std::string_view line) {
      handle_data_line(conn, line);
      // A BINARY line stops the framer: the rest of the chunk is records.
      return !conn.binary;
    });
    if (conn.binary) {
      // Frames parsed as text before the switch land under the text
      // counter before the binary remainder is framed.
      flush_scratch(conn, /*binary=*/false);
    }
    const std::uint64_t oversized = conn.framer.oversized();
    if (oversized != conn.oversized_seen && !conn.subscriber) {
      if (!conn.stream) open_stream_for(conn);
      for (std::uint64_t i = conn.oversized_seen; i < oversized; ++i) {
        conn.stream->record_parse_error();
      }
      conn.oversized_seen = oversized;
    }
  }
  if (conn.binary && pos < size) {
    conn.bframer.feed(data + pos, size - pos, conn.scratch);
    note_wire_faults(conn);
  }
  // One engine hand-off per recv chunk: the whole chunk's frames land with
  // a single push_batch (counted drop/block semantics live in push_batch).
  flush_scratch(conn, conn.binary);
  // One event per recv chunk at most — bursts coalesce into one line with
  // a delta, not an event per frame.
  note_stream_events(conn);
}

void ServeServer::read_connection(Connection& conn) {
  char buffer[65536];
  // Bounded reads per poll round so one firehose client cannot starve the
  // rest of the loop.
  for (int round = 0; round < 8; ++round) {
    const ssize_t got = ::recv(conn.fd, buffer, sizeof buffer, 0);
    if (got > 0) {
      if (conn.control) {
        conn.framer.feed(buffer, static_cast<std::size_t>(got),
                         [&](std::string_view line) {
                           handle_control_line(conn, line);
                         });
      } else {
        handle_data_chunk(conn, buffer, static_cast<std::size_t>(got));
      }
      if (got < static_cast<ssize_t>(sizeof buffer)) return;
      continue;
    }
    if (got == 0) {
      close_connection(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    close_connection(conn);  // hard error: treat as hang-up
    return;
  }
}

void ServeServer::close_connection(Connection& conn) {
  if (conn.fd < 0) return;
  if (conn.subscriber) drop_subscriber(conn.fd);
  if (conn.control) {
    conn.framer.finish(
        [&](std::string_view line) { handle_control_line(conn, line); });
  } else {
    if (conn.binary) {
      // A buffered partial record means the client died mid-record:
      // counted as a parse error, like an unterminated garbage line.
      conn.bframer.finish();
      note_wire_faults(conn);
    } else {
      // Deliver a final unterminated line, then close the stream — the
      // shard worker flushes its last (possibly partial) window.
      conn.framer.finish(
          [&](std::string_view line) { handle_data_line(conn, line); });
      flush_scratch(conn, /*binary=*/false);
    }
    if (conn.stream) {
      conn.stream->close();
      note_stream_events(conn);
      if (events_) {
        events_->emit("stream_close", {{"stream", conn.stream->key()}});
      }
    }
  }
  ::close(conn.fd);
  conn.fd = -1;
}

void ServeServer::run() {
  started_ns_ = steady_now_ns();
  if (events_) {
    events_->emit("serve_start", {{"uds", config_.uds_path},
                                  {"tcp_port", tcp_port_},
                                  {"control", config_.control_path}});
  }
  std::vector<pollfd> fds;
  std::vector<Connection*> fd_conns;

  while (!shutdown_.load(std::memory_order_acquire)) {
    fds.clear();
    fd_conns.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    const std::size_t listeners_begin = fds.size();
    for (const int listener :
         {uds_listener_, tcp_listener_, control_listener_}) {
      if (listener >= 0) fds.push_back(pollfd{listener, POLLIN, 0});
    }
    const std::size_t conns_begin = fds.size();
    for (std::unique_ptr<Connection>& conn : connections_) {
      if (conn->fd < 0) continue;
      short events = POLLIN;
      // A subscriber with a backed-up alert queue also waits for
      // writability so the queue drains as soon as the peer catches up.
      if (conn->subscriber && subscriber_pending(conn->fd)) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{conn->fd, events, 0});
      fd_conns.push_back(conn.get());
    }

    const int ready = ::poll(fds.data(), fds.size(), 1000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // poll itself failing is unrecoverable for the loop
    }

    // Wake pipe: coalesce every pending command byte.
    if ((fds[0].revents & POLLIN) != 0) {
      char commands[64];
      ssize_t got;
      while ((got = ::read(wake_pipe_[0], commands, sizeof commands)) > 0) {
        for (ssize_t i = 0; i < got; ++i) {
          switch (commands[i]) {
            case 'q': shutdown_.store(true, std::memory_order_release); break;
            case 'r': {
              const std::string result = do_reload("");
              std::fprintf(stderr, "canids serve: reload %s\n",
                           result.c_str());
              break;
            }
            case 's':
              std::fprintf(stderr, "%s\n", status_json().c_str());
              break;
            default: break;
          }
        }
      }
    }

    // Listeners: accept everything pending.
    for (std::size_t i = listeners_begin; i < conns_begin; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const bool is_control = fds[i].fd == control_listener_;
      int fd;
      while ((fd = accept_on(fds[i].fd)) >= 0) {
        connections_.push_back(std::make_unique<Connection>(
            fd, next_conn_id_++, is_control, config_.max_line));
        connections_total_->add();
      }
    }

    // Connections with input (or hang-ups — recv() reports those as EOF).
    for (std::size_t i = conns_begin; i < fds.size(); ++i) {
      Connection& conn = *fd_conns[i - conns_begin];
      if (conn.fd >= 0 && (fds[i].revents & POLLOUT) != 0 &&
          conn.subscriber) {
        flush_subscriber_fd(conn.fd);
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (conn.fd >= 0) read_connection(conn);
    }

    // Compact closed connections.
    for (std::size_t i = 0; i < connections_.size();) {
      if (connections_[i]->fd < 0) {
        connections_[i] = std::move(connections_.back());
        connections_.pop_back();
      } else {
        ++i;
      }
    }
  }

  // Shutdown: drain every framer, close every stream, drop the sockets.
  // The engine keeps running — the caller finish()es it (flushing final
  // windows through the alert handler) and then reads the results.
  teardown();
  if (events_) {
    events_->emit("serve_stop",
                  {{"connections", connections_total_->value()},
                   {"alerts", alerts_total_->value()}});
  }
}

}  // namespace canids::serve
