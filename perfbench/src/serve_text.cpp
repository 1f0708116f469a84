// serve_text: an open-loop generator against a `canids serve` daemon.
//
//   perfbench serve-run --dir D --canids PATH --seconds-fixed F
//       --seconds-rung R --fixed-rate HZ --ladder HZ,HZ,...|""
//       --seconds-saturate S --trace 0|1 [--spans FILE]
//
// One generator process, at most nproc threads: the sender (this thread)
// drives 3 candump-text data connections, one HELLO-named vehicle each; a
// reader thread drains 1 SUBSCRIBE connection; a traced run adds a STATUS
// sampler. The daemon runs with --shards nproc-2 so its workers and poll
// thread fit next to the sender.
//
// Lines are pre-rendered (all but the timestamp, which moves forward each
// time a stream's loop repeats) and sent on a fixed schedule: a warm-up,
// the fixed-rate latency phase, then each ladder rate. The schedule never
// waits for the daemon; frames the socket will not take pile up as the
// generator-side backlog. The ladder ends early once the backlog holds half
// a second of the current rate's frames, twice the alert-latency limit
// run.py applies: that rate has failed, and so would every higher one.
// Every alert is timed from the moment its window-closing frame was due.
//
// The schedule is followed by a closed-loop saturation stretch that keeps
// every data socket full, so the daemon takes frames as fast as it can; its
// intake is reported per 100 ms window.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common.h"
#include "engine/fleet_engine.h"
#include "inputs.h"
#include "model/store.h"
#include "serve/alert_json.h"
#include "serve/line_framing.h"
#include "serve/replay.h"
#include "spans.h"
#include "trace/candump.h"

extern char** environ;

namespace perfbench {

namespace cn = canids;

namespace {

constexpr std::size_t kChunkFrames = 512;
constexpr std::int64_t kBacklogSampleNs = 5'000'000;
constexpr double kWarmupSeconds = 0.5;
constexpr std::int64_t kTickNs = 20'000;
/// Daemon starts timed for set-up; the first, cold one is not counted.
constexpr int kStarts = 31;
constexpr std::int64_t kConnectRetryNs = 10'000;
constexpr std::int64_t kSaturationWarmupNs = 500'000'000;
constexpr std::int64_t kSaturationWindowNs = 100'000'000;

/// One vehicle stream: a loop of frames repeated with shifted timestamps.
struct Stream {
  std::string key;
  std::vector<cn::util::TimeNs> ts;  ///< loop timestamps
  std::vector<std::string> tails;    ///< " can0 ID#DATA\n" per loop frame
  int fd = -1;
  std::uint64_t built = 0;  ///< frames rendered into `pending` or sent
  std::uint64_t sent = 0;   ///< frames fully handed to the kernel
  std::uint64_t scheduled = 0;  ///< frames sent on the open-loop schedule
  std::string pending;
  std::size_t offset = 0;

  [[nodiscard]] cn::util::TimeNs ts_of(std::uint64_t n) const {
    const std::uint64_t loop = ts.size();
    return ts[n % loop] +
           static_cast<cn::util::TimeNs>(n / loop) * kServeLoopSpan;
  }
  /// Index of the frame that closes a window ending at `end`: the first
  /// frame whose timestamp reaches it.
  [[nodiscard]] std::uint64_t closing_index(cn::util::TimeNs end) const {
    const std::uint64_t copy =
        end <= ts.front() ? 0
                          : static_cast<std::uint64_t>((end - ts.front()) /
                                                       kServeLoopSpan);
    const cn::util::TimeNs local =
        end - static_cast<cn::util::TimeNs>(copy) * kServeLoopSpan;
    const auto it = std::lower_bound(ts.begin(), ts.end(), local);
    return copy * ts.size() + static_cast<std::uint64_t>(it - ts.begin());
  }
  void render(std::uint64_t n, std::string& out) const {
    const cn::util::TimeNs t = ts_of(n);
    char buffer[48];
    buffer[0] = '(';
    char* p = std::to_chars(buffer + 1, buffer + 32, t / 1'000'000'000).ptr;
    *p++ = '.';
    const std::int64_t micros = (t % 1'000'000'000) / 1'000;
    for (std::int64_t div = 100'000; div > 0; div /= 10) {
      *p++ = static_cast<char>('0' + (micros / div) % 10);
    }
    *p++ = ')';
    out.append(buffer, p);
    out += tails[n % tails.size()];
  }
  /// One non-blocking send step: once the previous chunk is fully sent,
  /// render the next one, at most kChunkFrames and no frame from `due` on;
  /// then hand the kernel what it takes. Returns the bytes sent; `sent`
  /// advances when a chunk completes.
  std::size_t pump(std::uint64_t due) {
    if (offset == pending.size() && built < due) {
      pending.clear();
      offset = 0;
      const std::uint64_t upto = std::min(due, built + kChunkFrames);
      for (; built < upto; ++built) render(built, pending);
    }
    if (offset == pending.size()) return 0;
    const ssize_t n = ::send(fd, pending.data() + offset,
                             pending.size() - offset,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n <= 0) {
      check(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR),
            "serve_text: data connection failed");
      return 0;
    }
    offset += static_cast<std::size_t>(n);
    if (offset == pending.size()) sent = built;
    return static_cast<std::size_t>(n);
  }
};

/// A stretch of the schedule at one aggregate offered rate. Frame indices
/// [first, last) of every stream are due within it.
struct Phase {
  std::string name;
  double rate = 0.0;  ///< aggregate frames/s over all streams
  double seconds = 0.0;
  std::int64_t wall_start = 0;
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  // measured
  std::int64_t wall_end = 0;  ///< earlier than planned if the ladder stopped
  std::vector<double> latency_us;
  std::vector<double> lag_us;  ///< per completed send: done - due
  std::int64_t blocked_ns = 0;  ///< waiting for the daemon to take bytes
  std::vector<double> backlog_t;  ///< seconds since phase start
  std::vector<double> backlog;    ///< frames due but not yet sent
  std::uint64_t sent_at_start = 0;
  std::uint64_t sent_at_end = 0;
};

class Schedule {
 public:
  Schedule(std::vector<Phase>& phases, std::int64_t start, int streams)
      : phases_(phases) {
    std::int64_t wall = start;
    std::uint64_t index = 0;
    for (Phase& phase : phases_) {
      phase.wall_start = wall;
      phase.first = index;
      index += static_cast<std::uint64_t>(
          std::llround(phase.rate / streams * phase.seconds));
      phase.last = index;
      wall += static_cast<std::int64_t>(phase.seconds * 1e9);
    }
    end_ = wall;
  }
  [[nodiscard]] std::int64_t end() const { return end_; }
  [[nodiscard]] std::size_t phase_of_frame(std::uint64_t n) const {
    for (std::size_t p = 0; p < phases_.size(); ++p) {
      if (n < phases_[p].last) return p;
    }
    return phases_.size();
  }
  [[nodiscard]] std::size_t phase_at(std::int64_t wall) const {
    for (std::size_t p = 0; p + 1 < phases_.size(); ++p) {
      if (wall < phases_[p + 1].wall_start) return p;
    }
    return phases_.size() - 1;
  }
  /// When frame `n` of every stream is due.
  [[nodiscard]] std::int64_t due(std::uint64_t n) const {
    const Phase& phase = phases_[std::min(phase_of_frame(n), phases_.size() - 1)];
    const double per_stream = static_cast<double>(phase.last - phase.first) /
                              phase.seconds;
    return phase.wall_start +
           static_cast<std::int64_t>(static_cast<double>(n - phase.first) /
                                     per_stream * 1e9);
  }
  /// Frames of each stream due by `wall`.
  [[nodiscard]] std::uint64_t due_by(std::int64_t wall) const {
    if (wall >= end_) return phases_.back().last;
    const Phase& phase = phases_[phase_at(wall)];
    const double per_stream = static_cast<double>(phase.last - phase.first) /
                              phase.seconds;
    const auto n = static_cast<std::uint64_t>(
        static_cast<double>(wall - phase.wall_start) * 1e-9 * per_stream);
    return std::min(phase.first + n + 1, phase.last);
  }

 private:
  std::vector<Phase>& phases_;
  std::int64_t end_ = 0;
};

int connect_retry(const std::string& addr, std::int64_t deadline) {
  for (;;) {
    try {
      return cn::serve::connect_addr(addr);
    } catch (const std::exception&) {
      check(now_ns() < deadline, "serve_text: daemon never accepted on " + addr);
      std::this_thread::sleep_for(std::chrono::nanoseconds(kConnectRetryNs));
    }
  }
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    check(n > 0 || errno == EINTR, "serve_text: send failed");
    if (n > 0) off += static_cast<std::size_t>(n);
  }
}

/// One control-socket command; returns the first reply line.
std::string control(const std::string& addr, const std::string& command) {
  const int fd = cn::serve::connect_addr(addr);
  send_all(fd, command + "\n");
  std::string reply;
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    if (n <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
    if (reply.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  return reply.substr(0, reply.find('\n'));
}

/// Every unsigned value following `"field": ` in a flat JSON text.
std::vector<std::uint64_t> json_values(const std::string& json,
                                       const std::string& field) {
  std::vector<std::uint64_t> out;
  const std::string key = "\"" + field + "\": ";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    std::uint64_t value = 0;
    const char* begin = json.data() + at + key.size();
    std::from_chars(begin, json.data() + json.size(), value);
    out.push_back(value);
  }
  return out;
}

std::uint64_t json_sum(const std::string& json, const std::string& field) {
  std::uint64_t sum = 0;
  for (std::uint64_t v : json_values(json, field)) sum += v;
  return sum;
}

/// The daemon under test, started by posix_spawn and always reaped.
class Daemon {
 public:
  Daemon(const std::string& canids, const std::filesystem::path& dir,
         int shards)
      : data_(dir.string() + "/d.sock"), control_(dir.string() + "/c.sock") {
    std::filesystem::remove(data_);
    std::filesystem::remove(control_);
    const std::string models = (dir / "models.cbm").string();
    const std::string shard_text = std::to_string(shards);
    std::vector<std::string> args = {canids,     "serve",    models,
                                     "--uds",    data_,      "--control",
                                     control_,   "--shards", shard_text,
                                     "--quiet"};
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    const std::string log = (dir / "daemon.log").string();
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, canids.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    check(rc == 0, "serve_text: cannot start " + canids);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] const std::string& data() const { return data_; }
  [[nodiscard]] const std::string& control_addr() const { return control_; }
  [[nodiscard]] int pid() const { return pid_; }

  /// SHUTDOWN over the control socket, then reap; SIGKILL as a last resort.
  /// The daemon opens its control socket just after its data socket, so
  /// the first tries right after start may find nothing listening.
  void stop() {
    if (pid_ <= 0) return;
    const std::int64_t deadline = now_ns() + 1'000'000'000;
    for (;;) {
      try {
        (void)control(control_, "SHUTDOWN");
        break;
      } catch (const std::exception&) {
        if (now_ns() >= deadline) break;
        std::this_thread::sleep_for(std::chrono::nanoseconds(kConnectRetryNs));
      }
    }
    for (int i = 0; i < 5000; ++i) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  std::string data_;
  std::string control_;
  pid_t pid_ = -1;
};

/// Frames [0, count) of a stream, for the batch reference run.
class LoopSource final : public cn::trace::TraceSource {
 public:
  LoopSource(const Stream& stream, std::vector<cn::can::Frame> frames,
             std::uint64_t count)
      : stream_(stream), frames_(std::move(frames)), count_(count) {}
  std::optional<cn::can::TimedFrame> next() override {
    std::vector<cn::can::TimedFrame> one;
    if (fill(one, 1) == 0) return std::nullopt;
    return one.front();
  }
  std::size_t fill(std::vector<cn::can::TimedFrame>& out,
                   std::size_t max) override {
    std::size_t n = 0;
    for (; n < max && next_ < count_; ++n, ++next_) {
      cn::can::TimedFrame frame;
      frame.timestamp = stream_.ts_of(next_);
      frame.frame = frames_[next_ % frames_.size()];
      out.push_back(frame);
    }
    return n;
  }
 private:
  const Stream& stream_;
  std::vector<cn::can::Frame> frames_;  ///< the loop's frames, in order
  std::uint64_t count_;
  std::uint64_t next_ = 0;
};

std::vector<double> split_rates(const std::string& text) {
  std::vector<double> out;
  std::stringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::stod(item));
  return out;
}

}  // namespace

int serve_run(const Options& options) {
  const std::filesystem::path dir = options.str("dir");
  const std::string canids = options.str("canids");
  const bool traced = options.integer("trace") != 0;
  SpanRecorder& spans = SpanRecorder::instance();

  // -- inputs: loops and their pre-rendered line tails.
  std::vector<Stream> streams(kServeStreams);
  std::vector<std::vector<cn::can::Frame>> loop_frames(kServeStreams);
  for (int k = 0; k < kServeStreams; ++k) {
    Stream& s = streams[static_cast<std::size_t>(k)];
    s.key = "veh-" + std::to_string(k);
    for (const cn::can::TimedFrame& frame :
         read_frames(dir / "serve" / (s.key + ".bt"))) {
      const std::string line = cn::trace::to_candump_line(
          cn::trace::LogRecord{frame.timestamp, "can0", frame.frame});
      s.ts.push_back(frame.timestamp);
      s.tails.push_back(line.substr(line.find(')') + 1) + "\n");
      loop_frames[static_cast<std::size_t>(k)].push_back(frame.frame);
    }
    check(!s.ts.empty(), "serve_text: empty stream " + s.key);
    // The renderer must agree with the parser the daemon uses, including
    // on timestamps of later loop copies.
    for (std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                            static_cast<std::uint64_t>(s.ts.size()) * 1000 + 7}) {
      std::string line;
      s.render(n, line);
      line.pop_back();
      const cn::trace::LogRecord parsed = cn::trace::parse_candump_line(line);
      check(parsed.timestamp == s.ts_of(n) &&
                parsed.frame == loop_frames[static_cast<std::size_t>(k)]
                                           [n % s.ts.size()],
            "serve_text: rendered line does not parse back: " + line);
    }
  }

  // -- set-up: daemon start until the data socket accepts, kStarts times;
  // the last daemon serves the run. The daemon gets every allowed core but
  // the last, which the generator keeps, so the two never preempt each
  // other (a child inherits the mask in force when it is spawned).
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  cpu_set_t daemon_cpus = allowed;
  cpu_set_t generator_cpus = allowed;
  if (cpus.size() > 1) {
    CPU_CLR(cpus.back(), &daemon_cpus);
    CPU_ZERO(&generator_cpus);
    CPU_SET(cpus.back(), &generator_cpus);
  }
  const int daemon_shards = std::max(1, static_cast<int>(cpus.size()) - 2);
  sched_setaffinity(0, sizeof daemon_cpus, &daemon_cpus);
  std::vector<double> setup;
  std::unique_ptr<Daemon> daemon;
  int subscriber = -1;
  for (int i = 0; i < kStarts; ++i) {
    if (daemon) daemon->stop();
    const std::int64_t start = now_ns();
    daemon = std::make_unique<Daemon>(canids, dir, daemon_shards);
    subscriber = connect_retry(daemon->data(), start + 30'000'000'000);
    if (i > 0) setup.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    if (i + 1 < kStarts) ::close(subscriber);
  }
  sched_setaffinity(0, sizeof generator_cpus, &generator_cpus);
  prctl(PR_SET_TIMERSLACK, 1000UL);  // tick sleeps end within a microsecond
  send_all(subscriber, "SUBSCRIBE\n");
  for (Stream& s : streams) {
    s.fd = cn::serve::connect_addr(daemon->data());
    send_all(s.fd, "HELLO " + s.key + "\n");
  }

  // -- reader: every alert line with its arrival time. `received` belongs
  // to the reader until it is joined; `received_count` is the shared view.
  std::vector<std::pair<std::int64_t, std::string>> received;
  std::atomic<std::size_t> received_count{0};
  std::thread reader([&] {
    std::string buffer;
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::recv(subscriber, chunk, sizeof chunk, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        break;
      }
      const std::int64_t at = now_ns();
      buffer.append(chunk, static_cast<std::size_t>(n));
      std::size_t begin = 0;
      for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
           nl = buffer.find('\n', begin)) {
        received.emplace_back(at, buffer.substr(begin, nl - begin));
        begin = nl + 1;
      }
      received_count.store(received.size());
      buffer.erase(0, begin);
    }
  });

  // -- traced: STATUS sampler for engine queue depths.
  std::atomic<bool> sampling{traced};
  std::vector<double> queue_depths;
  std::thread sampler;
  if (traced) {
    sampler = std::thread([&] {
      while (sampling.load()) {
        try {
          for (std::uint64_t depth :
               json_values(control(daemon->control_addr(), "STATUS"),
                           "queue_depth")) {
            queue_depths.push_back(static_cast<double>(depth));
          }
        } catch (const std::exception&) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  // Stops both threads and the daemon on every way out of this function:
  // the sampler first, then the daemon, whose exit ends the reader's recv.
  struct Teardown {
    std::atomic<bool>& sampling;
    std::thread& sampler;
    std::unique_ptr<Daemon>& daemon;
    int subscriber;
    std::thread& reader;
    ~Teardown() {
      sampling.store(false);
      if (sampler.joinable()) sampler.join();
      daemon->stop();
      ::shutdown(subscriber, SHUT_RDWR);
      if (reader.joinable()) reader.join();
      ::close(subscriber);
    }
  } teardown{sampling, sampler, daemon, subscriber, reader};

  // -- the open-loop schedule.
  std::vector<Phase> phases;
  auto add_phase = [&phases](const char* name, double rate, double seconds) {
    Phase phase;
    phase.name = name;
    phase.rate = rate;
    phase.seconds = seconds;
    phases.push_back(std::move(phase));
  };
  add_phase("warmup", options.number("fixed-rate"), kWarmupSeconds);
  add_phase("fixed", options.number("fixed-rate"),
            options.number("seconds-fixed"));
  for (double rate : split_rates(options.str("ladder"))) {
    add_phase("rung", rate, options.number("seconds-rung"));
  }

  const Schedule schedule(phases, now_ns() + 2'000'000, kServeStreams);
  std::uint64_t bytes = 0;
  std::int64_t next_sample = phases.front().wall_start;
  std::size_t current = 0;
  auto total_sent = [&] {
    std::uint64_t sum = 0;
    for (const Stream& s : streams) sum += s.sent;
    return sum;
  };
  std::int64_t end = schedule.end();
  bool stopped = false;
  for (;;) {
    std::int64_t now = now_ns();
    if (now >= end) break;
    if (now < phases.front().wall_start) continue;
    const std::size_t phase = schedule.phase_at(now);
    if (phase != current) {
      phases[current].sent_at_end = total_sent();
      phases[current].wall_end = phases[phase].wall_start;
      phases[phase].sent_at_start = total_sent();
      current = phase;
    }
    const std::uint64_t due_n = schedule.due_by(now);
    bool progress = false;
    for (Stream& s : streams) {
      const std::uint64_t before = s.sent;
      const std::size_t n = s.pump(due_n);
      if (n == 0) continue;
      progress = true;
      bytes += n;
      if (s.sent != before) {
        phases[phase].lag_us.push_back(
            static_cast<double>(now_ns() - schedule.due(s.sent - 1)) * 1e-3);
      }
    }
    now = now_ns();
    if (now >= next_sample) {
      std::uint64_t backlog = 0;
      for (const Stream& s : streams) backlog += schedule.due_by(now) - s.sent;
      phases[phase].backlog_t.push_back(
          static_cast<double>(now - phases[phase].wall_start) * 1e-9);
      phases[phase].backlog.push_back(static_cast<double>(backlog));
      next_sample += kBacklogSampleNs;
      if (phases[phase].name == "rung" &&
          static_cast<double>(backlog) > 0.5 * phases[phase].rate) {
        end = now;  // this rate and every higher one fail
        stopped = true;
        break;
      }
    }
    if (!progress) {
      // Either every stream is caught up (sleep one tick, then send all
      // that fell due meanwhile) or the daemon is not reading (wait for
      // socket space). Ticking keeps the sender off the daemon's cores.
      std::vector<pollfd> blocked;
      for (const Stream& s : streams) {
        if (s.offset < s.pending.size()) blocked.push_back({s.fd, POLLOUT, 0});
      }
      if (!blocked.empty()) {
        ::poll(blocked.data(), blocked.size(), 1);
        phases[phase].blocked_ns += now_ns() - now;
      } else {
        std::this_thread::sleep_for(std::chrono::nanoseconds(kTickNs));
      }
    }
  }
  phases[current].sent_at_end = total_sent();
  phases[current].wall_end = end;
  phases.resize(current + 1);  // the rates the ladder never reached

  // -- saturation: a closed loop that keeps every data socket full, so the
  // daemon takes frames as fast as it can. After a warm-up, its intake is
  // measured over consecutive windows.
  std::vector<double> saturated_fps;
  std::int64_t saturation_blocked_ns = 0;
  std::int64_t saturation_ns = 0;
  for (Stream& s : streams) s.scheduled = s.built;
  {
    const std::int64_t start = now_ns();
    const std::int64_t stop =
        start + static_cast<std::int64_t>(options.number("seconds-saturate") * 1e9);
    std::int64_t window_start = start + kSaturationWarmupNs;
    std::uint64_t sent_at_window = 0;
    bool counting = false;
    for (;;) {
      const std::int64_t now = now_ns();
      if (now >= stop) break;
      if (!counting && now >= window_start) {
        sent_at_window = total_sent();
        window_start = now;
        counting = true;
      } else if (counting && now - window_start >= kSaturationWindowNs) {
        const std::uint64_t sent = total_sent();
        saturated_fps.push_back(static_cast<double>(sent - sent_at_window) /
                                (static_cast<double>(now - window_start) * 1e-9));
        sent_at_window = sent;
        window_start = now;
      }
      bool progress = false;
      for (Stream& s : streams) {
        const std::size_t n = s.pump(std::numeric_limits<std::uint64_t>::max());
        progress = progress || n > 0;
        bytes += n;
      }
      if (!progress) {
        std::vector<pollfd> blocked;
        for (const Stream& s : streams) blocked.push_back({s.fd, POLLOUT, 0});
        const std::int64_t wait = now_ns();
        ::poll(blocked.data(), blocked.size(), 1);
        if (counting) saturation_blocked_ns += now_ns() - wait;
      }
    }
    saturation_ns = std::max<std::int64_t>(0, now_ns() - start - kSaturationWarmupNs);
  }
  // Finish the chunks already rendered, then hang up: each stream's final
  // partial window is judged at close.
  for (Stream& s : streams) {
    send_all(s.fd, s.pending.substr(s.offset));
    bytes += s.pending.size() - s.offset;
    s.sent = s.built;
    s.pending.clear();
    s.offset = 0;
    ::close(s.fd);
  }

  // -- the batch reference over exactly the frames sent.
  const cn::model::StoredModels models =
      cn::model::load_models_file(dir / "models.cbm");
  std::vector<std::string> expected;
  std::vector<cn::engine::FleetAlert> reference_alerts;
  std::uint64_t reference_windows = 0;
  {
    cn::engine::FleetEngine engine(models, "bit-entropy",
                                   cn::analysis::DetectorOptions{},
                                   cn::engine::FleetConfig{});
    std::mutex mutex;
    engine.alerts().set_handler([&](const cn::engine::FleetAlert& alert) {
      const std::lock_guard<std::mutex> lock(mutex);
      expected.push_back(cn::serve::to_json_line(alert));
      reference_alerts.push_back(alert);
    });
    std::vector<cn::engine::NamedSource> sources;
    for (std::size_t k = 0; k < streams.size(); ++k) {
      sources.push_back(cn::engine::NamedSource{
          streams[k].key,
          std::make_unique<LoopSource>(streams[k], loop_frames[k],
                                       streams[k].sent),
          {}});
    }
    const cn::engine::FleetRunResult run =
        cn::engine::run_fleet(engine, std::move(sources), 0);
    check(run.errors.empty(), "serve_text: reference run failed");
    reference_windows = engine.totals().windows_closed;
  }

  // -- drain: every stream judged, every expected alert delivered.
  std::string status;
  const std::int64_t drain_deadline = now_ns() + 60'000'000'000;
  for (;;) {
    status = control(daemon->control_addr(), "STATUS");
    std::size_t drained = 0;
    const std::string key = "\"drained\": true";
    for (std::size_t at = status.find(key); at != std::string::npos;
         at = status.find(key, at + 1)) {
      ++drained;
    }
    if (drained == streams.size()) break;
    check(now_ns() < drain_deadline, "serve_text: daemon never drained");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::int64_t deliver_deadline = now_ns() + 5'000'000'000;
  while (received_count.load() < expected.size() &&
         now_ns() < deliver_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  status = control(daemon->control_addr(), "STATUS");
  const double daemon_rss = pid_peak_rss_mb(daemon->pid());
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  daemon->stop();
  reader.join();

  // -- correctness: received JSONL == batch JSONL, as multisets.
  std::map<std::string, int> balance;
  for (const std::string& line : expected) ++balance[line];
  std::uint64_t extra = 0;
  std::map<std::string, std::int64_t> arrival;
  for (const auto& [at, line] : received) {
    if (--balance[line] < 0) ++extra;
    arrival.emplace(line, at);
  }
  std::uint64_t missing = 0;
  for (const auto& [line, left] : balance) {
    if (left > 0) missing += static_cast<std::uint64_t>(left);
  }
  const std::uint64_t subscriber_dropped = json_sum(status, "subscriber_dropped");
  check(extra == 0, "serve_text: " + std::to_string(extra) +
                        " alert lines not in the batch reference");
  check(missing <= subscriber_dropped,
        "serve_text: " + std::to_string(missing) +
            " batch alerts never arrived (daemon reports " +
            std::to_string(subscriber_dropped) + " dropped)");

  // -- latency: each expected alert against the due time of its
  // window-closing frame; a missing one counts as infinitely late.
  std::map<std::string, std::size_t> stream_index;
  for (std::size_t k = 0; k < streams.size(); ++k) stream_index[streams[k].key] = k;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const cn::engine::FleetAlert& alert = reference_alerts[i];
    const Stream& s = streams[stream_index.at(alert.stream)];
    const std::uint64_t closing = s.closing_index(alert.verdict.end);
    // Judged at hang-up or sent in the saturation stretch: not on schedule.
    if (closing >= s.scheduled) continue;
    Phase& phase = phases[schedule.phase_of_frame(closing)];
    const auto found = arrival.find(expected[i]);
    if (found == arrival.end()) {
      phase.latency_us.push_back(INFINITY);
    } else {
      phase.latency_us.push_back(
          static_cast<double>(found->second - schedule.due(closing)) * 1e-3);
    }
  }

  const std::uint64_t frames_sent = total_sent();
  const std::uint64_t judged = json_sum(status, "frames");
  const std::uint64_t parse_errors = json_sum(status, "parse_errors");
  const std::uint64_t queue_dropped = json_sum(status, "queue_dropped");
  check(judged + queue_dropped == frames_sent,
        "serve_text: daemon counted " + std::to_string(judged) +
            " frames of " + std::to_string(frames_sent) + " sent");

  Result result;
  result.count("attempted", frames_sent + expected.size());
  result.count("failed", parse_errors + queue_dropped + missing + extra);
  result.list("setup_s", setup);
  result.num("peak_rss_mb", daemon_rss);
  result.count("alerts_expected", expected.size());
  result.count("windows", reference_windows);
  result.count("subscriber_dropped", subscriber_dropped);
  result.num("bytes_per_frame",
             static_cast<double>(bytes) / static_cast<double>(frames_sent));
  result.list("saturated_fps", saturated_fps);
  result.num("saturation_blocked_frac",
             saturation_ns > 0 ? static_cast<double>(saturation_blocked_ns) /
                                     static_cast<double>(saturation_ns)
                               : 0.0);
  result.count("phases", phases.size());
  for (std::size_t p = 0; p < phases.size(); ++p) {
    const Phase& phase = phases[p];
    const std::string prefix = "phase" + std::to_string(p) + ".";
    const double seconds =
        static_cast<double>(phase.wall_end - phase.wall_start) * 1e-9;
    result.text(prefix + "name", phase.name);
    result.num(prefix + "rate", phase.rate);
    result.list(prefix + "latency_us", phase.latency_us);
    // Lateness is sampled per send, far too many samples to print: the
    // count and the nearest-rank p99 go out instead.
    std::vector<double> lag = phase.lag_us;
    result.count(prefix + "lag_count", lag.size());
    if (!lag.empty()) {
      const auto rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(0.99 * static_cast<double>(lag.size()))));
      std::nth_element(lag.begin(), lag.begin() + (rank - 1), lag.end());
      result.num(prefix + "lag_p99_us", lag[rank - 1]);
    }
    result.list(prefix + "backlog_t", phase.backlog_t);
    result.list(prefix + "backlog", phase.backlog);
    result.num(prefix + "achieved_fps",
               static_cast<double>(phase.sent_at_end - phase.sent_at_start) /
                   seconds);
    result.num(prefix + "blocked_frac",
               static_cast<double>(phase.blocked_ns) * 1e-9 / seconds);
    result.count(prefix + "stopped", stopped && p + 1 == phases.size() ? 1 : 0);
  }

  if (traced) {
    result.list("queue_depth", queue_depths);
    // Isolated costs of the layers the daemon runs per line and per alert,
    // on this workload's own bytes.
    const Stream& s = streams.front();
    std::string text;
    for (std::uint64_t n = 0; n < s.ts.size(); ++n) s.render(n, text);
    const std::uint32_t parse_name = spans.name("trace.candump_parse");
    const std::uint32_t frame_name = spans.name("serve.line_frame");
    const std::uint32_t encode_name = spans.name("serve.alert_encode");
    const std::uint64_t probe = spans.open();
    const std::int64_t probe_start = now_ns();
    std::uint64_t ids = 0;
    for (int rep = 0; rep < 5; ++rep) {
      const std::int64_t t0 = now_ns();
      std::size_t begin = 0;
      std::uint64_t lines = 0;
      for (std::size_t nl = text.find('\n'); nl != std::string::npos;
           nl = text.find('\n', begin)) {
        ids += cn::trace::parse_candump_line(
                   std::string_view(text).substr(begin, nl - begin))
                   .frame.id()
                   .raw();
        begin = nl + 1;
        ++lines;
      }
      spans.record(parse_name, probe, t0, now_ns(), lines);
    }
    for (int rep = 0; rep < 5; ++rep) {
      cn::serve::LineFramer framer;
      std::uint64_t lines = 0;
      const std::int64_t t0 = now_ns();
      for (std::size_t off = 0; off < text.size(); off += 65536) {
        framer.feed(text.data() + off, std::min<std::size_t>(65536, text.size() - off),
                    [&lines](std::string_view) { ++lines; });
      }
      spans.record(frame_name, probe, t0, now_ns(), lines);
    }
    std::size_t encoded = 0;
    for (const cn::engine::FleetAlert& alert : reference_alerts) {
      const std::int64_t t0 = now_ns();
      encoded += cn::serve::to_json_line(alert).size();
      spans.record(encode_name, probe, t0, now_ns(), 1);
    }
    Span probe_span;
    probe_span.id = probe;
    probe_span.name = spans.name("layers.probe");
    probe_span.start_ns = probe_start;
    probe_span.end_ns = now_ns();
    spans.record(probe_span);
    check(ids > 0 && encoded > 0, "serve_text: empty layer probes");
    result.num("candump_parse_ns_per_frame",
               static_cast<double>(spans.total_ns(parse_name)) /
                   static_cast<double>(spans.item_count(parse_name)));
    result.num("line_frame_ns_per_frame",
               static_cast<double>(spans.total_ns(frame_name)) /
                   static_cast<double>(spans.item_count(frame_name)));
    result.num("alert_encode_us",
               static_cast<double>(spans.total_ns(encode_name)) * 1e-3 /
                   static_cast<double>(std::max<std::size_t>(1, reference_alerts.size())));
    spans.write_csv(options.str("spans"));
  }
  result.print();
  return 0;
}

}  // namespace perfbench
