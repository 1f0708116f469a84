#include "common.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

namespace cn = canids;

Options::Options(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got '" + key + "'");
    }
    values_[key.substr(2)] = argv[++i];
  }
}

std::string Options::str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) {
    throw std::invalid_argument("missing --" + key);
  }
  return it->second;
}

std::int64_t Options::integer(const std::string& key) const {
  return std::stoll(str(key));
}

double Options::number(const std::string& key) const {
  return std::stod(str(key));
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

namespace {

/// VmHWM of /proc/<who>/status, in MiB; 0 if unreadable. Unlike
/// getrusage's ru_maxrss, VmHWM restarts at exec, so it does not inherit
/// the resident size of the process that spawned this one.
double peak_rss_mb(const std::string& who) {
  std::ifstream in("/proc/" + who + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double self_peak_rss_mb() { return peak_rss_mb("self"); }

double pid_peak_rss_mb(int pid) { return peak_rss_mb(std::to_string(pid)); }

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t state = base + 0x9E3779B97F4A7C15ull * index;
  return cn::util::splitmix64(state);
}

void run_threads(int threads, const std::function<void()>& body) {
  std::mutex mutex;
  std::exception_ptr first;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      try {
        body();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!first) first = std::current_exception();
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  if (first) std::rethrow_exception(first);
}

void check(bool condition, const std::string& what) {
  if (!condition) throw CheckFailed(what);
}

namespace {

/// A JSON number, or null for a non-finite value (a missing measurement).
std::string render(double value) {
  if (!std::isfinite(value)) return "null";
  std::string out;
  cn::util::append_json_double(out, value);
  return out;
}

std::string quote(const std::string& text) {
  std::string out;
  cn::util::append_json_string(out, text);
  return out;
}

}  // namespace

void Result::num(const std::string& key, double value) {
  fields_.emplace_back(key, render(value));
}

void Result::count(const std::string& key, std::uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void Result::text(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, quote(value));
}

void Result::list(const std::string& key, const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += render(values[i]);
  }
  fields_.emplace_back(key, out + "]");
}

void Result::print() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quote(fields_[i].first) + ": " + fields_[i].second;
  }
  out += "}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
