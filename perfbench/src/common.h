// Shared plumbing of the perfbench executable: command-line options, clocks,
// process accounting, and the one-line JSON result every subcommand prints
// for perfbench/run.py to turn into metrics.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// `--key value` pairs after the subcommand name.
class Options {
 public:
  Options(int argc, char** argv, int first);
  [[nodiscard]] std::string str(const std::string& key) const;
  [[nodiscard]] std::int64_t integer(const std::string& key) const;
  [[nodiscard]] double number(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// steady_clock now, in nanoseconds.
[[nodiscard]] std::int64_t now_ns();
/// CPU time consumed by every thread of this process, in nanoseconds.
[[nodiscard]] std::int64_t process_cpu_ns();
/// Peak resident set of this process, in MiB.
[[nodiscard]] double self_peak_rss_mb();
/// Peak resident set (VmHWM) of another live process, in MiB; 0 if unknown.
[[nodiscard]] double pid_peak_rss_mb(int pid);
/// Hardware threads (at least 1).
[[nodiscard]] int hardware_threads();
/// util::splitmix64 of a base seed advanced by `index` steps: one
/// independent seed per stream index.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index);

/// Run `body` on `threads` threads and join them all; the first exception
/// any of them threw is rethrown here.
void run_threads(int threads, const std::function<void()>& body);

/// Thrown when an output or load-shape check fails; run.py turns it into a
/// failed run with no metrics.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};
void check(bool condition, const std::string& what);

/// A flat JSON object of numbers, booleans, strings, and number arrays —
/// everything run.py needs. Keys keep insertion order.
class Result {
 public:
  void num(const std::string& key, double value);
  void count(const std::string& key, std::uint64_t value);
  void text(const std::string& key, const std::string& value);
  void list(const std::string& key, const std::vector<double>& values);
  /// Print as one line on stdout.
  void print() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace perfbench
