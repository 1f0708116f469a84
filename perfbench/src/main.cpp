// perfbench: the C++ half of the repository benchmark. perfbench/run.py
// builds it, calls one subcommand per step and turns the JSON line each
// prints into metrics.
//
//   perfbench gen --workload fleet_clean|serve_text --seed N --dir D
//   perfbench fleet-ref --dir D
//   perfbench fleet-run --dir D --seconds S --trace 0|1 [--spans FILE]
//   perfbench serve-run --dir D --canids PATH ... (see serve_text.cpp)
//   perfbench campaign-run --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Exit codes: 0 success, 1 a correctness or load-shape check failed,
// 2 bad usage or an unexpected error.
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"
#include "inputs.h"

namespace perfbench {
int fleet_ref(const Options& options);
int fleet_run(const Options& options);
int serve_run(const Options& options);
int campaign_run(const Options& options);
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <subcommand> [--key value]...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Options options(argc, argv, 2);
    if (command == "gen") {
      const std::string workload = options.str("workload");
      const auto seed = static_cast<std::uint64_t>(options.integer("seed"));
      if (workload == "fleet_clean") {
        generate_fleet(seed, options.str("dir"));
      } else if (workload == "serve_text") {
        generate_serve(seed, options.str("dir"));
      } else {
        throw std::invalid_argument("gen: unknown workload " + workload);
      }
      return 0;
    }
    if (command == "fleet-ref") return fleet_ref(options);
    if (command == "fleet-run") return fleet_run(options);
    if (command == "serve-run") return serve_run(options);
    if (command == "campaign-run") return campaign_run(options);
    std::fprintf(stderr, "unknown subcommand %s\n", command.c_str());
    return 2;
  } catch (const CheckFailed& e) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
