// MODEL-IO — the cost of the model-artifact layer: how long a full bundle
// (golden template + Müter band + interval periods) takes to save and load,
// and how a bundle cold-start compares against training the same models
// in-process — the wall-clock argument for `canids train --save` once,
// deploy everywhere. Emits BENCH_model_io.json.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "metrics/experiment.h"
#include "model/bundle.h"
#include "model/store.h"
#include "util/table.h"

using namespace canids;

namespace {

double seconds_since(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

metrics::ExperimentConfig bench_config() {
  metrics::ExperimentConfig config;
  config.training_windows = 10;  // the campaign smoke preset's size
  return config;
}

}  // namespace

int main() {
  util::print_banner(std::cout,
                     "Model-artifact layer — bundle save/load latency and "
                     "cold-start vs in-process training");

  // In-process training pass (the cost a bundle cold-start avoids).
  auto started = std::chrono::steady_clock::now();
  metrics::ExperimentRunner trainer(bench_config());
  const metrics::SharedModels trained = trainer.trained_models();
  const double train_seconds = seconds_since(started);

  // Bundle bytes.
  const model::ModelBundle bundle = model::pack(trained);
  std::ostringstream bytes_out;
  bundle.save(bytes_out);
  const std::string bytes = bytes_out.str();

  // Save / load latency over enough iterations to measure.
  constexpr int kIterations = 200;
  started = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    std::ostringstream out;
    bundle.save(out);
  }
  const double save_seconds = seconds_since(started) / kIterations;

  started = std::chrono::steady_clock::now();
  for (int i = 0; i < kIterations; ++i) {
    std::istringstream in(bytes);
    (void)model::ModelBundle::load(in);
  }
  const double load_seconds = seconds_since(started) / kIterations;

  // Full cold start: parse the bundle AND adopt it into a fresh runner
  // (what a campaign/fleet pays instead of train_seconds).
  started = std::chrono::steady_clock::now();
  std::uint64_t coldstart_training_passes = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::istringstream in(bytes);
    metrics::ExperimentRunner runner(bench_config());
    runner.adopt_models(metrics::SharedModels{
        model::unpack(model::ModelBundle::load(in)), {}});
    coldstart_training_passes += runner.training_passes();
  }
  const double coldstart_seconds = seconds_since(started) / kIterations;
  const double coldstart_over_train =
      train_seconds > 0.0 ? coldstart_seconds / train_seconds : 0.0;

  util::Table table({"metric", "value"});
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%zu", bytes.size());
  table.add_row({"bundle bytes", buffer});
  std::snprintf(buffer, sizeof buffer, "%.3f ms", save_seconds * 1e3);
  table.add_row({"save latency", buffer});
  std::snprintf(buffer, sizeof buffer, "%.3f ms", load_seconds * 1e3);
  table.add_row({"load latency", buffer});
  std::snprintf(buffer, sizeof buffer, "%.1f ms", train_seconds * 1e3);
  table.add_row({"in-process training", buffer});
  std::snprintf(buffer, sizeof buffer, "%.3f ms", coldstart_seconds * 1e3);
  table.add_row({"bundle cold start", buffer});
  std::snprintf(buffer, sizeof buffer, "%.4fx", coldstart_over_train);
  table.add_row({"cold start / training", buffer});
  table.print(std::cout);

  {
    std::ofstream json("BENCH_model_io.json");
    json << "{\"bench\": \"model_io\", \"bundle_bytes\": " << bytes.size()
         << ", \"save_seconds\": " << save_seconds
         << ", \"load_seconds\": " << load_seconds
         << ", \"train_seconds\": " << train_seconds
         << ", \"coldstart_seconds\": " << coldstart_seconds
         << ", \"coldstart_over_train\": " << coldstart_over_train << "}\n";
    std::printf("perf -> BENCH_model_io.json\n");
  }

  // Sanity verdict: the bundle must round-trip every model bit-exactly,
  // the cold start must beat training outright, and adopting must have
  // prevented every training pass.
  std::istringstream in(bytes);
  const model::StoredModels restored =
      model::unpack(model::ModelBundle::load(in));
  bool ok = restored.golden && trained.golden &&
            *restored.golden == *trained.golden;
  ok = ok && restored.muter && restored.muter->mean_entropy() ==
                                  trained.muter->mean_entropy() &&
       restored.muter->threshold() == trained.muter->threshold();
  ok = ok && restored.interval &&
       restored.interval->tracked_ids() == trained.interval->tracked_ids();
  ok = ok && coldstart_seconds < train_seconds;
  ok = ok && coldstart_training_passes == 0;
  std::cout << (ok ? "SHAPE OK\n" : "SHAPE MISMATCH\n");
  return ok ? 0 : 1;
}
