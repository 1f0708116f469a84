// Attack lab: interactively explore the attacker's trade-off space the
// paper analyses — injected-ID priority vs injection rate vs detectability
// (Fig. 3 and the N_m = Ir * f * T0 relation) — on a small grid.
#include <cstdio>
#include <iostream>

#include "metrics/experiment.h"
#include "util/table.h"

using namespace canids;

int main() {
  metrics::ExperimentConfig config;
  config.training_windows = 14;
  config.attack_duration = 12 * util::kSecond;
  metrics::ExperimentRunner runner(config);
  (void)runner.train();

  const auto& pool = runner.vehicle().id_pool();

  // Pick three priority levels: dominant, median, weak.
  const std::uint32_t ids[] = {pool.front(), pool[pool.size() / 2],
                               pool.back()};
  const double frequencies[] = {100.0, 20.0};

  util::Table table({"injected ID", "f (Hz)", "I_r (arb)", "I_r (success)",
                     "injected frames", "detection rate"});
  std::uint64_t seed = 0;
  for (std::uint32_t id : ids) {
    for (double f : frequencies) {
      const metrics::InstrumentedTrial trial =
          runner.run_instrumented_single_id_trial("bit-entropy", id, f,
                                                  seed++);
      table.add_row({can::CanId::standard(id).to_string(),
                     util::Table::num(f, 0),
                     util::Table::num(trial.injection_rate_arbitration, 3),
                     util::Table::num(trial.injection_rate_success, 3),
                     std::to_string(trial.injected_transmitted),
                     util::Table::percent(trial.detection_rate)});
    }
  }

  std::printf("attacker trade-off lab (alpha=5, rank=10, 1 s windows)\n\n");
  table.print(std::cout);
  std::printf(
      "\nreading: dominant IDs (top rows) win arbitration more often and\n"
      "inject more frames — and precisely because of that they shift the\n"
      "bit entropy harder and are detected more reliably. The attacker\n"
      "cannot be both effective and quiet (the paper's core argument).\n");
  return 0;
}
