#include "campaign/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/registry.h"
#include "model/store.h"
#include "trace/trace_io.h"

namespace canids::campaign {

namespace {

double elapsed_seconds(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

}  // namespace

CampaignRunner::CampaignRunner(CampaignSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  for (const std::string& name : spec_.detectors) {
    if (!analysis::is_detector(name)) {
      throw analysis::UnknownDetectorError(
          "campaign spec: unknown detector '" + name + "'");
    }
  }

  if (spec_.capture_mode()) {
    const std::filesystem::path dir(spec_.capture_dir);
    const std::filesystem::path labels_file =
        spec_.labels_path.empty() ? dir / "labels.csv"
                                  : std::filesystem::path(spec_.labels_path);
    // Resolve the capture list once, here, so the spec embedded in the
    // report pins the exact files the campaign replayed.
    const bool scanned = spec_.captures.empty();
    if (scanned) {
      if (!std::filesystem::is_directory(dir)) {
        throw std::invalid_argument("campaign: capture_dir '" +
                                    spec_.capture_dir +
                                    "' is not a directory");
      }
      const bool labels_exist = std::filesystem::exists(labels_file);
      for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (!entry.is_regular_file()) continue;
        // Filesystem equivalence, not lexical comparison: an explicit
        // --labels path spelled differently (absolute, ./-prefixed) must
        // still keep the labels CSV out of the capture list.
        if (labels_exist &&
            std::filesystem::equivalent(entry.path(), labels_file)) {
          continue;
        }
        spec_.captures.push_back(entry.path().filename().string());
      }
      std::sort(spec_.captures.begin(), spec_.captures.end());
      if (spec_.captures.empty()) {
        throw std::invalid_argument("campaign: capture_dir '" +
                                    spec_.capture_dir +
                                    "' holds no capture files");
      }
    }
    // Ground truth: an explicitly named labels file must exist; the
    // default path may be absent (every capture scores as clean traffic).
    if (std::filesystem::exists(labels_file)) {
      labels_ = trace::read_capture_labels_file(labels_file);
    } else if (!spec_.labels_path.empty()) {
      throw std::invalid_argument("campaign: cannot read labels file '" +
                                  spec_.labels_path + "'");
    }
    // Typo guard, but only when WE produced the capture list: a scanned
    // directory provably holds every file, so an unmatched label is a
    // mistake. An explicit `captures` subset legitimately runs against a
    // directory-wide labels file that also covers the excluded recordings.
    if (scanned) {
      for (const auto& [capture, intervals] : labels_) {
        if (std::find(spec_.captures.begin(), spec_.captures.end(),
                      capture) == spec_.captures.end()) {
          throw std::invalid_argument(
              "campaign: labels file names capture '" + capture +
              "' which is not in the campaign's capture list");
        }
      }
    }
  }
}

CampaignRunner::CampaignRunner(CampaignSpec spec,
                               metrics::SharedModels pretrained)
    : CampaignRunner(std::move(spec)) {
  models_ = std::move(pretrained);
}

int CampaignRunner::resolve_workers(const CampaignSpec& spec,
                                    std::size_t trials) {
  int workers = spec.workers > 0
                    ? spec.workers
                    : static_cast<int>(std::thread::hardware_concurrency());
  // hardware_concurrency() may legitimately report 0 (unknown).
  if (workers < 1) workers = 1;
  // Never hold threads that could not receive a trial: a pool larger than
  // the (possibly sharded) plan would spin up idle workers, and an empty
  // slice needs no pool at all.
  if (static_cast<std::size_t>(workers) > trials) {
    workers = static_cast<int>(trials);
  }
  return workers;
}

void CampaignRunner::train_once() {
  const auto started = std::chrono::steady_clock::now();
  metrics::ExperimentRunner master(spec_.experiment);
  // Pieces seeded through the pretrained-bundle constructor short-circuit
  // their training below.
  master.adopt_models(models_);

  if (!spec_.model_path.empty()) {
    // Full cold start: every model the bundle carries is adopted; only
    // pieces the bundle lacks (and a requested backend needs) are trained.
    master.adopt_models(
        metrics::SharedModels{model::load_models_file(spec_.model_path), {}});
  }

  // Train only what the requested backends can actually use (the same
  // gating rule make_backend applies per trial).
  bool need_muter = false;
  bool need_interval = false;
  for (const std::string& name : spec_.detectors) {
    const metrics::ExperimentRunner::BackendModelNeeds needs =
        metrics::ExperimentRunner::backend_model_needs(name);
    need_muter = need_muter || needs.muter;
    need_interval = need_interval || needs.interval;
  }

  models_.golden = master.train_shared();
  models_.training_snapshots = master.training_snapshots();
  if (need_muter) models_.muter = master.muter_model();
  if (need_interval) models_.interval = master.interval_model();
  stats_.train_seconds = elapsed_seconds(started);
  stats_.training_passes = master.training_passes();
}

const metrics::SharedModels& CampaignRunner::models() {
  std::call_once(trained_, [this] { train_once(); });
  return models_;
}

CampaignReport CampaignRunner::run() {
  if (spec_.shard) {
    throw std::invalid_argument(
        "campaign: spec selects shard " + spec_.shard->to_string() +
        " — run_shard() produces the partial report; merge the partials "
        "for the full report");
  }
  std::vector<metrics::InstrumentedTrial> results = execute(spec_.plan());
  return make_report(spec_, std::move(results));
}

PartialReport CampaignRunner::run_shard() {
  const std::vector<TrialPlan> plan = spec_.sharded_plan();
  std::vector<metrics::InstrumentedTrial> results = execute(plan);

  PartialReport partial;
  partial.spec = spec_;
  partial.spec.shard.reset();  // the spec names the campaign, not the slice
  partial.shard = spec_.shard.value_or(ShardSelector{});
  partial.rows.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    partial.rows.push_back(
        PartialReport::Row{plan[i].index, std::move(results[i])});
  }
  return partial;
}

std::vector<metrics::InstrumentedTrial> CampaignRunner::execute(
    const std::vector<TrialPlan>& plan) {
  std::call_once(trained_, [this] { train_once(); });

  const auto started = std::chrono::steady_clock::now();
  const int workers = resolve_workers(spec_, plan.size());

  std::vector<metrics::InstrumentedTrial> results(plan.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto worker_loop = [&] {
    // One runner per worker: its own vehicle and bus state, but the shared
    // immutable model bundle — no training past the call_once above.
    metrics::ExperimentRunner runner(spec_.experiment);
    runner.adopt_models(models_);
    for (;;) {
      const std::size_t index = next.fetch_add(1);
      if (index >= plan.size()) return;
      const TrialPlan& trial = plan[index];
      try {
        if (!trial.capture.empty()) {
          // Capture replay: stream the recorded file through the backend
          // (constant memory), scored against the sidecar labels.
          const std::unique_ptr<trace::RecordSource> source =
              trace::open_trace_source(
                  std::filesystem::path(spec_.capture_dir) / trial.capture);
          const auto found = labels_.find(trial.capture);
          static const std::vector<trace::LabelInterval> kClean;
          results[index] = runner.run_capture_trial(
              trial.detector, *source,
              found != labels_.end() ? found->second : kClean, trial.capture,
              trial.trial_seed);
        } else if (trial.sweep_id) {
          results[index] = runner.run_instrumented_single_id_trial(
              trial.detector, *trial.sweep_id, trial.frequency_hz,
              trial.trial_seed);
        } else {
          results[index] = runner.run_instrumented_trial(
              trial.detector, trial.kind, trial.frequency_hz,
              trial.trial_seed);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Drain the queue so sibling workers stop picking up new trials.
        next.store(plan.size());
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back(worker_loop);
  for (std::thread& thread : pool) thread.join();
  if (first_error) std::rethrow_exception(first_error);

  stats_.trials = plan.size();
  stats_.workers = workers;
  stats_.wall_seconds = elapsed_seconds(started);
  return results;
}

}  // namespace canids::campaign
