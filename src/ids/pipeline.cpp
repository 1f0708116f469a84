#include "ids/pipeline.h"

#include <stdexcept>
#include <string>

#include "util/contracts.h"

namespace canids::ids {

IdsPipeline::IdsPipeline(std::shared_ptr<const GoldenTemplate> golden,
                         std::vector<std::uint32_t> id_pool,
                         PipelineConfig config)
    : config_(config),
      accumulator_(config.window),
      detector_(golden, config.detector) {
  if (!id_pool.empty()) {
    inference_.emplace(std::move(golden), std::move(id_pool),
                       config_.inference);
  }
}

IdsPipeline::IdsPipeline(GoldenTemplate golden,
                         std::vector<std::uint32_t> id_pool,
                         PipelineConfig config)
    : IdsPipeline(std::make_shared<const GoldenTemplate>(std::move(golden)),
                  std::move(id_pool), config) {}

void IdsPipeline::rebind(std::shared_ptr<const GoldenTemplate> golden) {
  if (!golden) {
    throw std::invalid_argument("rebind: golden template must be non-null");
  }
  if (golden->width != detector_.golden().width) {
    throw std::invalid_argument(
        "rebind: golden template width mismatch (live window state is "
        "shaped for width " +
        std::to_string(detector_.golden().width) + ", got " +
        std::to_string(golden->width) + ")");
  }
  detector_ = Detector(golden, config_.detector);
  if (inference_) {
    // Keep the legal-ID pool; only the template the candidates are scored
    // against changes. Copied out first: emplace destroys the old engine
    // before the new one's constructor copies its arguments.
    std::vector<std::uint32_t> pool = inference_->id_pool();
    inference_.emplace(std::move(golden), std::move(pool), config_.inference);
  }
}

WindowReport IdsPipeline::judge(WindowSnapshot snapshot) {
  WindowReport report;
  report.detection = detector_.evaluate(snapshot);
  ++counters_.windows_closed;
  if (report.detection.evaluated) ++counters_.windows_evaluated;
  if (report.detection.alert) {
    ++counters_.alerts;
    if (inference_) {
      report.inference = inference_->infer(snapshot);
    }
  }
  report.snapshot = std::move(snapshot);
  return report;
}

std::optional<WindowReport> IdsPipeline::on_frame(util::TimeNs timestamp,
                                                  const can::CanId& id) {
  ++counters_.frames;
  if (auto snapshot = accumulator_.add(timestamp, id)) {
    return judge(std::move(*snapshot));
  }
  return std::nullopt;
}

void IdsPipeline::on_frames(const can::TimedId* frames, std::size_t count,
                            std::vector<WindowReport>& out) {
  counters_.frames += count;
  snapshot_scratch_.clear();
  accumulator_.add_batch(frames, count, snapshot_scratch_);
  for (WindowSnapshot& snapshot : snapshot_scratch_) {
    out.push_back(judge(std::move(snapshot)));
  }
  snapshot_scratch_.clear();
}

std::optional<WindowReport> IdsPipeline::on_gap(util::TimeNs timestamp) {
  if (auto snapshot = accumulator_.advance(timestamp)) {
    return judge(std::move(*snapshot));
  }
  return std::nullopt;
}

std::optional<WindowReport> IdsPipeline::finish() {
  if (auto snapshot = accumulator_.flush()) {
    return judge(std::move(*snapshot));
  }
  return std::nullopt;
}

}  // namespace canids::ids
