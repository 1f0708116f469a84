// Thread-safe alert collection for the fleet engine: every shard worker
// publishes alerting windows here, attributed to their stream, so one
// consumer (CLI, monitor process, test) sees the whole fleet's intrusions.
#pragma once

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/detector_backend.h"

namespace canids::engine {

/// One alerting window attributed to the stream (vehicle/channel) it came
/// from. The verdict is backend-agnostic: any detector's alerts
/// flow through the same sink.
struct FleetAlert {
  std::string stream;
  analysis::WindowVerdict verdict;
};

/// Mutex-guarded alert store shared by all shard workers. Without a
/// handler, alerts accumulate until take()n; installing a handler switches
/// the sink to streaming mode — each alert is delivered once and NOT
/// retained, keeping long fleet runs at constant memory.
class AlertSink {
 public:
  /// Install a live handler invoked for every published alert (and stop
  /// retaining alerts for take()). It runs on the publishing worker's
  /// thread but under the sink lock, so a plain non-thread-safe handler
  /// (e.g. printf) is fine.
  void set_handler(std::function<void(const FleetAlert&)> handler);

  void publish(FleetAlert alert);

  /// Alerts published so far (monotone; includes already-taken ones).
  [[nodiscard]] std::size_t count() const;

  /// Drain the retained alerts.
  [[nodiscard]] std::vector<FleetAlert> take();

 private:
  mutable std::mutex mutex_;
  std::vector<FleetAlert> alerts_;
  std::function<void(const FleetAlert&)> handler_;
  std::size_t published_ = 0;
};

}  // namespace canids::engine
