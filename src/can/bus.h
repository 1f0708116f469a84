// Discrete-event CAN bus simulator.
//
// The simulator advances a nanosecond clock. Whenever the bus is idle it
// lets every enabled node produce what is due (a node with nothing due
// returns at once), gathers the nodes with a pending frame, runs bitwise
// arbitration (arbitration.h), lets the winner transmit for exactly the
// frame's on-wire length (bitstream.h's wire_bit_length(): stuff bits
// counted a byte at a time by table), delivers the frame to every listener,
// and applies the interframe space before the next round. With no
// contender it jumps to the earliest production or retry time. Losers retry
// after the configured back-off, reproducing CAN's priority inversion — the
// physical mechanism behind the paper's injection-rate curve (Fig. 3).
#pragma once

#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "can/arbitration.h"
#include "can/bitstream.h"
#include "can/node.h"
#include "util/time.h"

namespace canids::can {

struct BusConfig {
  /// 125 kbit/s mid-speed CAN by default (the bus the paper measured);
  /// 500 kbit/s for high-speed CAN.
  std::uint32_t bitrate_bps = 125'000;
  /// Interframe space between consecutive frames (ISO: 3 bit times).
  int interframe_bits = 3;
  /// Back-off applied to arbitration losers before re-entering contention;
  /// the paper quotes "six clocks after the end of the last message".
  int retry_delay_bits = 6;
};

struct BusStats {
  std::uint64_t frames_transmitted = 0;
  std::uint64_t collisions = 0;  ///< identical-arbitration-field ties
  util::TimeNs busy_time = 0;
  util::TimeNs observed_time = 0;

  /// Fraction of wall time the bus carried a frame.
  [[nodiscard]] double load() const noexcept {
    return observed_time == 0 ? 0.0
                              : static_cast<double>(busy_time) /
                                    static_cast<double>(observed_time);
  }
};

class BusSimulator {
 public:
  explicit BusSimulator(BusConfig config = {});

  /// Construct a node in place; the simulator owns it. Returns a reference
  /// valid for the simulator's lifetime.
  template <class NodeT, class... Args>
  NodeT& emplace_node(Args&&... args) {
    auto node = std::make_unique<NodeT>(std::forward<Args>(args)...);
    NodeT& ref = *node;
    add_node(std::move(node));
    return ref;
  }

  /// Transfer ownership of an existing node; returns its index.
  int add_node(std::unique_ptr<Node> node);

  [[nodiscard]] Node& node(int index);
  [[nodiscard]] const Node& node(int index) const;

  /// Find a node index by name; -1 when absent.
  [[nodiscard]] int find_node(std::string_view name) const noexcept;

  /// Register an observer invoked for every frame that completes on the bus.
  void add_listener(std::function<void(const TimedFrame&)> listener);

  /// Advance the simulation until the clock reaches `end`. May be called
  /// repeatedly; time is monotone across calls. A frame in flight at `end`
  /// completes, so now() may pass `end`; the next call's `end` must not be
  /// earlier than now().
  void run_until(util::TimeNs end);

  [[nodiscard]] const BusConfig& config() const noexcept { return config_; }
  [[nodiscard]] const BusStats& stats() const noexcept { return stats_; }
  [[nodiscard]] util::TimeNs now() const noexcept { return now_; }

 private:
  /// Collect into contenders_ the indices of nodes allowed to contend at
  /// `now_`.
  void collect_contenders();

  /// Earliest time any node could next become active (production or retry).
  [[nodiscard]] util::TimeNs next_activity_time() const;

  void deliver(const TimedFrame& frame);

  BusConfig config_;
  util::TimeNs bit_time_;
  util::TimeNs now_ = 0;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::function<void(const TimedFrame&)>> listeners_;
  BusStats stats_;
  // Per-round buffers, reused so that a round allocates nothing.
  std::vector<int> contenders_;
  std::vector<Frame> heads_;
  ArbitrationResult arbitration_;
};

}  // namespace canids::can
