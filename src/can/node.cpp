#include "can/node.h"

#include <algorithm>

#include "util/contracts.h"

namespace canids::can {

Node::Node(std::string name, std::size_t queue_capacity,
           OverflowPolicy overflow)
    : name_(std::move(name)),
      queue_capacity_(queue_capacity),
      overflow_(overflow) {
  CANIDS_EXPECTS(queue_capacity_ > 0);
}

const Frame& Node::head() const {
  CANIDS_EXPECTS(!queue_.empty());
  return queue_.front();
}

void Node::pop_head() {
  CANIDS_EXPECTS(!queue_.empty());
  queue_.pop_front();
}

bool Node::submit(const Frame& frame) {
  ++stats_.generated;
  if (tx_filter_ && !tx_filter_(frame)) {
    ++stats_.blocked_by_filter;
    return false;
  }
  if (queue_.size() >= queue_capacity_) {
    if (overflow_ == OverflowPolicy::kDropNewest) {
      ++stats_.dropped_overflow;
      return false;
    }
    queue_.pop_front();
    ++stats_.dropped_overflow;
  }
  queue_.push_back(frame);
  return true;
}

// ---------------------------------------------------------------------------
// PeriodicSender

PeriodicSender::PeriodicSender(std::string name,
                               std::vector<MessageSpec> messages,
                               util::Rng rng, std::size_t queue_capacity)
    : Node(std::move(name), queue_capacity),
      specs_(std::move(messages)),
      rng_(rng) {
  CANIDS_EXPECTS(!specs_.empty());
  schedule_.resize(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    CANIDS_EXPECTS(specs_[i].period > 0);
    schedule_[i].next_due = specs_[i].offset;
    // Seed each sensor channel with a distinct but deterministic state.
    for (auto& byte : schedule_[i].sensor_state) {
      byte = static_cast<std::uint8_t>(rng_.below(256));
    }
    earliest_due_ = std::min(earliest_due_, schedule_[i].next_due);
  }
}

void PeriodicSender::produce(util::TimeNs now) {
  if (now < earliest_due_) return;
  util::TimeNs earliest = util::kNever;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    ScheduleEntry& entry = schedule_[i];
    while (entry.next_due <= now) {
      submit(make_frame(i, entry.next_due));
      ++entry.sequence;
      const MessageSpec& spec = specs_[i];
      util::TimeNs step = spec.period;
      if (spec.jitter_fraction > 0.0) {
        const double jitter =
            rng_.uniform(-spec.jitter_fraction, spec.jitter_fraction);
        step += static_cast<util::TimeNs>(
            static_cast<double>(spec.period) * jitter);
        step = std::max<util::TimeNs>(step, 1);
      }
      entry.next_due += step;
    }
    earliest = std::min(earliest, entry.next_due);
  }
  earliest_due_ = earliest;
}

util::TimeNs PeriodicSender::next_production_time() const {
  return earliest_due_;
}

Frame PeriodicSender::make_frame(std::size_t index, util::TimeNs now) {
  const MessageSpec& spec = specs_[index];
  ScheduleEntry& entry = schedule_[index];
  std::array<std::uint8_t, kMaxDataBytes> data{};

  switch (spec.payload) {
    case PayloadKind::kConstant:
      for (std::size_t b = 0; b < spec.dlc; ++b) {
        data[b] = static_cast<std::uint8_t>(0xA0 + b);
      }
      break;
    case PayloadKind::kCounter:
      data[0] = static_cast<std::uint8_t>(entry.sequence & 0xFF);
      for (std::size_t b = 1; b < spec.dlc; ++b) {
        data[b] = static_cast<std::uint8_t>(0x10 + b);
      }
      break;
    case PayloadKind::kSensor: {
      // Random-walk the stored sensor state so consecutive frames correlate
      // like real slowly-changing physical signals.
      for (std::size_t b = 0; b < spec.dlc; ++b) {
        const int delta = static_cast<int>(rng_.between(-2, 2));
        entry.sensor_state[b] =
            static_cast<std::uint8_t>(entry.sensor_state[b] + delta);
        data[b] = entry.sensor_state[b];
      }
      // Embed a coarse timestamp so long captures stay non-repeating.
      if (spec.dlc >= 2) {
        data[spec.dlc - 1] =
            static_cast<std::uint8_t>((now / util::kMillisecond) & 0xFF);
      }
      break;
    }
  }
  return Frame::data_frame(spec.id,
                           std::span<const std::uint8_t>(data.data(), spec.dlc));
}

}  // namespace canids::can
