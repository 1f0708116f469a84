// Transmitter-side ID filter (paper §III.A). In the weak adversary model a
// filter outside the ECU blocks frames whose identifier is not assigned to
// that ECU, so a compromised node can only inject with its own legal IDs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "can/frame.h"

namespace canids::attacks {

class TransmitterFilter {
 public:
  /// `allowed` is the set of standard identifiers assigned to the ECU.
  explicit TransmitterFilter(std::vector<std::uint32_t> allowed);

  /// True if the frame may pass onto the bus.
  [[nodiscard]] bool allows(const can::Frame& frame) const noexcept;

  /// Adapt to the Node transmit-filter hook.
  [[nodiscard]] std::function<bool(const can::Frame&)> as_predicate() const;

 private:
  std::vector<std::uint32_t> allowed_;  // sorted for binary search
};

}  // namespace canids::attacks
