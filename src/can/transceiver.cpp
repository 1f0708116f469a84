#include "can/transceiver.h"

#include "can/bitstream.h"

namespace canids::can {

int longest_dominant_run(const Frame& frame) {
  return wire_timing(frame).longest_dominant_run;
}

}  // namespace canids::can
