#include "ids/binary_entropy.h"

#include <algorithm>
#include <cmath>

namespace canids::ids {

double binary_entropy(double p) noexcept {
  p = std::clamp(p, 0.0, 1.0);
  if (p == 0.0 || p == 1.0) return 0.0;
  return -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
}

}  // namespace canids::ids
