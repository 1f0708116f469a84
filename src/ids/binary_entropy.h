// The paper's Definition (§IV.A): for a Bernoulli random variable X with
// Pr(X=1) = p, the binary entropy in Shannon units is
//   H_b(p) = -p log2 p - (1-p) log2 (1-p),
// with the usual convention 0*log2(0) = 0 so H_b(0) = H_b(1) = 0.
#pragma once

namespace canids::ids {

/// Binary entropy H_b(p) in [0,1]. Requires p in [0,1]; values outside are
/// clamped (they only arise from floating-point round-off upstream).
[[nodiscard]] double binary_entropy(double p) noexcept;

}  // namespace canids::ids
