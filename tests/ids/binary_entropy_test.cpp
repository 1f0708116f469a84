#include "ids/binary_entropy.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace canids::ids {
namespace {

TEST(BinaryEntropyTest, EndpointsAreZero) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(1.0), 0.0);
}

TEST(BinaryEntropyTest, MaximumAtOneHalf) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
}

TEST(BinaryEntropyTest, KnownAnalyticValues) {
  // H(1/4) = 2 - 3/4*log2(3) ~= 0.811278...
  EXPECT_NEAR(binary_entropy(0.25), 0.8112781244591328, 1e-12);
  // H(1/8) ~= 0.543564...
  EXPECT_NEAR(binary_entropy(0.125), 0.5435644431995964, 1e-12);
}

TEST(BinaryEntropyTest, ClampsOutOfDomainInputs) {
  EXPECT_DOUBLE_EQ(binary_entropy(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(1.1), 0.0);
}

// --- Property sweep -----------------------------------------------------

class BinaryEntropyProperty : public ::testing::TestWithParam<double> {};

TEST_P(BinaryEntropyProperty, BoundedInUnitInterval) {
  const double h = binary_entropy(GetParam());
  EXPECT_GE(h, 0.0);
  EXPECT_LE(h, 1.0);
}

TEST_P(BinaryEntropyProperty, SymmetricAroundOneHalf) {
  const double p = GetParam();
  EXPECT_NEAR(binary_entropy(p), binary_entropy(1.0 - p), 1e-12);
}

TEST_P(BinaryEntropyProperty, ConcaveAgainstChord) {
  // For any p, H(p) lies above the chord through (0,0)-(0.5,1) reflected
  // appropriately; simpler check: midpoint concavity H((p+q)/2) >=
  // (H(p)+H(q))/2 with q = 1-p.
  const double p = GetParam();
  const double q = 1.0 - p;
  const double mid = binary_entropy(0.5 * (p + q));
  EXPECT_GE(mid + 1e-12, 0.5 * (binary_entropy(p) + binary_entropy(q)));
}

TEST_P(BinaryEntropyProperty, MonotoneTowardsCenter) {
  const double p = GetParam();
  if (p < 0.5) {
    EXPECT_LE(binary_entropy(p), binary_entropy(std::min(0.5, p + 0.01)));
  } else if (p > 0.5) {
    EXPECT_LE(binary_entropy(p), binary_entropy(std::max(0.5, p - 0.01)));
  }
}

INSTANTIATE_TEST_SUITE_P(ProbabilityGrid, BinaryEntropyProperty,
                         ::testing::Values(0.0, 0.001, 0.01, 0.05, 0.1, 0.2,
                                           0.25, 0.3, 0.4, 0.45, 0.5, 0.55,
                                           0.6, 0.7, 0.75, 0.8, 0.9, 0.95,
                                           0.99, 0.999, 1.0));

}  // namespace
}  // namespace canids::ids
