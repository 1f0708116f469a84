#include "ids/bit_counters.h"

namespace canids::ids {

namespace {

/// The one lane-add loop. Summing into a local block keeps the accumulator
/// in registers for the whole batch, so the compiler emits one vector add
/// per id: two SSE2 paddq on the x86-64 baseline, one ymm vpaddq under
/// AVX2.
[[gnu::always_inline]] inline void lane_add_loop(
    std::uint64_t* lanes, const std::uint64_t* table, std::uint32_t mask,
    const std::uint32_t* ids, std::size_t count) noexcept {
  std::uint64_t acc[kLaneRowWords];
  for (int w = 0; w < kLaneRowWords; ++w) acc[w] = lanes[w];
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t* row =
        table + static_cast<std::size_t>(ids[i] & mask) * kLaneRowWords;
    for (int w = 0; w < kLaneRowWords; ++w) acc[w] += row[w];
  }
  for (int w = 0; w < kLaneRowWords; ++w) lanes[w] = acc[w];
}

}  // namespace

namespace detail {

void lane_add_default(std::uint64_t* lanes, const std::uint64_t* table,
                      std::uint32_t mask, const std::uint32_t* ids,
                      std::size_t count) noexcept {
  lane_add_loop(lanes, table, mask, ids, count);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] void lane_add_avx2(std::uint64_t* lanes,
                                           const std::uint64_t* table,
                                           std::uint32_t mask,
                                           const std::uint32_t* ids,
                                           std::size_t count) noexcept {
  lane_add_loop(lanes, table, mask, ids, count);
}
#endif

}  // namespace detail

void lane_add(std::uint64_t* lanes, const std::uint64_t* table,
              std::uint32_t mask, const std::uint32_t* ids,
              std::size_t count) noexcept {
#if defined(__x86_64__)
  // A plain check rather than target_clones: the ifunc resolver those
  // emit crashes at startup under -fsanitize=thread (GCC 12).
  static const auto variant = __builtin_cpu_supports("avx2")
                                  ? detail::lane_add_avx2
                                  : detail::lane_add_default;
  variant(lanes, table, mask, ids, count);
#else
  detail::lane_add_default(lanes, table, mask, ids, count);
#endif
}

void lane_spill(const std::uint64_t* lanes, std::uint64_t* ones,
                int words) noexcept {
  for (int w = 0; w < words; ++w) {
    for (int l = 0; l < 4; ++l) {
      ones[4 * w + l] += (lanes[w] >> (16 * l)) & 0xFFFFu;
    }
  }
}

template class BitCountersT<can::kStdIdBits>;
template class PairCountersT<can::kStdIdBits>;

}  // namespace canids::ids
