// The paper's O(1)-memory monitoring state (§V.E): one counter per ID bit
// plus a frame total — 11 counters for standard CAN no matter how many
// distinct identifiers appear on the bus, versus a per-ID histogram for the
// whole-distribution entropy baseline [8].
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "can/frame.h"
#include "ids/binary_entropy.h"
#include "util/contracts.h"

namespace canids::ids {

/// u64 words per lane-table row and per lane-accumulator block: one 256-bit
/// vector, so the lane loop never needs a per-row tail. Padding words hold
/// zero and contribute nothing.
inline constexpr int kLaneRowWords = 4;

/// Accumulate `count` lane-table rows into `lanes` (kLaneRowWords words):
/// lanes[w] += table[(ids[i] & mask) * kLaneRowWords + w] for every id.
/// The caller guarantees no 16-bit lane can saturate within the batch.
/// Integer-exact on every target; x86-64 runs an AVX2 compilation of the
/// same loop when the CPU has it.
void lane_add(std::uint64_t* lanes, const std::uint64_t* table,
              std::uint32_t mask, const std::uint32_t* ids,
              std::size_t count) noexcept;

/// Widen `words` lane words (4 x 16-bit lanes each) into the per-bit
/// counters: ones[4 * w + l] += lane l of lanes[w]. `ones` must have
/// 4 * words slots — BitCountersT pads its counter array for this.
void lane_spill(const std::uint64_t* lanes, std::uint64_t* ones,
                int words) noexcept;

namespace detail {
/// The compilations lane_add picks between, declared so one host can test
/// them against each other. Call lane_add_avx2 only on a CPU with AVX2.
void lane_add_default(std::uint64_t* lanes, const std::uint64_t* table,
                      std::uint32_t mask, const std::uint32_t* ids,
                      std::size_t count) noexcept;
#if defined(__x86_64__)
void lane_add_avx2(std::uint64_t* lanes, const std::uint64_t* table,
                   std::uint32_t mask, const std::uint32_t* ids,
                   std::size_t count) noexcept;
#endif
}  // namespace detail

/// Per-bit '1' counters over a stream of identifiers, templated on the ID
/// width (11 for CAN 2.0A).
///
/// The update is table-assisted: a shared lookup table maps each
/// identifier to its bits pre-packed as 16-bit lanes, so add() is kWords
/// wide adds instead of Width scattered ones. Lanes spill into the 64-bit
/// counters before they can saturate. ~3x faster per frame for 11-bit IDs
/// (bench_micro_throughput, BM_BitSlice_CountFrame). The table has 2^Width
/// rows, so 29-bit (CAN 2.0B) identifiers are not supported.
template <int Width>
class BitCountersT {
  static_assert(Width > 0 && Width <= can::kStdIdBits,
                "the lane table has 2^Width rows");

 public:
  static constexpr int kWidth = Width;
  /// Identifier bits this counter observes (higher bits are ignored).
  static constexpr std::uint32_t kIdMask = (1u << Width) - 1u;

  /// Count one identifier. Bit 0 is the MSB, matching CanId::bit.
  void add(std::uint32_t raw_id) noexcept {
    ++total_;
    const LaneRow& row = lane_table()[raw_id & kIdMask];
    for (int w = 0; w < kWords; ++w) {
      lanes_[static_cast<std::size_t>(w)] +=
          row[static_cast<std::size_t>(w)];
    }
    if (++pending_ == kLaneLimit) spill();
  }

  void add(const can::CanId& id) {
    CANIDS_EXPECTS(id.width() == Width);
    add(id.raw());
  }

  /// Count a block of identifiers. Bit-identical to calling add() per id —
  /// lane-spill timing is unobservable (ones() folds pending lanes) — but
  /// it pushes the whole block through lane_add, chunked so no 16-bit lane
  /// can saturate mid-batch.
  void add_batch(const std::uint32_t* ids, std::size_t count) noexcept {
    const std::uint64_t* table = lane_table().front().data();
    total_ += count;
    while (count > 0) {
      const auto chunk = std::min<std::size_t>(count, kLaneLimit - pending_);
      lane_add(lanes_.data(), table, kIdMask, ids, chunk);
      pending_ += static_cast<std::uint32_t>(chunk);
      ids += chunk;
      count -= chunk;
      if (pending_ == kLaneLimit) spill();
    }
  }

  void reset() noexcept {
    ones_.fill(0);
    total_ = 0;
    lanes_.fill(0);
    pending_ = 0;
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t ones(int bit) const {
    CANIDS_EXPECTS(bit >= 0 && bit < Width);
    std::uint64_t count = ones_[static_cast<std::size_t>(bit)];
    count += lane(bit);
    return count;
  }

  /// p_i = (#messages with bit i == 1) / total. Requires a non-empty window.
  [[nodiscard]] double probability(int bit) const {
    CANIDS_EXPECTS(total_ > 0);
    return static_cast<double>(ones(bit)) / static_cast<double>(total_);
  }

  [[nodiscard]] std::vector<double> probabilities() const {
    std::vector<double> out(Width);
    for (int i = 0; i < Width; ++i) out[static_cast<std::size_t>(i)] = probability(i);
    return out;
  }

  /// Ĥ = {H_1 .. H_Width}, the per-bit binary entropy vector.
  [[nodiscard]] std::vector<double> entropies() const {
    std::vector<double> out(Width);
    for (int i = 0; i < Width; ++i) {
      out[static_cast<std::size_t>(i)] = binary_entropy(probability(i));
    }
    return out;
  }

  /// Fill both per-bit vectors in one pass. Bits sharing a '1' count get one
  /// binary_entropy evaluation instead of Width of them — identifiers are
  /// priority-clustered, so windows routinely repeat counts across bits.
  /// Results are bit-identical to probabilities()/entropies().
  void snapshot_into(std::vector<double>& probabilities_out,
                     std::vector<double>& entropies_out) const {
    CANIDS_EXPECTS(total_ > 0);
    probabilities_out.resize(static_cast<std::size_t>(Width));
    entropies_out.resize(static_cast<std::size_t>(Width));
    std::array<std::uint64_t, static_cast<std::size_t>(Width)> seen_ones;
    std::array<double, static_cast<std::size_t>(Width)> seen_entropy;
    std::size_t cached = 0;
    for (int i = 0; i < Width; ++i) {
      const auto b = static_cast<std::size_t>(i);
      const std::uint64_t count = ones(i);
      probabilities_out[b] =
          static_cast<double>(count) / static_cast<double>(total_);
      double entropy = -1.0;
      for (std::size_t c = 0; c < cached; ++c) {
        if (seen_ones[c] == count) {
          entropy = seen_entropy[c];
          break;
        }
      }
      if (entropy < 0.0) {
        entropy = binary_entropy(probabilities_out[b]);
        seen_ones[cached] = count;
        seen_entropy[cached] = entropy;
        ++cached;
      }
      entropies_out[b] = entropy;
    }
  }

  /// Exact per-bus memory footprint of the monitoring state in bytes;
  /// quoted in the §V.E comparison benches. The identifier lane table is
  /// shared by every counter instance in the process and excluded.
  [[nodiscard]] static constexpr std::size_t state_bytes() noexcept {
    return sizeof(ones_) + sizeof(total_) + sizeof(lanes_) +
           sizeof(pending_);
  }

 private:
  static constexpr int kLanesPerWord = 4;  // 16-bit lanes in a u64
  static constexpr int kWords = (Width + kLanesPerWord - 1) / kLanesPerWord;
  static constexpr std::uint32_t kLaneLimit = 0xFFFF;  // lane saturation
  static_assert(kWords <= kLaneRowWords);
  /// Rows are padded to kLaneRowWords so lane_add never needs a per-row
  /// tail; padding words stay zero.
  using LaneRow =
      std::array<std::uint64_t, static_cast<std::size_t>(kLaneRowWords)>;
  using LaneTable = std::array<LaneRow, std::size_t{1} << Width>;

  /// Shared id -> packed-lane-increment table, built on first use.
  [[nodiscard]] static const LaneTable& lane_table() {
    static const LaneTable table = [] {
      LaneTable built{};
      for (std::size_t id = 0; id < built.size(); ++id) {
        for (int i = 0; i < Width; ++i) {
          built[id][static_cast<std::size_t>(i / kLanesPerWord)] |=
              static_cast<std::uint64_t>((id >> (Width - 1 - i)) & 1u)
              << ((i % kLanesPerWord) * 16);
        }
      }
      return built;
    }();
    return table;
  }

  /// Bit i's pending count still packed in the lane accumulators.
  [[nodiscard]] std::uint64_t lane(int bit) const noexcept {
    return (lanes_[static_cast<std::size_t>(bit / kLanesPerWord)] >>
            ((bit % kLanesPerWord) * 16)) &
           0xFFFF;
  }

  /// Fold the lane accumulators into the 64-bit counters (ones_ is padded
  /// so lane_spill may store whole lane words).
  void spill() noexcept {
    lane_spill(lanes_.data(), ones_.data(), kWords);
    lanes_.fill(0);
    pending_ = 0;
  }

  /// Slots in ones_: padded to whole lane words (kLanesPerWord * kWords)
  /// so lane_spill can write four 64-bit lanes per word without a tail;
  /// padding slots stay zero forever.
  static constexpr std::size_t kOnesSlots =
      static_cast<std::size_t>(kLanesPerWord * kWords);

  std::array<std::uint64_t, kOnesSlots> ones_{};
  std::uint64_t total_ = 0;
  /// Lane accumulators, padded like LaneRow so lane_add works in whole
  /// rows.
  std::array<std::uint64_t, static_cast<std::size_t>(kLaneRowWords)> lanes_{};
  std::uint32_t pending_ = 0;
};

using BitCounters = BitCountersT<can::kStdIdBits>;

extern template class BitCountersT<can::kStdIdBits>;

/// Number of unordered bit pairs (i < j) for a given ID width.
[[nodiscard]] constexpr int pair_count(int width) noexcept {
  return width * (width - 1) / 2;
}

/// Flat index of the pair (i, j), i < j, in the upper-triangle layout used
/// by PairCountersT, WindowSnapshot::pair_probabilities and GoldenTemplate.
[[nodiscard]] constexpr int pair_index(int i, int j, int width) noexcept {
  return i * (2 * width - i - 1) / 2 + (j - i - 1);
}

/// Per-bit-pair co-occurrence counters: q_ij = Pr(bit_i = 1 AND bit_j = 1).
///
/// Still O(1) in the number of identifiers (55 counters for 11-bit IDs, on
/// top of the 11 marginals), but far more informative for malicious-ID
/// inference: mixing traffic is linear in q_ij exactly as in p_i, giving 66
/// usable equations instead of 11. This powers the multi-ID inference
/// extension described in DESIGN.md §6; the detector itself stays on the
/// paper's 11 marginal entropies.
template <int Width>
class PairCountersT {
  static_assert(Width > 0 && Width <= 32);

 public:
  static constexpr int kWidth = Width;
  static constexpr int kPairs = pair_count(Width);

  /// Only pairs of set bits contribute, so walk set bits (MSB-down) and
  /// touch O(popcount^2) counters instead of scanning all Width positions
  /// per set bit (~10 increments instead of ~50 for typical identifiers).
  void add(std::uint32_t raw_id) noexcept {
    marginals_.add(raw_id);
    add_pairs(raw_id);
  }

  /// Count only the marginal bit counters — the WindowAccumulator path for
  /// track_pairs=false configs, which previously paid the pair loop anyway.
  void add_marginal(std::uint32_t raw_id) noexcept { marginals_.add(raw_id); }

  /// Batch-count a block of identifiers; bit-identical to per-frame calls.
  /// Marginals go through lane_add; the pair updates (O(popcount^2),
  /// data-dependent scatter) stay scalar.
  void add_batch(const std::uint32_t* ids, std::size_t count,
                 bool with_pairs) noexcept {
    marginals_.add_batch(ids, count);
    if (!with_pairs) return;
    for (std::size_t i = 0; i < count; ++i) add_pairs(ids[i]);
  }

  void reset() noexcept {
    marginals_.reset();
    pair_ones_.fill(0);
  }

  [[nodiscard]] const BitCountersT<Width>& marginals() const noexcept {
    return marginals_;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return marginals_.total();
  }

  /// q_ij for i < j. Requires a non-empty window.
  [[nodiscard]] double pair_probability(int i, int j) const {
    CANIDS_EXPECTS(i >= 0 && i < j && j < Width);
    CANIDS_EXPECTS(total() > 0);
    return static_cast<double>(
               pair_ones_[static_cast<std::size_t>(pair_index(i, j, Width))]) /
           static_cast<double>(total());
  }

  /// All q_ij in flat upper-triangle order.
  [[nodiscard]] std::vector<double> pair_probabilities() const {
    std::vector<double> out(static_cast<std::size_t>(kPairs));
    for (int i = 0; i < Width - 1; ++i) {
      for (int j = i + 1; j < Width; ++j) {
        out[static_cast<std::size_t>(pair_index(i, j, Width))] =
            pair_probability(i, j);
      }
    }
    return out;
  }

  [[nodiscard]] static constexpr std::size_t state_bytes() noexcept {
    return BitCountersT<Width>::state_bytes() + sizeof(pair_ones_);
  }

 private:
  void add_pairs(std::uint32_t raw_id) noexcept {
    std::uint32_t rest = raw_id & BitCountersT<Width>::kIdMask;
    while (rest != 0) {
      const int hi = std::bit_width(rest) - 1;  // highest set bit, LSB = 0
      const int i = Width - 1 - hi;             // MSB-first index
      rest &= ~(1u << hi);
      for (std::uint32_t lower = rest; lower != 0; lower &= lower - 1) {
        const int j = Width - 1 - std::countr_zero(lower);
        ++pair_ones_[static_cast<std::size_t>(pair_index(i, j, Width))];
      }
    }
  }

  BitCountersT<Width> marginals_;
  std::array<std::uint64_t, static_cast<std::size_t>(kPairs)> pair_ones_{};
};

using PairCounters = PairCountersT<can::kStdIdBits>;

extern template class PairCountersT<can::kStdIdBits>;

}  // namespace canids::ids
