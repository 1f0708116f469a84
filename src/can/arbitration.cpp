#include "can/arbitration.h"

#include <bit>
#include <cstdint>

namespace canids::can {

namespace {

/// The arbitration field MSB-aligned in 32 bits and padded with dominant
/// (0) bits. The wired-AND contest then reduces to integer order: the lowest
/// key wins, and a loser drops out at the first bit where its key differs
/// from the winner's.
std::uint32_t arbitration_key(const Frame& frame) noexcept {
  const CanId id = frame.id();
  const std::uint32_t rtr = frame.is_remote() ? 1u : 0u;
  if (!id.is_extended()) {
    // ID, RTR, then the dominant IDE bit: a standard frame sends IDE
    // dominant where an extended frame with the same 11 leading bits sends
    // recessive SRR/IDE, so standard beats extended.
    return (id.raw() << 21) | (rtr << 20);
  }
  return ((id.raw() >> 18) << 21) | (0b11u << 19) |  // ID[28..18], SRR, IDE
         ((id.raw() & 0x3FFFFu) << 1) | rtr;         // ID[17..0], RTR
}

}  // namespace

BitString arbitration_bits(const Frame& frame) {
  const int length = frame.id().is_extended() ? 32 : kStdIdBits + 2;
  BitString bits;
  bits.append_bits(arbitration_key(frame) >> (32 - length), length);
  return bits;
}

ArbitrationResult arbitrate(std::span<const Frame> contenders) {
  ArbitrationResult result;
  arbitrate(contenders, result);
  return result;
}

void arbitrate(std::span<const Frame> contenders, ArbitrationResult& out) {
  CANIDS_EXPECTS(!contenders.empty());
  // The lowest index holding the minimum key wins; every other contender
  // with that key transmitted an identical field (a tie).
  std::size_t winner = 0;
  std::uint32_t winner_key = arbitration_key(contenders[0]);
  for (std::size_t i = 1; i < contenders.size(); ++i) {
    const std::uint32_t key = arbitration_key(contenders[i]);
    if (key < winner_key) {
      winner = i;
      winner_key = key;
    }
  }
  out.winner = winner;
  out.lost_at_bit.assign(contenders.size(), std::nullopt);
  out.tied_with_winner.clear();
  for (std::size_t i = 0; i < contenders.size(); ++i) {
    if (i == winner) continue;
    const std::uint32_t key = arbitration_key(contenders[i]);
    if (key == winner_key) {
      out.tied_with_winner.push_back(i);
    } else {
      out.lost_at_bit[i] =
          static_cast<std::size_t>(std::countl_zero(key ^ winner_key));
    }
  }
}

}  // namespace canids::can
