// Strong adversary, scenario 1 (§III.B.1): flood the bus with changeable
// high-priority identifiers. Using many different dominant IDs dodges both
// the dominant-timeout of real transceivers (the frames are well-formed, so
// stuffing keeps every dominant run short) and naive per-ID rate filters,
// which is exactly why the paper's bit-entropy view is needed to catch it.
#include "attacks/scenario.h"

#include "util/contracts.h"

namespace canids::attacks {

BuiltAttack make_flooding_attack(const AttackConfig& config, util::Rng rng,
                                 std::uint32_t id_floor,
                                 std::uint32_t id_ceiling) {
  CANIDS_EXPECTS(id_floor <= id_ceiling);
  CANIDS_EXPECTS(id_ceiling <= can::kMaxStdId);
  // ID 0x000 is deliberately excluded by the default floor: an all-dominant
  // identifier repeated back-to-back is the zero-flood that real
  // transceivers' dominant-timeout already stops (§III.B.1).
  auto selector_rng = rng.fork();
  auto selector = [selector_rng, id_floor,
                   id_ceiling](std::uint32_t /*seq*/) mutable {
    const std::uint64_t span = id_ceiling - id_floor + 1;
    return can::CanId::standard(
        id_floor + static_cast<std::uint32_t>(selector_rng.below(span)));
  };

  BuiltAttack attack;
  attack.kind = ScenarioKind::kFlood;
  attack.node = std::make_unique<InjectionNode>("attacker-flood", config,
                                                std::move(selector), rng);
  // planned_ids stays empty: the flooding ID set is unbounded by design.
  return attack;
}

}  // namespace canids::attacks
