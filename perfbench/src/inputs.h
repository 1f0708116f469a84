// Input generation. Every input derives from the benchmark seed; the
// programs under test only ever see the files written here (and, for
// campaign_grid, the spec built in campaign_grid.cpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "can/frame.h"
#include "util/time.h"

namespace perfbench {

/// fleet_clean: 16 clean synthetic-vehicle streams over all 7 driving
/// behaviours, each a short simulated drive tiled by shifting timestamps
/// to about half a million frames, as canidsBT files in dir/fleet, plus
/// the trained model bundle dir/models.cbm.
void generate_fleet(std::uint64_t seed, const std::filesystem::path& dir);

/// serve_text: 3 streams in dir/serve, each one loop of kServeLoopWindows
/// one-second windows that alternate a clean drive and the same drive with
/// a 100 Hz single-ID injection, plus dir/models.cbm.
void generate_serve(std::uint64_t seed, const std::filesystem::path& dir);

inline constexpr int kFleetStreams = 16;
inline constexpr int kServeStreams = 3;
inline constexpr int kServeLoopWindows = 40;
inline constexpr canids::util::TimeNs kServeLoopSpan =
    kServeLoopWindows * canids::util::kSecond;

/// Every frame of a canidsBT file, in order.
[[nodiscard]] std::vector<canids::can::TimedFrame> read_frames(
    const std::filesystem::path& path);

}  // namespace perfbench
