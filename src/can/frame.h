// CAN 2.0 frame model: identifiers (standard 11-bit and extended 29-bit),
// data frames and remote frames, with the bit accessors the entropy IDS
// builds on.
//
// Bit indexing convention (used consistently across the library and in all
// reports): bit 0 is the MOST significant identifier bit — the first bit on
// the wire and the one with the highest arbitration weight. Human-facing
// output prints 1-based positions ("Bit 1".."Bit 11") to match the paper.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "util/contracts.h"
#include "util/time.h"

namespace canids::can {

inline constexpr int kStdIdBits = 11;
inline constexpr int kExtIdBits = 29;
inline constexpr std::uint32_t kMaxStdId = 0x7FFu;
inline constexpr std::uint32_t kMaxExtId = 0x1FFF'FFFFu;
inline constexpr std::size_t kMaxDataBytes = 8;

/// Identifier format of a frame (CAN 2.0A standard vs 2.0B extended).
enum class IdFormat : std::uint8_t { kStandard, kExtended };

/// A CAN identifier plus its format. Immutable value type.
class CanId {
 public:
  /// Default: standard ID 0x000 (the most dominant identifier).
  constexpr CanId() noexcept = default;

  [[nodiscard]] static constexpr CanId standard(std::uint32_t raw) {
    CANIDS_EXPECTS(raw <= kMaxStdId);
    return CanId(raw, IdFormat::kStandard);
  }

  [[nodiscard]] static constexpr CanId extended(std::uint32_t raw) {
    CANIDS_EXPECTS(raw <= kMaxExtId);
    return CanId(raw, IdFormat::kExtended);
  }

  [[nodiscard]] constexpr std::uint32_t raw() const noexcept { return raw_; }
  [[nodiscard]] constexpr bool is_extended() const noexcept {
    return format_ == IdFormat::kExtended;
  }

  /// Number of identifier bits (11 or 29).
  [[nodiscard]] constexpr int width() const noexcept {
    return is_extended() ? kExtIdBits : kStdIdBits;
  }

  /// MSB-first bit accessor: bit(0) is the highest-priority bit.
  [[nodiscard]] constexpr bool bit(int index) const {
    CANIDS_EXPECTS(index >= 0 && index < width());
    return ((raw_ >> (width() - 1 - index)) & 1u) != 0;
  }

  [[nodiscard]] std::string to_string() const;

  friend constexpr bool operator==(CanId a, CanId b) noexcept {
    return a.raw_ == b.raw_ && a.format_ == b.format_;
  }
  /// Orders by (format, raw). NOTE: this is a container ordering, not the
  /// arbitration order; use can::arbitrate for bus semantics.
  friend constexpr auto operator<=>(CanId a, CanId b) noexcept {
    if (a.format_ != b.format_) return a.format_ <=> b.format_;
    return a.raw_ <=> b.raw_;
  }

 private:
  constexpr CanId(std::uint32_t raw, IdFormat format) noexcept
      : raw_(raw), format_(format) {}

  std::uint32_t raw_ = 0;
  IdFormat format_ = IdFormat::kStandard;
};

/// A CAN 2.0 frame (data or remote). Payload bytes beyond dlc() are zero.
class Frame {
 public:
  Frame() noexcept = default;

  /// Build a data frame; payload.size() must be <= 8.
  [[nodiscard]] static Frame data_frame(CanId id,
                                        std::span<const std::uint8_t> payload);

  /// Build a remote frame requesting `dlc` bytes.
  [[nodiscard]] static Frame remote_frame(CanId id, std::uint8_t dlc);

  [[nodiscard]] CanId id() const noexcept { return id_; }
  [[nodiscard]] bool is_remote() const noexcept { return remote_; }
  [[nodiscard]] std::uint8_t dlc() const noexcept { return dlc_; }

  /// Payload view limited to dlc() bytes; empty for remote frames.
  [[nodiscard]] std::span<const std::uint8_t> payload() const noexcept {
    return remote_ ? std::span<const std::uint8_t>{}
                   : std::span<const std::uint8_t>(data_.data(), dlc_);
  }

  /// Render like candump: "123#DEADBEEF" (or "123#R4" for remote frames).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Frame& a, const Frame& b) noexcept {
    return a.id_ == b.id_ && a.remote_ == b.remote_ && a.dlc_ == b.dlc_ &&
           a.data_ == b.data_;
  }

 private:
  CanId id_;
  bool remote_ = false;
  std::uint8_t dlc_ = 0;
  std::array<std::uint8_t, kMaxDataBytes> data_{};
};

/// A timestamped identifier — the compact item the batched scoring path
/// passes around (fleet queues, DetectorBackend::on_frames). The entropy
/// detectors only read the ID, so batches move 16 bytes per frame instead
/// of a whole TimedFrame.
struct TimedId {
  util::TimeNs timestamp = 0;
  CanId id;
};

/// A frame together with its (simulated or logged) completion timestamp and
/// the index of the transmitting node (kUnknownSource for parsed logs).
struct TimedFrame {
  util::TimeNs timestamp = 0;
  Frame frame;
  int source_node = kUnknownSource;

  static constexpr int kUnknownSource = -1;
};

}  // namespace canids::can
