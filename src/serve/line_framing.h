// Incremental newline framing for socket ingest. A TCP/UDS byte stream has
// no record boundaries: one recv() may carry half a candump line, three
// lines and a fragment, or a client's entire replay. LineFramer turns that
// into the line-at-a-time view the parsers expect, with the same
// keep-going contract the fleet's file-ingest path has for malformed
// input: an over-long line (a runaway or binary-garbage client) is
// discarded and counted, and framing recovers at the next newline instead
// of poisoning the connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace canids::serve {

class LineFramer {
 public:
  /// Invoked once per completed line, without its trailing newline (a
  /// trailing '\r' is stripped too, so CRLF clients work). The view is
  /// only valid for the duration of the call.
  using LineFn = std::function<void(std::string_view)>;

  /// feed_some's callback: return false to stop framing after this line
  /// (a protocol upgrade such as the serve BINARY switch — the rest of the
  /// chunk belongs to another framer).
  using GatedLineFn = std::function<bool(std::string_view)>;

  /// Longest accepted line, in bytes (excluding the newline). A candump
  /// line tops out well under 100 bytes; the default leaves room for
  /// future framing without letting one client grow an unbounded buffer.
  static constexpr std::size_t kDefaultMaxLine = 4096;

  explicit LineFramer(std::size_t max_line = kDefaultMaxLine)
      : max_line_(max_line) {}

  /// Feed one received chunk, invoking `on_line` for every line it
  /// completes. Bytes after the last newline are buffered for the next
  /// feed. Lines longer than max_line are discarded — counted in
  /// oversized() — and framing resumes after their terminating newline.
  void feed(const char* data, std::size_t size, const LineFn& on_line);

  /// Like feed, but the callback can stop framing: when `on_line` returns
  /// false, no further bytes are consumed and feed_some returns the number
  /// of bytes processed (the stopping line's newline included) — the caller
  /// owns the remainder. Returns `size` when the whole chunk was framed.
  std::size_t feed_some(const char* data, std::size_t size,
                        const GatedLineFn& on_line);

  /// Connection end-of-stream: deliver a final unterminated line, if any
  /// (candump writers always end with a newline, but a killed client may
  /// not). An oversized line still being discarded is simply dropped.
  void finish(const LineFn& on_line);

  /// Over-long lines discarded so far.
  [[nodiscard]] std::uint64_t oversized() const noexcept {
    return oversized_;
  }

 private:
  std::size_t max_line_;
  std::string buffer_;  ///< partial line carried across feeds
  bool discarding_ = false;
  std::uint64_t oversized_ = 0;
};

}  // namespace canids::serve
