// Binary wire framing for socket ingest. After a data connection sends the
// `BINARY` line, its byte stream is a sequence of canidsBT 22-byte records
// (the same layout `canids convert` writes to disk) with no container
// header: fixed-size framing means a recv boundary can only ever split a
// record, never lose sync, so partial records are carried across feeds in
// a small stack buffer and framing resumes at the next 22-byte boundary
// after a tampered record. Unlike the strict file loader, a bad record
// (reserved id bit, out-of-range dlc, nonzero payload padding) is counted
// as a per-stream parse error and the connection lives — the wire
// equivalent of a malformed candump line. The channel-index byte is
// ignored: a socket stream has no channel table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "can/frame.h"
#include "trace/binary_trace.h"

namespace canids::serve {

class BinaryFramer {
 public:
  /// Feed one received chunk: decodes every complete record, appending the
  /// valid ones to `out` as (timestamp, id) items and counting the invalid
  /// ones in faults(). Trailing bytes short of a full record are buffered
  /// for the next feed. Returns the number of items appended.
  std::size_t feed(const char* data, std::size_t size,
                   std::vector<can::TimedId>& out);

  /// Connection end-of-stream: a buffered partial record means the client
  /// died mid-record — counted as one fault (binary writers always end on
  /// a record boundary).
  void finish();

  /// Invalid or truncated records seen so far.
  [[nodiscard]] std::uint64_t faults() const noexcept { return faults_; }

 private:
  unsigned char partial_[trace::kBinaryRecordBytes];
  std::size_t partial_len_ = 0;
  std::uint64_t faults_ = 0;
};

}  // namespace canids::serve
