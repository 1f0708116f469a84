// INGEST — the capture-to-counters hot path: how fast frames move from a
// recorded trace into the per-bit counters. Two axes:
//
//   * format — candump text (scanned line by line) vs. the compact binary
//     trace format (fixed 22-byte records decoded without text parsing),
//     both as full frames (fill) and as the (timestamp, id) blocks the
//     fleet engine's batch replay reads (fill_ids), against an in-memory
//     replay of the same frames already decoded (MemorySource::fill);
//   * counting — the same ID block through BitCounters::add_batch, whose
//     lane loop runs as an AVX2 compilation on CPUs that have it.
//
//   ./bench_ingest
//
// Emits BENCH_ingest.json for the CI bench-trajectory artifact. The SHAPE
// verdict requires the binary round trip to be lossless, both id-block
// reads to yield exactly their fill path's timestamps and IDs, the
// add_batch counters to equal per-id add() counters, binary ingest to beat
// text, and binary ingest to reach >= 0.045x the in-memory replay (the
// acceptance bar: decoding fixed records costs little beyond moving the
// frames; measured at about 0.06x).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ids/bit_counters.h"
#include "trace/binary_trace.h"
#include "trace/candump.h"
#include "trace/synthetic_vehicle.h"
#include "trace/trace_io.h"
#include "util/bench_json.h"
#include "util/table.h"

using namespace canids;

namespace {

constexpr util::TimeNs kDriveSeconds = 60 * util::kSecond;
constexpr std::uint64_t kSeed = 0x1D5EED;
/// Each measurement repeats full passes until this much wall clock has
/// elapsed (one warm-up pass first), so the fast paths still get enough
/// iterations to time on a noisy machine; it reports the best of
/// kStretches such stretches, so one stall on a shared host does not set
/// the figure the SHAPE ratios compare.
constexpr double kMinSeconds = 0.25;
constexpr int kStretches = 3;

/// Run `pass` (returns frames processed, and adds the seconds it spent on
/// untimed setup to its argument) repeatedly and report frames/sec.
template <typename Fn>
double measure_fps(Fn&& pass) {
  double setup_seconds = 0.0;
  (void)pass(setup_seconds);  // warm-up: page in the input, prime allocators
  double best = 0.0;
  for (int stretch = 0; stretch < kStretches; ++stretch) {
    std::uint64_t frames = 0;
    setup_seconds = 0.0;
    const util::BenchTimer timer;
    do {
      frames += pass(setup_seconds);
    } while (timer.seconds() - setup_seconds < kMinSeconds);
    best = std::max(best, static_cast<double>(frames) /
                              (timer.seconds() - setup_seconds));
  }
  return best;
}

/// Drain a source through the bulk fill() path, counting frames.
std::uint64_t drain_count(trace::TraceSource& source,
                          std::vector<can::TimedFrame>& buffer) {
  std::uint64_t frames = 0;
  for (;;) {
    buffer.clear();
    if (source.fill(buffer, 4096) == 0) break;
    frames += buffer.size();
  }
  return frames;
}

/// Drain a source through the id-block fill_ids() path, counting frames.
std::uint64_t drain_id_count(trace::TraceSource& source,
                             std::vector<can::TimedId>& buffer) {
  std::uint64_t frames = 0;
  for (;;) {
    buffer.clear();
    if (source.fill_ids(buffer, 4096) == 0) break;
    frames += buffer.size();
  }
  return frames;
}

/// Whether a `Source` over `bytes` yields through fill_ids() exactly the
/// timestamps and IDs its fill() yields: the fill path minus the payload.
template <typename Source>
bool ids_match_fill(const std::string& bytes) {
  std::istringstream fill_in(bytes);
  const std::vector<can::TimedFrame> frames = Source(fill_in).drain();
  std::istringstream ids_in(bytes);
  Source source(ids_in);
  std::vector<can::TimedId> ids;
  while (source.fill_ids(ids, 4096) > 0) {
  }
  if (ids.size() != frames.size()) return false;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i].timestamp != frames[i].timestamp ||
        ids[i].id != frames[i].frame.id()) {
      return false;
    }
  }
  return true;
}

/// Sum of all per-bit counters — the value add_batch and add() must agree
/// on.
std::uint64_t counters_checksum(const ids::BitCounters& counters) {
  std::uint64_t sum = counters.total();
  for (int bit = 0; bit < can::kStdIdBits; ++bit) {
    sum = sum * 31 + counters.ones(bit);
  }
  return sum;
}

}  // namespace

int main() {
  util::print_banner(std::cout,
                     "Ingest hot path — binary vs. text trace decode and "
                     "batched bit counting");

  // One recorded drive, rendered once into both formats.
  const trace::SyntheticVehicle vehicle;
  const trace::Trace capture = vehicle.record_trace(
      trace::DrivingBehavior::kCity, kDriveSeconds, kSeed);

  std::ostringstream text_out;
  trace::save_trace(text_out, capture, trace::TraceFormat::kCandump);
  const std::string text = text_out.str();
  std::ostringstream binary_out;
  trace::save_trace(binary_out, capture, trace::TraceFormat::kBinary);
  const std::string binary = binary_out.str();

  // Lossless round trip: binary -> records -> candump must re-render to
  // the exact text the original produced.
  bool round_trip_ok = false;
  {
    std::istringstream in(binary);
    const trace::Trace reloaded = trace::load_trace(in);
    std::ostringstream rerendered;
    trace::save_trace(rerendered, reloaded, trace::TraceFormat::kCandump);
    round_trip_ok =
        reloaded.size() == capture.size() && rerendered.str() == text;
  }

  std::vector<can::TimedFrame> buffer;
  buffer.reserve(4096);
  const double text_fps = measure_fps([&](double&) {
    std::istringstream in(text);
    trace::CandumpSource source(in);
    return drain_count(source, buffer);
  });
  const double binary_fps = measure_fps([&](double&) {
    std::istringstream in(binary);
    trace::BinaryTraceSource source(in);
    return drain_count(source, buffer);
  });
  std::vector<can::TimedId> id_buffer;
  id_buffer.reserve(4096);
  const double text_ids_fps = measure_fps([&](double&) {
    std::istringstream in(text);
    trace::CandumpSource source(in);
    return drain_id_count(source, id_buffer);
  });
  // In-memory replay of the same frames, already decoded: the ceiling a
  // decoder's fill approaches. Copying the trace into each pass's source
  // is setup.
  const double memory_fps = measure_fps([&](double& setup_seconds) {
    const util::BenchTimer setup;
    trace::MemorySource source(capture);
    setup_seconds += setup.seconds();
    return drain_count(source, buffer);
  });
  const double binary_ids_fps = measure_fps([&](double&) {
    std::istringstream in(binary);
    trace::BinaryTraceSource source(in);
    return drain_id_count(source, id_buffer);
  });
  const double binary_vs_text = text_fps > 0.0 ? binary_fps / text_fps : 0.0;

  const bool binary_ids_match =
      ids_match_fill<trace::BinaryTraceSource>(binary);
  const bool text_ids_match = ids_match_fill<trace::CandumpSource>(text);

  // Counting: the same ID block through BitCounters::add_batch, checked
  // against per-id add().
  std::vector<std::uint32_t> raw_ids;
  raw_ids.reserve(capture.size());
  for (const trace::LogRecord& record : capture) {
    raw_ids.push_back(record.frame.id().raw());
  }
  ids::BitCounters counters;
  const double add_batch_fps = measure_fps([&](double&) {
    counters.reset();
    counters.add_batch(raw_ids.data(), raw_ids.size());
    return raw_ids.size();
  });
  counters.reset();
  counters.add_batch(raw_ids.data(), raw_ids.size());
  ids::BitCounters per_id;
  for (const std::uint32_t id : raw_ids) per_id.add(id);
  const bool counts_match =
      counters_checksum(counters) == counters_checksum(per_id);

  util::Table table({"path", "frames/s", "vs baseline"});
  char value[64];
  char ratio[64];
  std::snprintf(value, sizeof value, "%.0f", text_fps);
  table.add_row({"candump text ingest", value, "1.00x"});
  std::snprintf(value, sizeof value, "%.0f", binary_fps);
  std::snprintf(ratio, sizeof ratio, "%.2fx", binary_vs_text);
  table.add_row({"binary ingest", value, ratio});
  std::snprintf(value, sizeof value, "%.0f", binary_ids_fps);
  std::snprintf(ratio, sizeof ratio, "%.2fx",
                text_fps > 0.0 ? binary_ids_fps / text_fps : 0.0);
  table.add_row({"binary ingest, id blocks", value, ratio});
  std::snprintf(value, sizeof value, "%.0f", text_ids_fps);
  std::snprintf(ratio, sizeof ratio, "%.2fx", text_ids_fps / text_fps);
  table.add_row({"candump text, id blocks", value, ratio});
  std::snprintf(value, sizeof value, "%.0f", memory_fps);
  std::snprintf(ratio, sizeof ratio, "%.2fx", memory_fps / text_fps);
  table.add_row({"in-memory replay", value, ratio});
  std::snprintf(value, sizeof value, "%.0f", add_batch_fps);
  table.add_row({"add_batch bit counting", value, "--"});
  table.print(std::cout);
  std::printf("trace: %zu frames, %zu text bytes, %zu binary bytes\n",
              capture.size(), text.size(), binary.size());

  const double binary_vs_memory = binary_fps / memory_fps;
  util::write_bench_json(
      "ingest",
      {{"frames", static_cast<double>(capture.size())},
       {"text_fps", text_fps},
       {"binary_fps", binary_fps},
       {"binary_vs_text", binary_vs_text},
       {"binary_ids_fps", binary_ids_fps},
       {"text_ids_fps", text_ids_fps},
       {"memory_fps", memory_fps},
       {"binary_vs_memory", binary_vs_memory},
       {"add_batch_fps", add_batch_fps}});

  const bool ok = round_trip_ok && binary_ids_match && text_ids_match &&
                  counts_match && binary_fps > text_fps &&
                  binary_vs_memory >= 0.045;
  if (!round_trip_ok) std::printf("FAIL: binary round trip not lossless\n");
  if (!binary_ids_match || !text_ids_match) {
    std::printf("FAIL: %s fill_ids disagrees with fill on timestamps or IDs\n",
                binary_ids_match ? "candump" : "binary");
  }
  if (!counts_match) {
    std::printf("FAIL: add_batch checksum differs from per-id add()\n");
  }
  if (binary_fps <= text_fps) {
    std::printf("FAIL: binary ingest %.0f frames/s does not beat text's %.0f\n",
                binary_fps, text_fps);
  }
  if (binary_vs_memory < 0.045) {
    std::printf(
        "FAIL: binary ingest only %.3fx the in-memory replay (need >= "
        "0.045x)\n",
        binary_vs_memory);
  }
  std::cout << (ok ? "SHAPE OK\n" : "SHAPE MISMATCH\n");
  return ok ? 0 : 1;
}
