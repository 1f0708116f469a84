// The unified detector-backend API. The paper's §V.E (and the IVN-IDS
// comparison literature at large) runs several detectors over identical
// traffic; this interface is the one shape every detector — the paper's
// bit-slice entropy IDS, the whole-distribution entropy baseline [8], the
// time-interval baseline [11], and any composition of them — presents to
// the pipeline, the fleet engine, the experiment harness, and the CLI:
//
//   frame in ──► on_frame() ──► optional<WindowVerdict> out
//
// A backend owns its windowing and per-stream runtime state; trained state
// (golden template, learned entropy band, learned periods) is immutable and
// shared, so clone_for_stream() can stamp out thousands of per-vehicle
// instances copy-free.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "can/frame.h"
#include "ids/pipeline.h"
#include "model/store.h"
#include "util/time.h"

namespace canids::analysis {

/// Detector-specific evidence attached to an alerting verdict. Fields a
/// backend cannot provide stay empty (only the bit-entropy detector can
/// name identifier bits or infer candidates; only the ensemble has voters).
struct Alert {
  /// Identifier bits whose entropy left the golden band (0-based, MSB
  /// first). Bit-entropy backend only.
  std::vector<int> alerted_bits;
  /// Ranked malicious-ID candidates from the inference engine, best first.
  /// Bit-entropy backend with a non-empty id pool only.
  std::vector<std::uint32_t> ranked_candidates;
  /// Member backends that voted for this alert. Ensemble only.
  std::vector<std::string> voters;

  friend bool operator==(const Alert&, const Alert&) = default;
};

/// One judged window — the common event model that subsumes the bit-level
/// WindowReport, MuterEntropyIds::Result, and the interval IDS's window
/// decision. `metric` vs `threshold` is each detector's decision variable
/// in its own unit (max bit-entropy deviation, whole-distribution entropy
/// deviation, peak per-ID violation count, ensemble votes).
struct WindowVerdict {
  util::TimeNs start = 0;
  util::TimeNs end = 0;
  std::uint64_t frames = 0;
  /// False while the backend is still calibrating or the window was too
  /// small to judge; `alert` is only meaningful when true.
  bool evaluated = false;
  bool alert = false;
  double metric = 0.0;
  double threshold = 0.0;
  /// Present exactly when `alert` is true.
  std::optional<Alert> detail;

  friend bool operator==(const WindowVerdict&, const WindowVerdict&) = default;
};

/// Static + live description of a backend (the §V.E comparison axes).
struct DetectorInfo {
  std::string name;          ///< registry key, e.g. "bit-entropy"
  std::string paper;         ///< source citation
  std::string state_growth;  ///< storage growth law, e.g. "O(1): 11 counters"
  bool supports_inference = false;  ///< can name the malicious identifier
  /// Live monitoring-state footprint right now; 0 in registry listings.
  std::size_t state_bytes = 0;
  /// Whether the backend holds a trained model (false while a
  /// self-calibrating baseline is still observing its lead-in windows).
  bool trained = false;
};

/// Serialization interface for backends whose trained state can be
/// persisted to a model::ModelBundle section and restored without a
/// training pass. Reached through DetectorBackend::trainable() — backends
/// with no durable trained state (or none yet, e.g. a still-calibrating
/// baseline) are simply not trainable at that moment.
class TrainableBackend {
 public:
  virtual ~TrainableBackend() = default;

  /// Canonical bundle-section name this backend's model persists under
  /// (model::kGoldenSection et al. — one section per model kind, shared by
  /// every instance of the backend).
  [[nodiscard]] virtual std::string_view model_section() const noexcept = 0;

  /// Serialize the trained model. Throws std::runtime_error when the
  /// backend holds no trained model yet (self-calibration not finished).
  virtual void export_model(std::ostream& out) const = 0;

  /// Replace the trained model with a previously exported one. Runtime
  /// window state restarts pristine; accumulated counters are kept. Throws
  /// std::runtime_error on a malformed stream.
  virtual void import_model(std::istream& in) = 0;
};

/// The immutable trained-model set a RUNNING backend can adopt in place —
/// the hot-reload unit the live fleet service swaps on SIGHUP. It is the
/// set a bundle loads into. Null entries mean "keep what you have"; each
/// backend takes its slice and ignores the rest (mirroring DetectorOptions
/// at construction time).
using ModelRefs = model::StoredModels;

/// Polymorphic detector: feed timestamped identifiers, receive window
/// verdicts. Single-threaded per instance; share nothing mutable.
class DetectorBackend {
 public:
  virtual ~DetectorBackend() = default;

  /// The serialization interface, when this backend's trained state is
  /// persistable (nullptr otherwise — the default). Composite backends
  /// (ensemble) return nullptr: their members' models persist individually
  /// through the model store.
  [[nodiscard]] virtual TrainableBackend* trainable() noexcept {
    return nullptr;
  }
  [[nodiscard]] const TrainableBackend* trainable() const noexcept {
    return const_cast<DetectorBackend*>(this)->trainable();
  }

  /// Feed one frame. Returns the verdict of a window this frame closed, if
  /// any (alerting or not; check verdict.alert).
  virtual std::optional<WindowVerdict> on_frame(util::TimeNs timestamp,
                                                const can::CanId& id) = 0;

  /// Feed a block of frames, appending the verdict of every window they
  /// close to `out`, in close order. Semantically identical to calling
  /// on_frame per item; backends with a batched hot path (bit-entropy)
  /// override this, everything else inherits the loop.
  virtual void on_frames(const can::TimedId* frames, std::size_t count,
                         std::vector<WindowVerdict>& out) {
    for (std::size_t i = 0; i < count; ++i) {
      if (auto verdict = on_frame(frames[i].timestamp, frames[i].id)) {
        out.push_back(std::move(*verdict));
      }
    }
  }

  /// Hot-swap shared trained models IN PLACE: unlike
  /// TrainableBackend::import_model (a cold restart), the open window's
  /// accumulated state, the window clock, and all counters are kept — only
  /// the immutable model the next window close is judged against changes.
  /// Adopting the models a backend is already using is therefore a strict
  /// no-op for detectors whose models are consulted only at window close
  /// (bit-entropy, symbol-entropy) — the invariant the live service's
  /// reload-under-replay verdict-identity check rests on. The interval
  /// backend must also replace its per-ID arrival tracking, so its
  /// currently-open window restarts violation counting at the swap. Null
  /// entries keep the current model. Throws std::invalid_argument when a
  /// supplied model is incompatible (e.g. a golden template of a different
  /// identifier width), leaving the backend untouched. Default: no-op.
  virtual void rebind_models(const ModelRefs& models) { (void)models; }

  /// Close and judge the partially-filled final window, if any.
  virtual std::optional<WindowVerdict> finish() = 0;

  /// Frame/window/alert accounting for this instance. parse_errors is
  /// owned by the ingest layer and stays 0 here.
  [[nodiscard]] virtual const ids::PipelineCounters& counters() const = 0;

  /// Name, paper source, storage profile, live state size.
  [[nodiscard]] virtual DetectorInfo describe() const = 0;

  /// Stamp out a fresh per-stream instance sharing this backend's immutable
  /// trained state (the fleet engine calls this once per vehicle stream).
  /// A non-empty `id_pool` overrides the prototype's legal-ID set and
  /// enables malicious-ID inference on backends that support it; an empty
  /// pool keeps the prototype's own configuration (it does NOT disable
  /// inference — build the prototype without a pool for that). Backends
  /// without inference ignore it. Runtime state (window accumulators,
  /// violation counts, calibration progress) starts pristine in the clone.
  [[nodiscard]] virtual std::unique_ptr<DetectorBackend> clone_for_stream(
      std::vector<std::uint32_t> id_pool = {}) const = 0;
};

}  // namespace canids::analysis
