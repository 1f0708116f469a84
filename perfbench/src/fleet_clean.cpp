// fleet_clean: whole `canids fleet`-equivalent passes over 16 clean canidsBT
// streams — bundle load, engine construct, open_trace_source, run_fleet,
// finish — at CLI defaults (bit-entropy, shards = 0, default producers, no
// ID pool).
//
//   perfbench fleet-ref --dir D     single-threaded IdsPipeline reference
//   perfbench fleet-run --dir D --seconds S --trace 0|1 [--spans FILE]
//
// The reference runs in its own process so that fleet-run's peak RSS is
// the engine's alone.
#include <algorithm>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/registry.h"
#include "common.h"
#include "engine/fleet_engine.h"
#include "ids/pipeline.h"
#include "inputs.h"
#include "model/store.h"
#include "spans.h"
#include "trace/trace_io.h"

namespace perfbench {

namespace cn = canids;

namespace {

/// What a single-threaded pipeline says about one stream.
struct Reference {
  std::string key;
  cn::ids::PipelineCounters counters;
  /// One line per closed window: "start end frames evaluated alert".
  std::vector<std::string> windows;
};

std::string window_line(cn::util::TimeNs start, cn::util::TimeNs end,
                        std::uint64_t frames, bool evaluated, bool alert) {
  std::ostringstream out;
  out << start << ' ' << end << ' ' << frames << ' ' << evaluated << ' '
      << alert;
  return out.str();
}

std::vector<std::filesystem::path> stream_paths(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir / "fleet")) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  check(paths.size() == static_cast<std::size_t>(kFleetStreams),
        "fleet_clean expects " + std::to_string(kFleetStreams) + " streams");
  return paths;
}

void write_reference(const std::filesystem::path& path,
                     const std::vector<Reference>& refs) {
  std::ofstream out(path, std::ios::trunc);
  for (const Reference& ref : refs) {
    out << ref.key << ' ' << ref.counters.frames << ' '
        << ref.counters.windows_closed << ' '
        << ref.counters.windows_evaluated << ' ' << ref.counters.alerts << ' '
        << ref.windows.size() << '\n';
    for (const std::string& line : ref.windows) out << line << '\n';
  }
  check(static_cast<bool>(out), "cannot write " + path.string());
}

std::vector<Reference> read_reference(const std::filesystem::path& path) {
  std::ifstream in(path);
  check(static_cast<bool>(in), "missing reference " + path.string());
  std::vector<Reference> refs;
  Reference ref;
  std::size_t lines = 0;
  while (in >> ref.key >> ref.counters.frames >> ref.counters.windows_closed >>
         ref.counters.windows_evaluated >> ref.counters.alerts >> lines) {
    in.ignore();
    ref.windows.resize(lines);
    for (std::string& line : ref.windows) std::getline(in, line);
    refs.push_back(ref);
  }
  return refs;
}

struct Pass {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t failed = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Compare one pass's per-stream results with the reference; returns the
/// frames that were not judged as the reference judged them.
std::uint64_t verify(const cn::engine::FleetRunResult& run,
                     const std::vector<Reference>& refs, int shards,
                     bool verdicts) {
  check(run.errors.empty(), "fleet_clean: stream error: " +
                                (run.errors.empty() ? std::string()
                                                    : run.errors[0].second));
  check(run.streams.size() == refs.size(), "fleet_clean: stream count");
  std::uint64_t failed = 0;
  std::set<int> owning;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const cn::engine::StreamResult& got = run.streams[i];
    const Reference& want = refs[i];
    check(got.key == want.key, "fleet_clean: stream order");
    owning.insert(got.shard);
    const cn::ids::PipelineCounters& c = got.counters;
    failed += c.parse_errors + c.queue_dropped +
              (want.counters.frames > c.frames ? want.counters.frames - c.frames
                                               : 0);
    check(c.frames == want.counters.frames &&
              c.windows_closed == want.counters.windows_closed &&
              c.windows_evaluated == want.counters.windows_evaluated &&
              c.alerts == want.counters.alerts,
          "fleet_clean: counters of " + got.key +
              " differ from the single-threaded pipeline");
    // Load shape: a clean fleet raises no alert, so no inference runs.
    check(c.alerts == 0, "fleet_clean: load shape: alerted windows in " +
                             got.key);
    if (verdicts) {
      check(got.verdicts.size() == want.windows.size(),
            "fleet_clean: verdict count of " + got.key);
      for (std::size_t w = 0; w < want.windows.size(); ++w) {
        const cn::analysis::WindowVerdict& v = got.verdicts[w];
        check(window_line(v.start, v.end, v.frames, v.evaluated, v.alert) ==
                  want.windows[w],
              "fleet_clean: verdict " + std::to_string(w) + " of " + got.key +
                  " differs from the single-threaded pipeline");
      }
    }
  }
  check(static_cast<int>(owning.size()) == shards,
        "fleet_clean: load shape: " + std::to_string(owning.size()) + " of " +
            std::to_string(shards) + " shards own streams");
  return failed;
}

}  // namespace

int fleet_ref(const Options& options) {
  const std::filesystem::path dir = options.str("dir");
  const cn::model::StoredModels models =
      cn::model::load_models_file(dir / "models.cbm");
  std::vector<Reference> refs;
  std::int64_t busy_ns = 0;
  std::uint64_t frames = 0;
  for (const std::filesystem::path& path : stream_paths(dir)) {
    std::vector<cn::can::TimedId> ids;
    for (const cn::can::TimedFrame& frame : read_frames(path)) {
      ids.push_back(cn::can::TimedId{frame.timestamp, frame.frame.id()});
    }
    cn::ids::IdsPipeline pipeline(models.golden, {});
    std::vector<cn::ids::WindowReport> reports;
    const std::int64_t start = now_ns();
    pipeline.on_frames(ids.data(), ids.size(), reports);
    if (auto last = pipeline.finish()) reports.push_back(std::move(*last));
    busy_ns += now_ns() - start;
    frames += ids.size();

    Reference ref;
    ref.key = path.filename().string();
    ref.counters = pipeline.counters();
    for (const cn::ids::WindowReport& report : reports) {
      ref.windows.push_back(window_line(
          report.snapshot.start, report.snapshot.end, report.snapshot.frames,
          report.detection.evaluated, report.detection.alert));
    }
    refs.push_back(std::move(ref));
  }
  write_reference(dir / "reference.txt", refs);
  Result result;
  result.num("pipeline_seq_fps",
             static_cast<double>(frames) / (static_cast<double>(busy_ns) * 1e-9));
  result.print();
  return 0;
}

int fleet_run(const Options& options) {
  const std::filesystem::path dir = options.str("dir");
  const double seconds = options.number("seconds");
  const bool traced = options.integer("trace") != 0;
  const std::vector<std::filesystem::path> paths = stream_paths(dir);
  const std::vector<Reference> refs = read_reference(dir / "reference.txt");
  std::uint64_t frames_per_pass = 0;
  for (const Reference& ref : refs) frames_per_pass += ref.counters.frames;

  SpanRecorder& spans = SpanRecorder::instance();
  const std::uint32_t root_name = spans.name("engine.run_fleet");
  const std::uint32_t fill_name = spans.name("trace.fill");
  const std::uint32_t backend_name = spans.name("analysis.on_frames");
  auto backend_parent = std::make_shared<std::atomic<std::uint64_t>>(0);

  // One pass as `canids fleet` runs it. A traced pass swaps in the
  // span-recording source and backend decorators around the same objects.
  auto run_pass = [&](bool trace_pass, bool collect) {
    Pass pass;
    const std::int64_t t0 = now_ns();
    const cn::model::StoredModels models =
        cn::model::load_models_file(dir / "models.cbm");
    cn::engine::FleetConfig config;
    config.collect_verdicts = collect;
    std::unique_ptr<cn::engine::FleetEngine> engine;
    std::uint64_t root = 0;
    if (trace_pass) {
      root = spans.open();
      backend_parent->store(root);
      cn::analysis::DetectorOptions detector;
      detector.golden = models.golden;
      detector.muter_model = models.muter;
      detector.interval_model = models.interval;
      engine = std::make_unique<cn::engine::FleetEngine>(
          std::make_unique<SpanBackend>(
              cn::analysis::make_detector("bit-entropy", detector),
              backend_parent),
          config);
    } else {
      engine = std::make_unique<cn::engine::FleetEngine>(
          models, "bit-entropy", cn::analysis::DetectorOptions{}, config);
    }
    pass.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

    std::vector<cn::engine::NamedSource> sources;
    for (const std::filesystem::path& path : paths) {
      std::unique_ptr<cn::trace::TraceSource> source =
          cn::trace::open_trace_source(path);
      if (trace_pass) {
        source = std::make_unique<SpanSource>(std::move(source), root);
      }
      sources.push_back(
          cn::engine::NamedSource{path.filename().string(), std::move(source), {}});
    }
    const std::int64_t cpu0 = process_cpu_ns();
    pass.start_ns = now_ns();
    const cn::engine::FleetRunResult run =
        cn::engine::run_fleet(*engine, std::move(sources), 0);
    pass.end_ns = now_ns();
    pass.cpu_ns = process_cpu_ns() - cpu0;
    pass.run_s = static_cast<double>(pass.end_ns - pass.start_ns) * 1e-9;
    if (trace_pass) {
      Span span;
      span.id = root;
      span.name = root_name;
      span.start_ns = pass.start_ns;
      span.end_ns = pass.end_ns;
      span.count = engine->totals().frames;
      spans.record(span);
    }
    pass.frames = engine->totals().frames;
    pass.failed = verify(run, refs, engine->shards(), collect);
    return std::pair{pass, root};
  };

  // Warm-up: page cache, allocator, lazy dispatch. Its verdicts are checked
  // window by window against the reference; timed passes check counters.
  run_pass(false, true);

  std::vector<Pass> plain;
  std::vector<Pass> traced_passes;
  std::vector<std::uint64_t> roots;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (int i = 0; plain.size() < 3 || now_ns() < deadline ||
                  (traced && traced_passes.size() < 2);
       ++i) {
    // A traced run alternates traced and untraced passes (at most 4 traced
    // ones) so the tracing overhead is measured under the same conditions.
    const bool trace_pass = traced && i % 2 == 1 && traced_passes.size() < 4;
    auto [pass, root] = run_pass(trace_pass, false);
    if (trace_pass) {
      traced_passes.push_back(pass);
      roots.push_back(root);
    } else {
      plain.push_back(pass);
    }
  }

  Result result;
  std::vector<double> setup, fps, run_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Pass& pass : plain) {
    setup.push_back(pass.setup_s);
    fps.push_back(static_cast<double>(pass.frames) / pass.run_s);
    run_ms.push_back(pass.run_s * 1e3);
    attempted += frames_per_pass;
    failed += pass.failed;
  }
  result.count("attempted", attempted);
  result.count("failed", failed);
  result.list("setup_s", setup);
  result.list("frames_per_s", fps);
  result.list("pass_ms", run_ms);
  result.num("peak_rss_mb", self_peak_rss_mb());
  if (traced) {
    std::vector<double> traced_ms, core, busy, tail;
    std::int64_t cpu = 0;
    std::uint64_t frames = 0;
    for (std::size_t i = 0; i < traced_passes.size(); ++i) {
      const Pass& pass = traced_passes[i];
      traced_ms.push_back(pass.run_s * 1e3);
      core.push_back(static_cast<double>(pass.cpu_ns) /
                     static_cast<double>(pass.frames));
      busy.push_back(static_cast<double>(pass.cpu_ns) /
                     (static_cast<double>(pass.end_ns - pass.start_ns) *
                      hardware_threads()));
      tail.push_back(
          static_cast<double>(pass.end_ns - spans.last_end(fill_name, roots[i])) *
          1e-6);
      cpu += pass.cpu_ns;
      frames += pass.frames;
    }
    result.list("traced_pass_ms", traced_ms);
    result.list("core_ns_per_frame", core);
    result.list("busy_frac", busy);
    result.list("drain_tail_ms", tail);
    const double fill_ns = static_cast<double>(spans.total_ns(fill_name));
    const double backend_ns = static_cast<double>(spans.total_ns(backend_name));
    result.num("fill_ns_per_frame",
               fill_ns / static_cast<double>(spans.item_count(fill_name)));
    result.num("on_frames_ns_per_frame",
               backend_ns / static_cast<double>(spans.item_count(backend_name)));
    result.num("self_ns_per_frame",
               (static_cast<double>(cpu) - fill_ns - backend_ns) /
                   static_cast<double>(frames));
    std::vector<double> load_ms;
    for (int i = 0; i < 5; ++i) {
      const std::int64_t start = now_ns();
      (void)cn::model::load_models_file(dir / "models.cbm");
      load_ms.push_back(static_cast<double>(now_ns() - start) * 1e-6);
    }
    result.list("bundle_load_ms", load_ms);
    spans.write_csv(options.str("spans"));
  }
  result.print();
  return 0;
}

}  // namespace perfbench
