#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload fleet_clean|serve_text|campaign_grid
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced, as a table

Run from the root of a checkout. The script builds perfbench/ (which
builds the repository's library and `canids` CLI from source) into
.bench_build/, generates the workload's inputs from --seed, measures for
--seconds, checks the outputs, and prints one JSON object as the last line
of stdout:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics of the named workload. --trace 1
is the traced run: it runs every workload with span recording and reports
every per-layer metric, each measured on the workload whose layer it
belongs to (see perfbench/METRICS.md). A failed correctness or load-shape
check prints no result and exits 1.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchlib import stats  # noqa: E402

WORKLOADS = ("fleet_clean", "serve_text", "campaign_grid")

# serve_text's schedule, latency limit and load-shape bounds. An untraced
# run offers the fixed rate for `fixed_seconds`, then saturates the daemon
# for --seconds: throughput_per_s is its intake then. A traced run offers
# the fixed rate for --seconds (the latency metrics), then the ladder.
SERVE = {
    "fixed_rate": 700_000,         # frames/s, the latency phase
    "fixed_seconds": 4.0,          # untraced: enough for min_alerts
    # Rates 1.2x apart from 2M to 8.6M frames/s, around the 3-6M the
    # daemon reaches; coarse rates below, so a slower daemon still reports.
    "ladder": [250_000, 500_000, 1_000_000] + [
        int(round(2_000_000 * 1.2 ** k, -3)) for k in range(9)],
    "seconds_rung": 1.5,
    # A ladder rate fails when its alert-latency p99 exceeds a quarter of
    # the 1 s detection window, or when the backlog grows by more than a
    # tenth of the offered rate a second: one host stall must not fail it.
    "limit_us": 250_000,
    "growth_frac": 0.1,
    # A rate whose backlog grew, or a saturation stretch, in which the
    # sender waited on the daemon for less than this share of the time was
    # the generator's limit, not the daemon's.
    "min_blocked_frac": 0.1,
    "min_windows": 20,             # 100 ms saturation windows
    "alert_share": (0.35, 0.65),   # alerting windows / windows
    "min_alerts": 1000,            # at the fixed rate
    "max_lag_p99_us": 2_000,       # generator lateness at the fixed rate
}
# Seconds a traced run spends on workloads other than the named one.
TRACE_SIDE_SECONDS = 3.0
SUBPROCESS_TIMEOUT = 150


class CheckFailed(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build perfbench in .bench_build/perfbench."""
    out = root / ".bench_build" / "perfbench"
    jobs = str(os.cpu_count() or 1)
    if not (out / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", "perfbench", "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"], cwd=root, check=True,
                       stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs], cwd=root,
                   check=True, stdout=sys.stderr)
    return out / "perfbench", out / "canids" / "canids"


def call(exe, *args):
    """Run one perfbench subcommand and return its JSON line (or None). The
    subcommand runs in its own process group, so that on a timeout the
    daemon it may have started is killed with it."""
    proc = subprocess.Popen([str(exe), *map(str, args)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if err:
        log(err.rstrip())
    if proc.returncode == 1:
        raise CheckFailed(f"{args[0]}: check failed")
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def median(values):
    return statistics.median(values)


def p99(values):
    """p99, which needs ten samples beyond it."""
    reported = stats.tail(values, 0.99)
    if reported is None or reported[0] != 0.99:
        raise CheckFailed(f"only {len(values)} samples: p99 not reportable")
    return reported[1]


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- fleet_clean --------------------------------------------------------------

def fleet(exe, work, seed, seconds, trace):
    call(exe, "gen", "--workload", "fleet_clean", "--seed", seed, "--dir", work)
    ref = call(exe, "fleet-ref", "--dir", work)
    spans = work / "spans.csv"
    run = call(exe, "fleet-run", "--dir", work, "--seconds", seconds,
               "--trace", trace, "--spans", spans)
    if not trace:
        return run["attempted"], run["failed"], {
            "setup_s": metric(median(run["setup_s"]), "s"),
            "throughput_per_s": metric(median(run["frames_per_s"]), "1/s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }, []
    frames_per_s = median(run["frames_per_s"])
    layers = {
        "trace.binary_fill_ns_per_frame": metric(run["fill_ns_per_frame"], "ns"),
        "engine.core_ns_per_frame": metric(median(run["core_ns_per_frame"]), "ns"),
        "engine.self_ns_per_frame": metric(run["self_ns_per_frame"], "ns"),
        "engine.busy_frac": metric(median(run["busy_frac"]), "frac"),
        "engine.drain_tail_ms": metric(median(run["drain_tail_ms"]), "ms"),
        "engine.scaling_vs_seq": metric(frames_per_s / ref["pipeline_seq_fps"], "ratio"),
        "ids.pipeline_seq_fps": metric(ref["pipeline_seq_fps"], "1/s"),
        "analysis.on_frames_ns_per_frame": metric(run["on_frames_ns_per_frame"], "ns"),
        "model.bundle_load_ms": metric(median(run["bundle_load_ms"]), "ms"),
        "tracing.overhead_frac": metric(
            median(run["traced_pass_ms"]) / median(run["pass_ms"]) - 1, "frac"),
    }
    return run["attempted"], run["failed"], layers, [spans]


# -- serve_text ---------------------------------------------------------------

def serve(exe, canids, work, seed, seconds, trace):
    call(exe, "gen", "--workload", "serve_text", "--seed", seed, "--dir", work)
    spans = work / "spans.csv"
    ladder = SERVE["ladder"] if trace else []
    run = call(exe, "serve-run", "--dir", work, "--canids", canids,
               "--fixed-rate", SERVE["fixed_rate"],
               "--seconds-fixed", seconds if trace else SERVE["fixed_seconds"],
               "--ladder", ",".join(str(r) for r in ladder),
               "--seconds-rung", SERVE["seconds_rung"],
               "--seconds-saturate", 0 if trace else seconds,
               "--trace", trace, "--spans", spans)
    phases = []
    for p in range(run["phases"]):
        prefix = f"phase{p}."
        phase = {k[len(prefix):]: v for k, v in run.items()
                 if k.startswith(prefix)}
        # A missing alert arrives as null: infinitely late.
        phase["latency_us"] = [math.inf if v is None else v
                               for v in phase["latency_us"]]
        phases.append(phase)
    fixed = next(p for p in phases if p["name"] == "fixed")

    # Load shape: the run is invalid (not slow) when it misses these.
    share = run["alerts_expected"] / run["windows"]
    lo, hi = SERVE["alert_share"]
    if not lo <= share <= hi:
        raise CheckFailed(f"serve_text: alerting-window share {share:.3f} "
                          f"outside [{lo}, {hi}]")
    if len(fixed["latency_us"]) < SERVE["min_alerts"]:
        raise CheckFailed(f"serve_text: {len(fixed['latency_us'])} alerts at "
                          f"the fixed rate, need {SERVE['min_alerts']}")
    if stats.beyond(fixed["lag_count"], 0.99) < stats.MIN_BEYOND:
        raise CheckFailed(f"serve_text: {fixed['lag_count']} sends: lag p99 "
                          "not reportable")
    lag_p99 = fixed["lag_p99_us"]
    if lag_p99 > SERVE["max_lag_p99_us"]:
        raise CheckFailed(f"serve_text: generator lag p99 {lag_p99:.0f} us "
                          f"at the fixed rate exceeds {SERVE['max_lag_p99_us']}")

    if not trace:
        windows = run["saturated_fps"]
        blocked = run["saturation_blocked_frac"]
        log(f"serve_text: saturated intake median {median(windows):.0f} "
            f"over {len(windows)} windows, min {min(windows, default=0):.0f} "
            f"max {max(windows, default=0):.0f}, sender blocked {blocked:.2f}")
        if len(windows) < SERVE["min_windows"]:
            raise CheckFailed(f"serve_text: {len(windows)} saturation windows, "
                              f"need {SERVE['min_windows']}")
        if blocked < SERVE["min_blocked_frac"]:
            raise CheckFailed(f"serve_text: the sender waited on the daemon "
                              f"{blocked:.2f} of the saturation stretch: the "
                              "generator, not the daemon, set the intake")
        return run["attempted"], run["failed"], {
            "setup_s": metric(median(run["setup_s"]), "s"),
            "throughput_per_s": metric(median(windows), "1/s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }, []

    rungs = [p for p in phases if p["name"] == "rung"]
    for rung in rungs:
        log(f"serve_text: rate {rung['rate']:9.0f} achieved "
            f"{rung['achieved_fps']:9.0f} growth "
            f"{stats.growth_rate(rung['backlog_t'], rung['backlog']):9.0f}/s "
            f"blocked {rung['blocked_frac']:.2f} "
            f"alerts {len(rung['latency_us'])}")
    best, failing = stats.sustainable(
        rungs, SERVE["limit_us"], SERVE["growth_frac"], SERVE["min_blocked_frac"])
    if best is None:
        raise CheckFailed("serve_text: no ladder rate sustained")
    if failing is None:
        log("serve_text: no ladder rate failed: serve.sustainable_fps is only "
            "a lower bound")
    # At the first rate the daemon could not sustain (the top one if none
    # failed).
    beyond = failing or rungs[-1]
    layers = {
        "trace.candump_parse_ns_per_frame": metric(run["candump_parse_ns_per_frame"], "ns"),
        "engine.queue_depth_p99": metric(p99(run["queue_depth"]), "frames"),
        "serve.line_frame_ns_per_frame": metric(run["line_frame_ns_per_frame"], "ns"),
        "serve.alert_encode_us": metric(run["alert_encode_us"], "us"),
        "serve.generator_lag_p99_us": metric(lag_p99, "us"),
        "serve.alert_latency_p50_us": metric(
            stats.percentile(fixed["latency_us"], 0.5), "us"),
        "serve.alert_latency_p99_us": metric(p99(fixed["latency_us"]), "us"),
        "serve.subscriber_dropped": metric(run["subscriber_dropped"], "count"),
        "serve.bytes_per_frame": metric(run["bytes_per_frame"], "bytes"),
        "serve.backlog_growth_frames_per_s": metric(
            stats.growth_rate(beyond["backlog_t"], beyond["backlog"]), "1/s"),
        "serve.sustainable_fps": metric(best["achieved_fps"], "1/s"),
    }
    return run["attempted"], run["failed"], layers, [spans]


# -- campaign_grid ------------------------------------------------------------

def campaign(exe, work, seed, seconds, trace):
    spans = work / "spans.csv"
    run = call(exe, "campaign-run", "--seed", seed, "--seconds", seconds,
               "--trace", trace, "--spans", spans)
    if not trace:
        return run["attempted"], run["failed"], {
            "setup_s": metric(median(run["setup_s"]), "s"),
            "throughput_per_s": metric(median(run["trials_per_s"]), "1/s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }, []
    layers = {
        "ids.infer_ms_per_alert": metric(run["infer_ms_per_alert"], "ms"),
        "ids.pairs_ns_per_frame": metric(run["pairs_ns_per_frame"], "ns"),
        "analysis.bit_entropy.ns_per_frame": metric(run["bit-entropy_ns_per_frame"], "ns"),
        "analysis.symbol_entropy.ns_per_frame": metric(run["symbol-entropy_ns_per_frame"], "ns"),
        "analysis.interval.ns_per_frame": metric(run["interval_ns_per_frame"], "ns"),
        "analysis.ensemble.ns_per_frame": metric(run["ensemble_ns_per_frame"], "ns"),
        "can.sim_us_per_frame": metric(run["sim_us_per_frame"], "us"),
        "can.serialize_us_per_frame": metric(run["serialize_us_per_frame"], "us"),
        "can.arbitrate_us_per_frame": metric(run["arbitrate_us_per_frame"], "us"),
        "campaign.trial_ms_p50": metric(median(run["trial_ms"]), "ms"),
        "campaign.trial_ms_max": metric(max(run["trial_ms"]), "ms"),
        "campaign.sim_share": metric(run["sim_share"], "frac"),
        "campaign.worker_busy_frac": metric(run["worker_busy_frac"], "frac"),
        "campaign.report_ms": metric(run["report_ms"], "ms"),
        "model.train_s": metric(median(run["setup_s"]), "s"),
    }
    return run["attempted"], run["failed"], layers, [spans]


# -- entry point --------------------------------------------------------------

def read_spans(paths):
    """All spans of a traced run as id -> (parent, start, end); ids are
    made unique across files."""
    spans = {}
    for index, path in enumerate(paths):
        with open(path) as f:
            next(f)
            for line in f:
                span_id, parent, _, start, end, _ = line.rstrip("\n").split(",")
                key = (index, int(span_id))
                spans[key] = ((index, int(parent)) if parent != "0" else 0,
                              int(start), int(end))
    return spans


def run_workload(exe, canids, workload, seed, seconds, trace):
    work = scratch() / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload == "fleet_clean":
        return fleet(exe, work, seed, seconds, trace)
    if workload == "serve_text":
        return serve(exe, canids, work, seed, seconds, trace)
    return campaign(exe, work, seed, seconds, trace)


def scratch():
    """This process's working directory for inputs and spans, relative to
    the checkout root (the current directory) so that unix socket paths in
    it stay short."""
    return Path(".bench_build", "work", str(os.getpid()))


def measure(exe, canids, workload, seed, seconds, trace):
    """(attempted, failed, metrics) of one untraced or traced run."""
    if not trace:
        attempted, failed, e2e, _ = run_workload(
            exe, canids, workload, seed, seconds, 0)
        return attempted, failed, e2e
    attempted = failed = 0
    layers = {}
    span_files = []
    for name in WORKLOADS:
        side = seconds if name == workload else min(seconds, TRACE_SIDE_SECONDS)
        a, f, found, files = run_workload(exe, canids, name, seed, side, 1)
        attempted += a
        failed += f
        layers.update(found)
        span_files += files
    layers["tracing.unattributed_frac"] = metric(
        stats.unattributed_fraction(read_spans(span_files)), "frac")
    return attempted, failed, layers


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        log("run from the root of a canids checkout (CMakeLists.txt and src/ "
            "are missing here)")
        return 2
    try:
        exe, canids = build(root)
        if args.workload == "all":
            return table(exe, canids, args)
        attempted, failed, metrics = measure(
            exe, canids, args.workload, args.seed, args.seconds,
            args.trace)
    except CheckFailed as e:
        log(f"CHECK FAILED: {e}")
        return 1
    except (subprocess.SubprocessError, RuntimeError, OSError, KeyError,
            ValueError) as e:
        log(f"error: {e}")
        return 2
    finally:
        shutil.rmtree(scratch(), ignore_errors=True)
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            log(f"error: {name} is not finite")
            return 1
    declared = root / "BENCHMARK.json"
    if declared.is_file():
        spec = json.loads(declared.read_text())
        want = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if set(metrics) != want:
            log(f"error: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ want)}")
            return 2
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# throughput_per_s under the name each workload's users know it by.
NAMES = {
    "fleet_clean": {"throughput_per_s": "frames_per_s"},
    "serve_text": {"throughput_per_s": "saturated_fps"},
    "campaign_grid": {"throughput_per_s": "trials_per_s"},
}


def table(exe, canids, args):
    """Every workload, untraced; one line per metric. Exits non-zero when
    any workload's checks fail."""
    results = {}
    for workload in WORKLOADS:
        attempted, failed, metrics = measure(
            exe, canids, workload, args.seed, args.seconds, 0)
        for name, m in metrics.items():
            shown = NAMES[workload].get(name, name)
            print(f"{workload:14s} {shown:24s} {m['value']:16.6g} {m['unit']}")
        print(f"{workload:14s} {'failed_frac':24s} {failed / attempted:16.6g} frac")
        results[workload] = {"attempted": attempted, "failed": failed,
                             "metrics": metrics}
    print(json.dumps({"correct": True, "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
