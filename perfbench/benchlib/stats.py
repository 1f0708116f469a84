"""The benchmark's arithmetic: percentiles, span self time, backlog growth
and sustainable-rate selection. Pure functions, tested by
perfbench/tests/test_stats.py."""

import math
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(count, q):
    """How many of `count` samples rank after the q-quantile."""
    return count - max(1, math.ceil(q * count))


def tail_quantile(count, cap=0.99):
    """The highest quantile, at most `cap` and on a whole-percent grid, with
    at least MIN_BEYOND samples beyond it; None when no such quantile
    exists."""
    for percent in range(round(cap * 100), 0, -1):
        if beyond(count, percent / 100) >= MIN_BEYOND:
            return percent / 100
    return None


def tail(values, cap=0.99):
    """(quantile, value) for the highest reportable quantile, or None."""
    q = tail_quantile(len(values), cap)
    return None if q is None else (q, percentile(values, q))


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover. Children may nest, overlap each other, or run
    past their parent; only the covered part inside the parent counts.

    `spans` maps id -> (parent_id, start, end); parent 0 means root."""
    children = {}
    for span_id, (parent, start, end) in spans.items():
        if parent in spans:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, (_, start, end) in spans.items():
        clipped = [(max(s, start), min(e, end))
                   for s, e in children.get(span_id, [])
                   if min(e, end) > max(s, start)]
        out[span_id] = (end - start) - union_length(clipped)
    return out


def unattributed_fraction(spans):
    """Share of root-span time that no child span covers."""
    roots = [i for i, (parent, _, _) in spans.items() if parent not in spans]
    total = sum(spans[i][2] - spans[i][1] for i in roots)
    if total <= 0:
        return 0.0
    selfs = self_times(spans)
    return sum(selfs[i] for i in roots) / total


def growth_rate(times, backlog, skip=0.2):
    """Least-squares slope (frames/s) of backlog over time, ignoring the
    first `skip` share of the stretch (the carry-over from the previous
    rate)."""
    if not times:
        return 0.0
    start = times[0] + skip * (times[-1] - times[0])
    points = [(t, b) for t, b in zip(times, backlog) if t >= start]
    if len(points) < 2:
        return 0.0
    mean_t = sum(t for t, _ in points) / len(points)
    mean_b = sum(b for _, b in points) / len(points)
    var = sum((t - mean_t) ** 2 for t, _ in points)
    if var == 0:
        return 0.0
    return sum((t - mean_t) * (b - mean_b) for t, b in points) / var


def rung_passes(rung, limit_us, growth_frac):
    """A ladder rate is sustained when the generator-side backlog does not
    grow by more than `growth_frac` of the offered rate and the alert
    latency tail (missing alerts count as infinitely late) stays under the
    limit. The rate the generator stopped the ladder on, half a second
    behind schedule, failed however short it ran."""
    if rung["stopped"] or backlog_grows(rung, growth_frac):
        return False
    latencies = rung["latency_us"]
    if not latencies:
        return True
    reported = tail(latencies)
    worst = reported[1] if reported else max(latencies)
    return worst <= limit_us


def backlog_grows(rung, growth_frac):
    growth = growth_rate(rung["backlog_t"], rung["backlog"])
    return growth > growth_frac * rung["rate"]


def generator_bound(rung, growth_frac, min_blocked_frac):
    """A rate that fell behind while the sender seldom waited for the
    daemon to take bytes measured the generator, not the daemon."""
    return ((rung["stopped"] or backlog_grows(rung, growth_frac))
            and rung["blocked_frac"] < min_blocked_frac)


def sustainable(rungs, limit_us, growth_frac, min_blocked_frac):
    """(best, failing): failing is the first rung that fails (rungs ascend
    by rate), or None when none does; best is the highest passing rung
    below it, or None when even the lowest fails. Generator-bound rungs are
    neither passes nor failures and are skipped."""
    best = None
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        if generator_bound(rung, growth_frac, min_blocked_frac):
            continue
        if not rung_passes(rung, limit_us, growth_frac):
            return best, rung
        best = rung
    return best, None
