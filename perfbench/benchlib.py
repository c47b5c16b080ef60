"""Pure helpers of the compstat benchmark: order statistics, the
per-experiment timings of a `compstat run`, and the result line the
benchmark prints last.

Kept free of process and file-system work so the tests in
`perfbench/tests` exercise them directly.
"""

import json
import math
import re

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")

_RUNNING = re.compile(r"^running (\S+) \(")
_WROTE = re.compile(r"^wrote .*[/\\]([^/\\]+)\.json$")


def quantile(samples, q):
    """The q-quantile of `samples`, interpolating linearly between the
    two nearest ranks (the median of [1, 2, 3, 4] is 2.5). Matches
    the harness's Rust `stats::quantile`."""
    if not samples:
        raise ValueError("quantile of no samples")
    xs = sorted(samples)
    pos = min(max(q, 0.0), 1.0) * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(samples):
    return quantile(samples, 0.5)


def experiment_latencies(events):
    """Per-experiment latency (seconds) from `compstat run` progress
    lines: `events` is a list of (time, stderr line). An experiment
    runs from its `running NAME (...)` line to its `wrote .../NAME.json`
    line. Returns {name: seconds} for every experiment that finished."""
    started = {}
    done = {}
    for t, line in events:
        line = line.rstrip("\n")
        m = _RUNNING.match(line)
        if m:
            started[m.group(1)] = t
            continue
        m = _WROTE.match(line)
        if m and m.group(1) in started:
            done[m.group(1)] = t - started[m.group(1)]
    return done


def completion_ms(mtimes_ns, start_ns):
    """When each report of a `compstat run --out` became available: its
    file's mtime minus the process start, in ms, in landing order. Only
    the report files are read, so the figure does not depend on the
    CLI's progress lines."""
    return [(t - start_ns) / 1e6 for t in sorted(mtimes_ns)]


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def result_line(attempted, failed, metrics):
    """The benchmark's last stdout line: exactly `correct`, `attempted`,
    `failed` and `metrics`, as one JSON object."""
    attempted, failed = int(attempted), int(failed)
    doc = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return json.dumps(doc, sort_keys=False, allow_nan=False)


def parse_result_line(line, expected_metrics):
    """Parses and validates a result line against the metric names
    `expected_metrics` ({name: unit}). Raises ValueError on any
    deviation from the output contract."""
    doc = json.loads(line)
    if tuple(doc) != RESULT_KEYS:
        raise ValueError(f"result keys are {tuple(doc)}, want {RESULT_KEYS}")
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            raise ValueError(f"{key} is not a whole number")
    if doc["attempted"] < 1 or not 0 <= doc["failed"] <= doc["attempted"]:
        raise ValueError("attempted/failed out of range")
    got = doc["metrics"]
    if set(got) != set(expected_metrics):
        missing = sorted(set(expected_metrics) - set(got))
        extra = sorted(set(got) - set(expected_metrics))
        raise ValueError(f"metrics differ: missing {missing}, unexpected {extra}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != expected_metrics[name]:
            raise ValueError(f"metric {name} is {m}, want unit {expected_metrics[name]}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} has a non-finite value")
    return doc
