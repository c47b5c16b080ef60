#!/usr/bin/env python3
"""The compstat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a compstat checkout. Builds `compstat` and the
benchmark harness in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), runs one workload, checks every output against a
reference, and prints as its last stdout line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. The line before it is
a `perfbench/v1` detail document: machine fingerprint, sample counts
and failure notes. Everything else goes to stderr.

Workloads (see BENCHMARK.json for why each was chosen):

  registry-cold  `compstat run --all --scale default --no-cache`
  registry-warm  the same with the oracle cache filled during set-up
  serve-mixed    a `compstat serve` child under a seeded mix of
                 call_columns and forward_batch frames: a closed loop,
                 then an open loop at a fixed rate

`--trace 0` reports the end-to-end metrics with nothing traced.
`--trace 1` repeats the untraced measurement, then runs the harness's
traced pass over every layer and reports the per-layer metrics plus
the tracing overhead.

`--write-reference` regenerates `perfbench/reference/registry-default.json`
(the report digests every registry run is checked against) from a cold
default-scale run; only needed when report bytes change on purpose.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
import benchlib  # noqa: E402

WORKLOADS = ("registry-cold", "registry-warm", "serve-mixed")
REFERENCE = BENCH_DIR / "reference" / "registry-default.json"
HARNESS_MANIFEST = BENCH_DIR / "harness" / "Cargo.toml"

# serve-mixed shape per measured second: the closed loop sends
# CLOSED_PER_S * seconds frames on nproc connections; the open loop
# sends OPEN_PER_S * seconds frames (at least OPEN_MIN, so p95 has ten
# samples beyond it) at OPEN_RATE per second, evenly spaced. On a 2-core
# machine at the benchmark's first commit the closed loop managed 45-80
# requests per second depending on load from other tenants; 20 per
# second keeps the open loop near a third of that, where queueing does
# not amplify the machine's own noise into p95.
CLOSED_PER_S = 25
OPEN_PER_S = 10
OPEN_MIN = 200
OPEN_RATE = 20.0
# The small serve probe the registry workloads' traced runs use for the
# serve-layer rows.
PROBE_CLOSED, PROBE_OPEN, PROBE_RATE = 8, 30, 15.0
# registry-cold is cheap to set up, so it sets up this many times and
# reports the median; the other workloads' set-up is one cache fill or
# one reference computation, too long to repeat within a run.
COLD_SETUP_REPS = 3


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def checked(cmd, **kw):
    """Runs `cmd` to completion, its stdout to our stderr; raises on a
    non-zero exit."""
    kw.setdefault("stdout", sys.stderr)
    r = subprocess.run(cmd, **kw)
    if r.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {r.returncode}")
    return r


def capture(cmd, **kw):
    """Runs `cmd`, returns the JSON document on its last stdout line."""
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, **kw)
    if r.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd[:2]))} exited {r.returncode}")
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{' '.join(map(str, cmd[:2]))} printed nothing")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------
# Checkout, build, fingerprint
# ---------------------------------------------------------------------


def check_checkout(root):
    needed = ["Cargo.toml", "Cargo.lock", "crates/cli/Cargo.toml", "goldens/quick/index.json"]
    missing = [p for p in needed if not (root / p).is_file()]
    if missing or not HARNESS_MANIFEST.is_file():
        raise BenchError(
            f"{root} is not a compstat checkout (missing {', '.join(missing) or HARNESS_MANIFEST})"
        )


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    log(f"building release binaries into {target_dir}")
    checked(["cargo", "build", "--release", "--offline", "-q", "-p", "compstat-cli"], cwd=root, env=env)
    checked(
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(HARNESS_MANIFEST)],
        cwd=root,
        env=env,
    )
    cli = target_dir / "release" / "compstat"
    harness = target_dir / "release" / "perfbench-harness"
    for b in (cli, harness):
        if not b.is_file():
            raise BenchError(f"build produced no {b}")
    return cli, harness


def source_digest(root):
    """SHA-256 over the product's sources and manifests, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for base in ("crates", "src"):
        for p in sorted((root / base).rglob("*")):
            if p.is_file() and p.suffix in (".rs", ".toml") and "target" not in p.parts:
                files.append(p)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


def fingerprint(root, threads, scale):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def out(cmd):
        try:
            r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            return r.stdout.strip() if r.returncode == 0 else None
        except OSError:
            return None

    return {
        "nproc": nproc(),
        "cpu": cpu,
        "rustc": out(["rustc", "--version"]),
        "git_rev": out(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(root),
        "scale": scale,
        "threads": threads,
    }


# ---------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------


class Ops:
    """Operations attempted and failed, with the first few notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(note)

    def add(self, attempted, failed, notes=()):
        self.attempted += int(attempted)
        self.failed += int(failed)
        self.notes.extend(list(notes)[: max(0, 10 - len(self.notes))])


def run_cli(cli, args, cache_dir):
    """Runs `compstat ARGS` with its oracle cache in `cache_dir`,
    timestamping each stderr line as it arrives. Returns (exit code,
    wall seconds, peak RSS MiB, [(t, line)], start as wall-clock ns)."""
    env = dict(os.environ, COMPSTAT_CACHE_DIR=str(cache_dir))
    env.pop("COMPSTAT_CACHE", None)
    start_ns = time.time_ns()
    start = time.perf_counter()
    p = subprocess.Popen(
        [str(cli), *args], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, env=env
    )
    events = []
    for line in p.stderr:
        events.append((time.perf_counter(), line))
    p.stderr.close()
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, usage.ru_maxrss / 1024.0, events, start_ns


def sha256_file(path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def check_reports(out_dir, reference, ops, label):
    for name, digest in reference["reports"].items():
        ops.record(sha256_file(out_dir / f"{name}.json") == digest, f"{label}: {name}.json differs from the reference")
    ops.record(sha256_file(out_dir / "index.json") == reference["index"], f"{label}: index.json differs")


def cli_overhead_ms(wall, events):
    """The CLI's own time: wall time minus the time between each
    entry's `running` and `wrote` progress lines."""
    return (wall - sum(benchlib.experiment_latencies(events).values())) * 1e3


def completion_ms(out_dir, start_ns):
    mtimes = [p.stat().st_mtime_ns for p in out_dir.glob("*.json") if p.name != "index.json"]
    return benchlib.completion_ms(mtimes, start_ns)


def goldens_check(root, cli, tmp, threads, ops):
    """A cold quick-scale `run --all` must diff Clean against
    goldens/quick. Returns the run's CLI overhead in ms."""
    out = tmp / "quick"
    shutil.rmtree(out, ignore_errors=True)
    rc, wall, _, events, _ = run_cli(
        cli, ["run", "--all", "--scale", "quick", "--no-cache", "--threads", str(threads), "--out", str(out)], tmp / "quick-cache"
    )
    diff = subprocess.run([str(cli), "diff", str(root / "goldens" / "quick"), str(out)], stdout=subprocess.DEVNULL, stderr=sys.stderr)
    ops.record(rc == 0 and diff.returncode == 0, f"quick run exited {rc}; diff against goldens/quick exited {diff.returncode}")
    return cli_overhead_ms(wall, events)


def dir_bytes(path, suffix):
    if not path.is_dir():
        return 0
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file() and p.name.endswith(suffix))


class Server:
    """A `compstat serve` child on a free port."""

    def __init__(self, cli, workers, cache_dir):
        env = dict(os.environ, COMPSTAT_CACHE_DIR=str(cache_dir))
        env.pop("COMPSTAT_CACHE", None)
        self.proc = subprocess.Popen(
            [str(cli), "serve", "--workers", str(workers)],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("listening on "):
            self.stop()
            raise BenchError(f"compstat serve did not start: {line!r}")
        self.addr = line.split()[-1]
        self.rss_mb = None

    def stats(self):
        host, port = self.addr.rsplit(":", 1)
        frame = '{"schema":"compstat-serve/v1","id":"perfbench-stats","verb":"stats"}\n'
        with socket.create_connection((host, int(port)), timeout=30) as s:
            s.sendall(frame.encode())
            reply = s.makefile().readline()
        return json.loads(reply)

    def stop(self):
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGTERM)
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss / 1024.0
        if self.proc.stdout:
            self.proc.stdout.close()


# ---------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------


def serve_phase(cli, harness, tmp, seed, closed, open_, rate, threads, ops, name):
    """Frames + references, a fresh server, the two load phases and the
    server's counters. Returns (setup seconds, load doc, stats, rss)."""
    t0 = time.perf_counter()
    frames_dir = tmp / f"{name}-frames"
    summary = capture(
        [str(harness), "frames", "--seed", str(seed), "--closed", str(closed), "--open", str(open_),
         "--threads", str(threads), "--out", str(frames_dir)]
    )
    ops.record(summary["distinct_ok"] == summary["distinct"], f"{name}: a reference reply is not ok")
    # The server's cache directory is left for the server to create.
    server = Server(cli, threads, tmp / f"{name}-cache")
    setup = time.perf_counter() - t0
    try:
        load_file = tmp / f"{name}-load.json"
        doc = capture(
            [str(harness), "load", "--addr", server.addr, "--frames", str(frames_dir), "--seed", str(seed),
             "--conns", str(threads), "--rate", str(rate), "--out", str(load_file)]
        )
        stats = server.stats()
    finally:
        server.stop()
    ops.add(
        doc["closed"]["attempted"] + doc["open"]["attempted"],
        doc["closed"]["failed"] + doc["open"]["failed"],
        [f"{name}: {f}" for f in doc["failures"]],
    )
    doc["file"] = str(load_file)
    doc["frames_dir"] = str(frames_dir)
    doc["cache_dir"] = str(tmp / f"{name}-cache")
    return setup, doc, stats, server.rss_mb


def registry_setup(root, cli, tmp, threads, warm, ops):
    """One set-up: the goldens check and, for registry-warm, a
    cache-filling default-scale run into an empty cache. Returns its
    seconds and the goldens run's CLI overhead."""
    cache_dir = tmp / "cache"
    t0 = time.perf_counter()
    shutil.rmtree(cache_dir, ignore_errors=True)
    overhead = goldens_check(root, cli, tmp, threads, ops)
    if warm:
        fill = tmp / "fill"
        rc = run_cli(cli, ["run", "--all", "--scale", "default", "--threads", str(threads), "--out", str(fill)], cache_dir)[0]
        ops.record(rc == 0, f"cache-filling run exited {rc}")
    seconds = time.perf_counter() - t0
    if warm:
        check_reports(fill, json.loads(REFERENCE.read_text()), ops, "cache-filling run")
    return seconds, overhead


def registry_workload(cli, tmp, seconds, threads, warm, setups, ops, detail):
    reference = json.loads(REFERENCE.read_text())
    cache_dir = tmp / "cache"
    walls, rss, completions = [], [], []
    args = ["run", "--all", "--scale", "default", "--threads", str(threads)]
    if not warm:
        args.append("--no-cache")
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        out = tmp / f"out-{k}"
        rc, wall, peak, _, start_ns = run_cli(cli, [*args, "--out", str(out)], cache_dir)
        ops.record(rc == 0, f"run {k} exited {rc}")
        check_reports(out, reference, ops, f"run {k}")
        walls.append(wall)
        rss.append(peak)
        completions.extend(completion_ms(out, start_ns))
        shutil.rmtree(out, ignore_errors=True)
        k += 1

    detail["samples"] = {"runs": len(walls), "report_completions": len(completions), "setups": len(setups)}
    detail["walls_s"] = walls
    return {
        "setup_s": benchlib.metric(benchlib.median(setups), "s"),
        "wall_s": benchlib.metric(benchlib.median(walls), "s"),
        "peak_rss_mb": benchlib.metric(max(rss), "MiB"),
        "rps": benchlib.metric(len(reference["reports"]) * len(walls) / sum(walls), "1/s"),
        "p50_ms": benchlib.metric(benchlib.quantile(completions, 0.5), "ms"),
        "p95_ms": benchlib.metric(benchlib.quantile(completions, 0.95), "ms"),
    }


def serve_workload(root, cli, harness, tmp, seed, seconds, threads, ops, detail):
    t0 = time.perf_counter()
    overhead = goldens_check(root, cli, tmp, threads, ops)
    pre = time.perf_counter() - t0
    closed = CLOSED_PER_S * seconds
    open_ = max(OPEN_MIN, OPEN_PER_S * seconds)
    setup, doc, stats, rss = serve_phase(cli, harness, tmp, seed, closed, open_, OPEN_RATE, threads, ops, "serve")
    ops.record(stats.get("ok") is True, "stats verb failed")
    detail["samples"] = {
        "closed_requests": doc["closed"]["attempted"],
        "open_requests": doc["open"]["attempted"],
        "open_latency_samples": doc["open"]["samples"],
        "beyond_p95": doc["open"]["beyond_p95"],
    }
    detail["open_rate_per_s"] = OPEN_RATE
    detail["server_stats"] = stats
    e2e = {
        "setup_s": benchlib.metric(pre + setup, "s"),
        "wall_s": benchlib.metric(doc["wall_s"], "s"),
        "peak_rss_mb": benchlib.metric(rss, "MiB"),
        "rps": benchlib.metric(doc["closed"]["rps"], "1/s"),
        "p50_ms": benchlib.metric(doc["open"]["p50_ms"], "ms"),
        "p95_ms": benchlib.metric(doc["open"]["p95_ms"], "ms"),
    }
    return e2e, {"load": doc, "stats": stats, "cli_overhead_ms": overhead}


# ---------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------


def serve_rows(stats, load):
    return {
        "serve.busy_rejections": benchlib.metric(stats["busy_rejections"], "count"),
        "serve.errors": benchlib.metric(stats["errors"], "count"),
        "serve.gen_late_ms": benchlib.metric(load["open"]["late_p95_ms"], "ms"),
    }


def cache_counts(stats):
    c = stats["cache"]
    lookups = c["hits"] + c["misses"]
    return {
        "core.cache.hits": benchlib.metric(c["hits"], "count"),
        "core.cache.misses": benchlib.metric(c["misses"], "count"),
        "core.cache.writes": benchlib.metric(c["writes"], "count"),
        "core.cache.errors": benchlib.metric(c["errors"], "count"),
        "core.cache.hit_ratio": benchlib.metric(c["hits"] / lookups if lookups else 0.0, "ratio"),
    }


def trace(root, cli, harness, tmp, workload, seed, threads, ctx, ops, detail):
    scratch = tmp / "trace"
    scratch.mkdir(parents=True, exist_ok=True)
    spans_file = tmp.parent / f"spans-{workload}.json"
    cmd = [str(harness), "trace", "--seed", str(seed), "--threads", str(threads),
           "--scratch", str(scratch), "--spans", str(spans_file)]
    if workload == "serve-mixed":
        load = ctx["load"]
        cmd += ["--shapes", "serve", "--frames", load["frames_dir"], "--load", load["file"],
                "--registry-scale", "quick", "--registry-cache", "off", "--reference", str(root / "goldens" / "quick")]
        cache_dir, stats = Path(load["cache_dir"]), ctx["stats"]
    else:
        # The serve rows of a registry workload come from a small probe
        # of the same serve phase.
        _, load, stats, _ = serve_phase(cli, harness, tmp, seed, PROBE_CLOSED, PROBE_OPEN, PROBE_RATE, threads, ops, "probe")
        cmd += ["--shapes", "registry", "--frames", load["frames_dir"], "--load", load["file"],
                "--registry-scale", "default", "--registry-cache", "on" if workload == "registry-warm" else "off",
                "--reference", str(REFERENCE)]
        cache_dir = ctx["cache_dir"]
    env = dict(os.environ, COMPSTAT_CACHE_DIR=str(cache_dir))
    env.pop("COMPSTAT_CACHE", None)
    doc = capture(cmd, env=env)
    ops.add(doc["attempted"], doc["failed"], [f"traced run: {f}" for f in doc["failures"]])
    rows = dict(doc["metrics"])
    rows.update(serve_rows(stats, load))
    rows["core.cache.bytes"] = benchlib.metric(dir_bytes(cache_dir, ".bfc"), "B")
    if workload == "serve-mixed":
        # The live server's counters, so the concurrent workers' cache
        # write collisions show in core.cache.errors.
        rows.update(cache_counts(stats))
        overhead = doc["replay_traced_s"] - doc["replay_untraced_s"]
    else:
        overhead = doc["registry_traced_s"] - doc["registry_untraced_s"]
    rows["cli.overhead_ms"] = benchlib.metric(ctx["cli_overhead_ms"], "ms")
    rows["trace.overhead_s"] = benchlib.metric(overhead, "s")
    detail["spans"] = {"count": doc["spans"], "file": str(spans_file)}
    return rows


# ---------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------


def declared_metrics(root, trace_on):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace_on else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def write_reference(root, cli, tmp, threads):
    out = tmp / "reference"
    rc, wall = run_cli(cli, ["run", "--all", "--scale", "default", "--no-cache", "--threads", str(threads), "--out", str(out)], tmp / "ref-cache")[:2]
    if rc != 0:
        raise BenchError(f"reference run exited {rc}")
    reports = {p.stem: sha256_file(p) for p in sorted(out.glob("*.json")) if p.name != "index.json"}
    doc = {"scale": "default", "reports": reports, "index": sha256_file(out / "index.json")}
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(doc, indent=2) + "\n")
    log(f"wrote {REFERENCE} ({len(reports)} reports, cold run {wall:.1f} s)")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_reference and args.workload is None:
        ap.error("--workload is required")

    root = Path.cwd()
    check_checkout(root)
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    cli, harness = build(root, target_dir)
    threads = nproc()
    tmp = target_dir / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        if args.write_reference:
            write_reference(root, cli, tmp, threads)
            return 0
        expected = declared_metrics(root, args.trace == 1)
        ops = Ops()
        detail = {
            "schema": "perfbench/v1",
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": fingerprint(root, threads, "default"),
        }
        if args.workload == "serve-mixed":
            e2e, ctx = serve_workload(root, cli, harness, tmp, args.seed, args.seconds, threads, ops, detail)
        else:
            # A traced run needs the workload's state, not its
            # end-to-end figures, so it sets up once and skips the
            # untraced measurement.
            warm = args.workload == "registry-warm"
            reps = 1 if warm or args.trace else COLD_SETUP_REPS
            setups, overheads = zip(*(registry_setup(root, cli, tmp, threads, warm, ops) for _ in range(reps)))
            ctx = {"cache_dir": tmp / "cache", "cli_overhead_ms": benchlib.median(overheads)}
            if not args.trace:
                e2e = registry_workload(cli, tmp, args.seconds, threads, warm, setups, ops, detail)
        if args.trace:
            metrics = trace(root, cli, harness, tmp, args.workload, args.seed, threads, ctx, ops, detail)
        else:
            metrics = e2e
            metrics["ok_frac"] = benchlib.metric((ops.attempted - ops.failed) / max(ops.attempted, 1), "ratio")
        detail["attempted"], detail["failed"], detail["failures"] = ops.attempted, ops.failed, ops.notes
        line = benchlib.result_line(ops.attempted, ops.failed, metrics)
        benchlib.parse_result_line(line, expected)
        print(json.dumps({"perfbench": detail}))
        print(line, flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"error: {e}")
        sys.exit(2)
