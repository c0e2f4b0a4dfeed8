#!/usr/bin/env python3
"""The simulator benchmark: one workload, one run.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It builds the `perfbench` worker binary
from source (into $CARGO_TARGET_DIR, default `.bench_build`), then starts
one worker process per measured run so that every run has its own peak
RSS: a fixed number per workload, fewer once `--seconds` is used up. Each
run's simulation digest is checked: runs must agree with each other, with
a cross-path reference run, and on the default seed with the committed
reference. With `--trace 1` it instead runs the workload once untraced and
once traced, and reports the per-layer metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A report with the host stamp and every sample is written under
`.bench_out/`.
"""

import argparse
import ctypes
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room for start-up and the report.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 850.0

WORKLOADS = {
    # name: (default seed, set-up repeats per worker run, has a cross-path
    # check run, worker runs wanted). `setup_s` is the median of the
    # set-ups of all worker runs, so the heavy set-ups run once per worker
    # and the time goes to more measured runs instead. Three runs let the
    # median drop one run that a burst of host load slowed down; two-shard
    # runs meet such bursts most often and get a fourth; a wire run is long
    # and steady enough alone.
    "sockshop_sora": (42, 5, True, 3),
    "scale_1m": (1_000_000, 1, False, 3),
    "par_scale_2shard": (0x5048, 1, True, 4),
    "wire_session_net": (77, 3, True, 1),
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "allocs_per_request": "count",
    "alloc_bytes_per_request": "bytes",
    "step_rtt_p50_ms": "ms",
    "step_rtt_p95_ms": "ms",
}

# Units of the per-layer metrics; the traced worker reports all but the
# last four, which come from the untraced worker run of a traced run.
PER_LAYER = {
    "microsim.busy_s": "s",
    "microsim.events_per_busy_s": "1/s",
    "microsim.events": "count",
    "microsim.spans_per_request": "count",
    "microsim.allocs_per_request": "count",
    "microsim.inject_s": "s",
    "microsim.allocs": "count",
    "workload.next_action_s": "s",
    "workload.actions": "count",
    "workload.allocs": "count",
    "telemetry.trace_keep_ratio": "ratio",
    "telemetry.observe_s": "s",
    "telemetry.window_traces": "count",
    "telemetry.observe_allocs": "count",
    "core.control_s": "s",
    "core.control_allocs": "count",
    "core.actuations": "count",
    "core.frozen_periods": "count",
    "scg.estimate_s": "s",
    "scg.estimate_allocs": "count",
    "topo.build_s": "s",
    "config.parse_s": "s",
    "config.build_s": "s",
    "shard.critical_path_ratio": "ratio",
    "shard.wall_speedup": "ratio",
    "shard.sys_cpu_s": "s",
    "shard.cpu_per_wall": "ratio",
    "net.messages_per_request": "count",
    "net.lost_total": "count",
    "net.call_retries": "count",
    "server.session_step_s": "s",
    "server.session_step_p50_ms": "ms",
    "server.reply_bytes": "bytes",
    "server.decode_s": "s",
    "server.cache_key_s": "s",
    "server.cache_lookup_s": "s",
    "alloc.total": "count",
    "alloc.unattributed": "count",
    "server.submit_hit_p50_ms": "ms",
    "server.submit_hit_p95_ms": "ms",
    "server.wire_overhead_ms": "ms",
    "trace_overhead": "ratio",
}

# Two runs whose `run_s` differ by more than this factor disagree: one of
# them met a burst of host load, and a third run is made even on a slow host.
DISAGREE = 1.25

# Cache-hit submits after the wire session in the untraced worker run of a
# traced run (`server.submit_hit_*`); measured and traced runs send none.
# Each takes 0.2-0.4 s on a 2-core Xeon VM (decoding the 108 KB result
# frame), so 100 keeps a traced wire run well inside its time limit.
SUBMITS = 100
# In-process workloads serve their result from the cache in fresh `fetch`
# processes. A process's microsecond fetch times land in one of two modes
# (about 3 and 5 us here) that depend on where its memory was placed, so
# the run reports the mean over this many processes rather than one draw.
FETCHES = 9

# Worker processes run without address-space randomisation: with it, the
# same run's timings split into modes up to 1.6x apart (microsecond cache
# fetches) or spread by 20% (whole runs) from one process to the next.
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout():
    """Child-side: turn off address-space randomisation before exec."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | ADDR_NO_RANDOMIZE)
    except (OSError, AttributeError):
        pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_BUDGET_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    binary = target / "release" / "perfbench"
    if proc.returncode != 0 or not binary.is_file():
        log(f"build failed with exit code {proc.returncode}")
        return None
    return binary


class Runner:
    """Starts worker processes, one at a time, within the run's budget."""

    def __init__(self, binary, workload, seed, out):
        self.binary = binary
        self.workload = workload
        self.seed = seed
        self.out = out
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def remaining(self):
        return self.deadline - time.monotonic()

    def child(self, mode, *extra):
        cmd = [str(self.binary), self.workload, "--mode", mode,
               "--seed", str(self.seed), "--out", str(self.out), *extra]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()),
                                  preexec_fn=fixed_layout)
        except subprocess.TimeoutExpired:
            log(f"{mode} run timed out")
            return None
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            log(f"{mode} run failed with exit code {proc.returncode}")
            return None
        try:
            result = json.loads(lines[-1])
        except ValueError:
            log(f"{mode} run printed no result")
            return None
        result["_wall_s"] = time.monotonic() - start
        return result


def add_fetches(runner, r):
    """Times cache-hit fetches of the run's result in fresh processes."""
    fetches = [runner.child("fetch") for _ in range(FETCHES)]
    if any(f is None for f in fetches):
        return None
    for name in ("submit_hit_p50_ms", "submit_hit_p95_ms"):
        r[name] = statistics.mean(f[name] for f in fetches)
    r["submit_samples"] = sum(f["submit_samples"] for f in fetches)
    r["ops"] += sum(f["ops"] for f in fetches)
    r["failed"] += sum(f["failed"] for f in fetches)
    r["_wall_s"] += sum(f["_wall_s"] for f in fetches)
    return r


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def host_stamp():
    def out(cmd):
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return p.stdout.strip() if p.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            return None

    digest = hashlib.sha256()
    for top in ("Cargo.lock", "compat", "crates", "perfbench"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            digest.update(str(p.relative_to(ROOT)).encode())
            digest.update(p.read_bytes())
    return {
        "host_cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "rustc": out(["rustc", "--version"]),
        "git_rev": out(["git", "rev-parse", "HEAD"]) or "none (not a git checkout)",
        "source_sha256": digest.hexdigest(),
    }


def reference(workload):
    refs = json.loads((HERE / "reference.json").read_text())
    return refs[workload]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    default_seed, setups, has_check, want_runs = WORKLOADS[args.workload]
    seed = default_seed if args.seed is None else args.seed
    if seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    if binary is None:
        return 1
    out = ROOT / ".bench_out" / f"{args.workload}-seed{seed}-trace{args.trace}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    runner = Runner(binary, args.workload, seed, out)
    wire = args.workload == "wire_session_net"

    checks = []  # (name, passed)

    def check(name, passed):
        checks.append((name, bool(passed)))
        if not passed:
            log(f"check failed: {name}")

    report = {"workload": args.workload, "seed": seed, "trace": args.trace,
              "host": host_stamp()}

    if args.trace == 0:
        runs = []
        started = time.monotonic()
        while True:
            r = runner.child("measure", "--setups", str(setups), "--submits", "0")
            runs.append(r)
            elapsed = time.monotonic() - started
            n = len(runs)
            if r is None or n >= want_runs or runner.remaining() < 2 * r["_wall_s"] + 10:
                break
            # Two runs at least, so that the median is not one draw. Past
            # that, stop once --seconds is used up, so that a slow host makes
            # fewer runs rather than a longer benchmark run, unless the two
            # runs disagree, which a median of two cannot settle.
            if n >= 2 and elapsed >= args.seconds:
                times = [x["run_s"] for x in runs]
                if n > 2 or max(times) <= DISAGREE * min(times):
                    break
        good = [r for r in runs if r is not None]
        check("every measured run completed", len(good) == len(runs))
        for i, r in enumerate(good):
            check(f"run {i}: no failed operation", r["failed"] == 0)
            if i > 0:
                check(f"run {i}: digest equals run 0", r["digest"] == good[0]["digest"])
        if good and seed == default_seed:
            check("digest equals the committed reference",
                  good[0]["digest"] == reference(args.workload))
        if good and has_check:
            c = runner.child("check")
            check("cross-path run completed", c is not None)
            if c is not None:
                check("cross-path digest equals the measured digest",
                      c["digest"] == good[0]["digest"] and c.get("failed", 0) == 0)
                report["check"] = c
        metrics = {}
        summary = {}
        for name, unit in END_TO_END.items():
            if name == "setup_s":
                values = [float(v) for r in good for v in r["setup_samples"]]
            else:
                values = [float(r[name]) for r in good]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            metrics[name] = {"value": med, "unit": unit}
            summary[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                             "unit": unit}
            log(f"{name:<26} {med:>14.6g} {unit:<6} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        report["runs"] = good
        report["end_to_end"] = summary
        attempted = sum(r["ops"] for r in good) + len(runs) - len(good) + len(checks)
        failed = sum(r["failed"] for r in good) + len(runs) - len(good) \
            + sum(1 for _, ok in checks if not ok)
    else:
        base = runner.child("measure", "--setups", "1",
                            "--submits", str(SUBMITS if wire else 0))
        if base is not None and not wire:
            base = add_fetches(runner, base)
        traced = runner.child("trace", "--setups", "1", "--submits", "0")
        check("untraced run completed", base is not None)
        check("traced run completed", traced is not None)
        metrics = {}
        if base is not None and traced is not None:
            check("no failed operation", base["failed"] == 0 and traced["failed"] == 0)
            check("traced digest equals untraced digest",
                  traced["digest"] == base["digest"])
            if seed == default_seed:
                check("digest equals the committed reference",
                      traced["digest"] == reference(args.workload))
            spans = traced["spans"]
            span_file = Path(spans["file"])
            if not span_file.is_absolute():
                span_file = ROOT / span_file
            check("span file is non-empty",
                  spans["count"] > 0 and span_file.is_file()
                  and span_file.stat().st_size > 0)
            layers = dict(traced["layers"])
            layers["server.submit_hit_p50_ms"] = base["submit_hit_p50_ms"]
            layers["server.submit_hit_p95_ms"] = base["submit_hit_p95_ms"]
            layers["trace_overhead"] = traced["run_s"] / base["run_s"]
            layers["server.wire_overhead_ms"] = (
                base["step_rtt_p50_ms"] - layers["server.session_step_p50_ms"]
                if wire else 0.0)
            for name, unit in PER_LAYER.items():
                metrics[name] = {"value": float(layers[name]), "unit": unit}
                log(f"{name:<28} {layers[name]:>16.6g} {unit}")
            report["untraced"] = base
            report["traced"] = traced
        ops = sum(r["ops"] for r in (base, traced) if r is not None)
        attempted = ops + len(checks)
        failed = sum(r["failed"] for r in (base, traced) if r is not None) \
            + sum(1 for _, ok in checks if not ok)

    correct = bool(checks) and all(ok for _, ok in checks) and failed == 0
    report["checks"] = [{"name": n, "passed": ok} for n, ok in checks]
    report["correct"] = correct
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    log(f"host: {json.dumps(report['host'])}")
    log(f"report: {out / 'report.json'}")
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
