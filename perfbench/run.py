"""The braidfact benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload words --seed 1 --seconds 25 --trace 0

Run from the root of a braidfact checkout; the package is imported from
``src/`` as it stands, nothing is built or installed.  Workloads: words,
curves, orbits, conjugacy (see perfbench/README.md).

The run is a closed loop with one caller: batches of the workload's
operations run one after another, each in a fresh worker process so that
braidfact's caches start cold, until --seconds have passed (at least two
batches).  Every batch repeats the same seeded inputs and every answer is
checked.

The machine's speed drifts (other tenants share it), so every time in a
batch is scaled to a reference speed by calibration slices taken alongside
it (see calibration.py; the factors are in the JSON line).  With --trace 0
the end-to-end metrics are medians over the batches.  With --trace 1 each
batch runs untraced and then traced, and the per-layer metrics are medians
over the traced batches.

Output: one line per metric, one JSON line describing the run (kernel,
Python, CPU, nproc, operations in the tail, kernel parity), and as the last line
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import calibration_slice, speed_factor
from tracing import LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("words", "curves", "orbits", "conjugacy")
SETUP_SAMPLES = 21
SETUP_SLICES = 10
RUN_LIMIT_S = 170.0
# A curves batch takes about 11 s, so a 25-second run could end after one
# batch when the machine is slow; the median of one batch is no median.
MIN_BATCHES = 2
SETUP_CODE = "import braidfact, braidfact.cli; braidfact.cli.build_parser()"

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("correct_frac", "ratio"),
    ("decided_frac", "ratio"),
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env, deadline) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter until braidfact and its CLI
    are imported and ready, and the calibration slices taken before each
    start.  The first, untimed, start writes the bytecode cache, so every
    timed start reads it."""
    samples, slices = [], []
    for i in range(SETUP_SAMPLES + 1):
        slices += [calibration_slice() for _ in range(SETUP_SLICES)]
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError("cannot import braidfact from src/: " + proc.stderr.strip()[-500:])
        if i:
            samples.append(elapsed)
    return samples, slices


def run_worker(env, deadline, workload, seed, trace_path=None, parity=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(ROOT / ".bench_out")]
    if trace_path:
        cmd += ["--trace", str(trace_path)]
    if parity:
        cmd.append("--parity")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the first batch finished")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} batch did not finish within the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_count(n: int) -> int:
    """How many of n operations op_tail_ms averages: the slowest tenth, and
    at least 10 (all of them when there are fewer)."""
    return min(n, max(10, math.ceil(n / 10)))


def tail_mean(values) -> float:
    """Mean latency of the slowest tail_count(len(values)) operations.

    A single high percentile of a batch with few operations falls between
    two of them; where the latencies come in clusters (the curves flow:
    milliseconds for validate and homs, seconds for a search) it can fall
    in a gap and jump between the clusters from batch to batch.  The mean
    of the slowest tenth moves with all of them.
    """
    xs = sorted(values, reverse=True)[: tail_count(len(values))]
    return sum(xs) / len(xs)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def check_answers(batches) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, decided, errors) over all batches.

    Every batch of a run, traced or not, has the same inputs, so it must
    give the same answers; a batch whose answers differ from the first
    batch's counts all its operations as failed.
    """
    attempted = failed = decided = 0
    errors = []
    first = batches[0]
    for b in batches:
        attempted += len(b["ok"])
        decided += sum(b["decided"])
        if (b["inputs_sha"], b["answers_sha"]) != (first["inputs_sha"], first["answers_sha"]):
            failed += len(b["ok"])
            errors.append("answers differ between batches of the same seed")
        else:
            failed += b["ok"].count(False)
        errors += b["errors"]
    return attempted, failed, decided, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "braidfact" / "__init__.py").is_file():
        print(f"error: no braidfact package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    (ROOT / ".bench_out" / "trace").mkdir(parents=True, exist_ok=True)
    spans = ROOT / ".bench_out" / "trace" / f"{args.workload}-seed{args.seed}.spans.tsv.gz"

    try:
        setup, setup_slices = measure_setup(env, deadline) if args.trace == 0 else ([], [])
        plain, traced = [], []
        start = time.monotonic()
        while True:
            parity = args.workload == "words" and not plain
            plain.append(run_worker(env, deadline, args.workload, args.seed, parity=parity))
            if args.trace:
                traced.append(run_worker(env, deadline, args.workload, args.seed, trace_path=spans))
            per_round = (time.monotonic() - start) / len(plain)
            if len(plain) >= MIN_BATCHES and time.monotonic() - start + per_round > args.seconds:
                break
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    batches = plain + traced
    attempted, failed, decided, errors = check_answers(batches)
    for b in batches:
        b["speed"] = speed_factor(b["calibration_s"])
    n_ops = len(plain[0]["lat_ms"])
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "kernel": plain[0]["kernel"],
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "batch_wall_s": [round(b["wall_s"], 4) for b in plain],
        "speed_factors": [round(b["speed"], 4) for b in plain],
        "traced_wall_s": [round(b["wall_s"], 4) for b in traced],
        "ops_per_batch": n_ops,
        "op_tail_count": tail_count(n_ops),
        "failed_frac": failed / attempted,
        "errors": errors[:10],
    }
    if "parity" in plain[0]:
        meta["kernel_parity"] = plain[0]["parity"]
        if len(plain[0]["parity"]["kernel_s"]) == 1:
            meta["kernel_parity"]["note"] = "only the pure kernel was importable"

    med = statistics.median
    if args.trace == 0:
        scaled_ms = [[x * b["speed"] for x in b["lat_ms"]] for b in plain]
        values = {
            "wall_s": med(b["wall_s"] * b["speed"] for b in plain),
            "op_p50_ms": med(med(lat) for lat in scaled_ms),
            "op_tail_ms": med(tail_mean(lat) for lat in scaled_ms),
            "peak_rss_mb": med(b["peak_rss_mb"] for b in plain),
            "setup_s": med(setup) * speed_factor(setup_slices),
            "correct_frac": 1 - failed / attempted,
            "decided_frac": decided / attempted,
        }
        units = dict(END_TO_END)
    else:
        values = {name: med(b["layers"][name] for b in traced) for name, _ in LAYER_METRICS[:-1]}
        # A traced batch takes no calibration slices during its operations
        # (worker.run_ops), so both are scaled by the untraced batch's factor.
        values["trace_overhead_s"] = med((t["wall_s"] - u["wall_s"]) * u["speed"] for u, t in zip(plain, traced))
        units = dict(LAYER_METRICS)

    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps(meta))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
