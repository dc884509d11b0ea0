"""Run one batch of one workload in this (fresh) process and print its result.

    python3 perfbench/worker.py --workload words --seed 1
        [--trace SPANS_PATH] [--parity] [--workdir DIR]

The batch is a single caller running the workload's operations one at a
time.  The process is fresh, so braidfact's normal-form cache and
enumerate_braids start cold, as for every command-line user.  The last
line of standard output is one JSON object: the batch wall time, each
operation's latency and verdict, peak resident memory, digests of the
inputs and answers, and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from calibration import SliceTimer, calibration_slice  # noqa: E402
from braidfact._kernel import IMPL_NAME  # noqa: E402
from tracing import Tracer  # noqa: E402

MAX_ERRORS = 5
CALIBRATION_EVERY_S = 0.05


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def run_ops(ops, tracer: Tracer | None = None) -> dict:
    """Run the operations one at a time; an exception fails only its operation.

    An untraced batch is calibrated (see calibration.py): every
    CALIBRATION_EVERY_S a timer signal takes a calibration slice inside
    whatever operation is running, and the slices' time is taken out of
    that operation's latency and out of the batch's wall time.  A traced
    batch takes slices only before and after, so that none shows in its
    spans.
    """
    lat_ms, ok, decided, answers, errors = [], [], [], [], []
    clock = time.perf_counter
    timer = SliceTimer(None if tracer else CALIBRATION_EVERY_S)
    calibration = [calibration_slice()]
    with timer:
        t_first = clock()
        for i, op in enumerate(ops):
            since = len(timer.pauses)
            t0 = clock()
            try:
                ans = tracer.span("bench.op", op) if tracer else op()
            except Exception as e:  # an exception is a failed operation, not a crashed run
                ans = workloads.Answer(None, False, decided=False, error=f"{type(e).__name__}: {e}")
            t1 = clock()
            lat_ms.append((t1 - t0 - timer.paused(t0, t1, since)) * 1000.0)
            ok.append(ans.ok)
            decided.append(ans.decided)
            answers.append(ans.value)
            if not ans.ok and len(errors) < MAX_ERRORS:
                errors.append(f"op {i}: {ans.error}")
        t_last = clock()
    calibration += timer.slices + [calibration_slice()]
    return {
        "wall_s": t_last - t_first - timer.paused(t_first, t_last),
        "calibration_s": calibration,
        "lat_ms": lat_ms,
        "ok": ok,
        "decided": decided,
        "errors": errors,
        "answers_sha": digest(answers),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", metavar="SPANS_PATH", help="trace layers; write spans here")
    ap.add_argument("--parity", action="store_true", help="check every kernel on the words inputs")
    ap.add_argument("--workdir", help="directory for the curves workload's files")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        inputs, ops = workloads.MAKERS[args.workload](args.seed, "full", workdir)
        if args.trace:
            with Tracer() as tracer:
                result = run_ops(ops, tracer)
            result["layers"] = tracer.layer_metrics(result["wall_s"])
            tracer.write_spans(args.trace)
        else:
            result = run_ops(ops)
    result["inputs_sha"] = digest(inputs)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["kernel"] = IMPL_NAME
    if args.parity:
        seconds, bad = workloads.kernel_parity(args.seed, "full")
        result["parity"] = {"kernel_s": seconds, "mismatched_ops": bad}
        for i in bad:
            result["ok"][i] = False
        if bad:
            result["errors"].append(f"kernels disagree on {len(bad)} pairs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
