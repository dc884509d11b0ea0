"""Tests of the benchmark itself (not of braidfact).

    python3 -m pytest perfbench/tests -q

Workloads run at their tiny size in process; two tests start run.py.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibration  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name, seed, tmp_path):
    """(inputs digest, batch result) of the workload's tiny batch, in process."""
    inputs, ops = workloads.MAKERS[name](seed, "tiny", str(tmp_path))
    result = worker.run_ops(ops)
    result["inputs_sha"] = worker.digest(inputs)
    return result["inputs_sha"], result


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_tiny_and_every_answer_checks(name, tmp_path):
    _, result = tiny(name, 3, tmp_path)
    assert result["errors"] == []
    assert all(result["ok"]) and len(result["ok"]) >= 6


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs_and_answers(name, tmp_path):
    a_in, a = tiny(name, 5, tmp_path / "a")
    b_in, b = tiny(name, 5, tmp_path / "b")
    assert (a_in, a["answers_sha"]) == (b_in, b["answers_sha"])


@pytest.mark.parametrize("name", ("words", "orbits", "conjugacy"))
def test_other_seed_other_inputs(name, tmp_path):
    assert tiny(name, 5, tmp_path / "a")[0] != tiny(name, 6, tmp_path / "b")[0]


def test_wrong_expected_answer_raises_failed(monkeypatch, tmp_path):
    pairs = workloads.word_pairs(1, 12)
    monkeypatch.setattr(
        workloads, "word_pairs", lambda seed, n: [(d, u, v, not eq) for d, u, v, eq in pairs]
    )
    _, result = tiny("words", 1, tmp_path)
    attempted, failed, _, errors = run.check_answers([result])
    assert failed == attempted == 12 and errors


def test_wrong_expected_order_fails_only_that_operation(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "POSITIVE", (("conic", 2, "1,1", 0, 3),))
    _, result = tiny("curves", 1, tmp_path)
    assert result["ok"].count(False) == 1
    assert "order=2, expected 3" in result["errors"][0]


def test_answers_differing_between_batches_fail_the_batch(tmp_path):
    _, a = tiny("words", 2, tmp_path)
    b = dict(a, answers_sha="different")
    attempted, failed, _, _ = run.check_answers([a, b])
    assert (attempted, failed) == (24, 12)


def test_traced_batch_reports_every_layer_metric(tmp_path):
    from braidfact import braid, cli

    braid._cached_nf.cache_clear()  # start cold, as a worker process does
    inputs, ops = workloads.make_curves(1, "tiny", str(tmp_path))
    with tracing.Tracer() as tracer:
        result = worker.run_ops(ops, tracer)
    layers = tracer.layer_metrics(result["wall_s"])
    assert list(layers) == [name for name, _ in tracing.LAYER_METRICS[:-1]]
    assert layers["cli.calls"] == len(ops)
    assert layers["factorization.search.calls"] == 3
    assert layers["kernel.calls"] > 0 and 0 < layers["braid.nf_cache_hit_ratio"] < 1
    assert all(result["ok"])
    # wrappers are removed on exit
    assert not hasattr(braid.canonical_form, "__wrapped__")
    assert not hasattr(cli.main, "__wrapped__")


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.names, t._name_ids = ["a", "b"], {"a": 0, "b": 1}
    for nid, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (1, 0, 5.0, 6.0)):
        t.name_of.append(nid)
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    assert t.self_times() == {"a": 6.0, "b": 4.0}


def test_tail_mean_averages_the_slowest_tenth_and_at_least_ten():
    assert run.tail_count(400) == 40 and run.tail_count(49) == 10 and run.tail_count(6) == 6
    assert run.tail_mean(range(400)) == sum(range(360, 400)) / 40
    assert run.tail_mean(range(49)) == sum(range(39, 49)) / 10
    assert run.tail_mean([3.0, 1.0]) == 2.0


def test_slice_timer_samples_inside_a_long_operation_and_times_its_pauses():
    with calibration.SliceTimer(0.02) as timer:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:  # one operation, never yielding
            pass
        t1 = time.perf_counter()
    taken = len(timer.slices)
    assert taken >= 5 and len(timer.pauses) == taken
    assert 0.5 * sum(timer.slices) <= timer.paused(t0, t1) < t1 - t0  # all but the edges
    time.sleep(0.05)
    assert len(timer.slices) == taken  # the timer stops with the block
    with calibration.SliceTimer(None) as off:
        time.sleep(0.05)
    assert off.slices == [] and off.paused(0.0, time.perf_counter()) == 0


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["name"] for m in SPEC["per_layer"]] == [name for name, _ in tracing.LAYER_METRICS]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    units = dict(run.END_TO_END) | dict(tracing.LAYER_METRICS)
    assert all(m["unit"] == units[m["name"]] for m in SPEC["end_to_end"] + SPEC["per_layer"])


@pytest.mark.parametrize("trace", (0, 1))
def test_run_prints_the_metrics_of_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "words", "--seed", "4",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 400
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in want]
    if trace:
        assert last["metrics"]["kernel.share"]["value"] > 0.5
    else:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
