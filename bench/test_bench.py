"""Fast tests of the benchmark harness: tiny runs of every workload."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import harness  # noqa: E402
from tracing import Tracer, installed  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

TINY = dict(setups=1, pin_steps=2, overhead_steps=1, overhead_pairs=1,
            eval_chunk=2, min_eval_chunks=1)


def _tiny_run(name, trace, tmp_path):
    return harness.run_workload(name, 3, 0.0, trace, str(tmp_path), **TINY)


def _check_emitted(metrics, spec_metrics):
    assert list(metrics) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"], m["name"]
        assert math.isfinite(value), m["name"]


def test_workloads_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in harness.WORKLOADS.values()]


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_run_emits_every_end_to_end_metric(name, tmp_path):
    record = _tiny_run(name, False, tmp_path)
    assert record["checks"].failed == 0, record["checks"].failures
    _check_emitted(record["metrics"], SPEC["end_to_end"])
    assert all(v > 0 for v, _ in record["metrics"].values())
    assert record["info"]["train_steps"] == TINY["pin_steps"]


def test_tiny_traced_run_emits_every_per_layer_metric(tmp_path):
    record = _tiny_run("train-k64", True, tmp_path)
    assert record["checks"].failed == 0, record["checks"].failures
    _check_emitted(record["trace"], SPEC["per_layer"])
    assert record["trace"]["train.game.messages_per_step"][0] > 0


def test_tracing_restores_the_program():
    from lewisgame import tensor, training
    before = (training.train_step, tensor.Tape.record,
              vars(training.Trainer)["run"])
    with installed(Tracer()):
        assert training.train_step is not before[0]
    assert (training.train_step, tensor.Tape.record,
            vars(training.Trainer)["run"]) == before


def test_self_time_excludes_children():
    tracer = Tracer()
    child = tracer.wrap("child", lambda: sum(range(20000)))
    parent = tracer.wrap("parent", lambda: child())
    with tracer.in_phase("p"):
        parent()
    total = tracer.self_s[("p", "parent")] + tracer.self_s[("p", "child")]
    assert tracer.self_s[("p", "child")] > tracer.self_s[("p", "parent")]
    assert total > 0


def test_bad_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        run.parse_args(["--workload", "train-k64", "--seed", "-1",
                        "--seconds", "1"])
    assert exc.value.code == 2
    assert run.main(["--workload", "nope", "--seed", "0",
                     "--seconds", "0"]) == 2


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and bench/, the command prints no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-k64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
