"""The pinned run: generate a world, train 50 default steps, evaluate,
and warm-start a speaker for 20 steps; then generate a raster world,
train 10 steps on it and evaluate.

Runs, in a fresh temporary directory and with fixed relative paths (so
that ``run_id`` and every hash compare across commits):

1. ``lewisgame gen-world --out world.lgw``
2. ``lewisgame train --config run.ini``: the default config with only
   ``paths.dataset``, ``paths.checkpoint_dir``, ``paths.metrics`` and
   ``train.steps = 50`` set
3. ``lewisgame eval --config run.ini`` of ``ckpt/latest.lgc`` on
   ``world.lgw``, so K, ``t_max``, the round count and the eval seed
   come from the same config (its defaults)
4. ``lewisgame pretrain --config run.ini --out pre.lgc --steps 20``:
   the supervised warm start on ``world.lgw``'s captions
5. in the subdirectory ``raster``, with its own ``run.ini`` (1-object
   raster scenes, K=8, ``d_e`` = ``d_o`` = 32 and ``train.steps = 10``):
   ``gen-world``, ``train`` and ``eval`` of its ``latest.lgc`` as in 1-3

and prints the sha256 of the world file, the metrics JSONL,
``latest.lgc`` and the eval stdout, one per line, and a fifth line: the
sha256 of the metrics rows with ``run_id`` dropped, each row as
canonical JSON (sorted keys, no spaces) on its own line. ``run_id``
hashes the config text, so a change that only adds or removes config
keys moves the JSONL hash but leaves the fifth line alone. The sixth
line is the sha256 of ``pre.lgc``. Three more lines hash the raster
stage's world file, ``latest.lgc`` and eval stdout, so a raster run,
which the default config does not make, is pinned too.

Last come the benchmark's reference runs, ``bench/harness.py``'s
``reference_run`` of ``PIN_STEPS`` steps (the loss stream the measured
training must reproduce, and the state evaluation serves) for the
train-k64 and train-toy-k8 workloads at world seeds 1 and 7. Each has
two lines: the sha256 of its loss stream (``harness.loss_stream``, as
JSON) and of its packed state written as an LGC1 checkpoint. These run
in this process, from the package that ``PYTHONPATH`` names.

Before those lines it prints a header, one ``# key value`` line each:
the Python and numpy versions, numpy's BLAS library and version, and the
machine, on which float32 round-off may depend. ``PYTHONPATH`` chooses
the package it runs. Two runs of one commit must print the same lines
(bitwise reproducibility). ``tests/data/pinned_hashes.txt`` holds its
output at the last commit that moved a line on purpose:

    PYTHONPATH=src python tests/pinned_run.py > tests/data/pinned_hashes.txt

With ``--check`` it compares its lines with that file instead, names
each line that moved and exits 1 if any did; a refactor that claims
unchanged numbers must pass it. When the header differs from the file's,
the difference is named too, since a hash may then move by round-off
alone.

    PYTHONPATH=src python tests/pinned_run.py --check

pytest does not collect this file; ``tests/test_pinned_run.py`` runs the
check.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile

import numpy

TESTS = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(TESTS, "data", "pinned_hashes.txt")
BENCH = os.path.join(os.path.dirname(TESTS), "bench")
# (workload, world seed) of each pinned reference run
REFERENCE_RUNS = tuple((workload, seed) for workload in ("train-k64",
                                                         "train-toy-k8")
                       for seed in (1, 7))

STEPS = 50
CONFIG = f"""[paths]
dataset = world.lgw
checkpoint_dir = ckpt
metrics = metrics.jsonl

[train]
steps = {STEPS}
"""
RASTER_CONFIG = """[paths]
dataset = world.lgw
checkpoint_dir = ckpt
metrics = metrics.jsonl

[world]
raster = true
max_objects = 1

[game]
k = 8

[model]
d_e = 32
d_o = 32

[train]
steps = 10
"""


def _lewisgame(cwd: str, *args: str) -> bytes:
    # the commands run in the temp dir, so a relative PYTHONPATH is
    # resolved against the caller's directory first
    path = os.environ.get("PYTHONPATH", "")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        os.path.abspath(p) for p in path.split(os.pathsep) if p))
    proc = subprocess.run([sys.executable, "-m", "lewisgame.cli", *args],
                          cwd=cwd, env=env, capture_output=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise SystemExit(f"lewisgame {args[0]} exited {proc.returncode}")
    return proc.stdout


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _rows_sha256(path: str) -> str:
    """sha256 of the JSONL rows at ``path`` without their ``run_id``."""
    lines = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            del row["run_id"]
            lines.append(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")) + "\n")
    return _sha256("".join(lines).encode())


def _train_and_eval(root: str, config: str) -> bytes:
    """gen-world, train and eval of ``config`` in ``root``; the eval
    stdout."""
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "run.ini"), "w", encoding="utf-8") as fh:
        fh.write(config)
    _lewisgame(root, "gen-world", "--config", "run.ini", "--out", "world.lgw")
    _lewisgame(root, "train", "--config", "run.ini")
    return _lewisgame(root, "eval", "--config", "run.ini", "--checkpoint",
                      os.path.join("ckpt", "latest.lgc"),
                      "--dataset", "world.lgw")


def environment() -> dict:
    """The header's facts about this interpreter, its numpy and BLAS."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 prints, returns None
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "machine": platform.machine()}


def read_pinned(path: str = PINNED) -> tuple[dict, dict]:
    """The header and the hash lines of a file this script wrote, each as
    a dict of name to value."""
    header, hashes = {}, {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(" ")
                header[key] = value
            elif line.strip():
                name, value = line.split()
                hashes[name] = value
    return header, hashes


def differences(want: dict, got: dict) -> list[str]:
    """One ``name: want -> got`` line per name whose values differ."""
    return [f"{name}: {want.get(name)} -> {got.get(name)}"
            for name in dict.fromkeys([*want, *got])
            if want.get(name) != got.get(name)]


def pinned_lines() -> dict:
    """Run the recipe; each hash line's name and sha256."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="pinned-run-") as root:
        eval_out = _train_and_eval(root, CONFIG)
        _lewisgame(root, "pretrain", "--config", "run.ini",
                   "--out", "pre.lgc", "--steps", "20")
        out["world.lgw"] = _file_sha256(os.path.join(root, "world.lgw"))
        out["metrics.jsonl"] = _file_sha256(
            os.path.join(root, "metrics.jsonl"))
        out["latest.lgc"] = _file_sha256(
            os.path.join(root, "ckpt", "latest.lgc"))
        out["eval.stdout"] = _sha256(eval_out)
        out["metrics.rows-without-run_id"] = _rows_sha256(
            os.path.join(root, "metrics.jsonl"))
        out["pre.lgc"] = _file_sha256(os.path.join(root, "pre.lgc"))
        raster = os.path.join(root, "raster")
        eval_out = _train_and_eval(raster, RASTER_CONFIG)
        out["raster/world.lgw"] = _file_sha256(
            os.path.join(raster, "world.lgw"))
        out["raster/latest.lgc"] = _file_sha256(
            os.path.join(raster, "ckpt", "latest.lgc"))
        out["raster/eval.stdout"] = _sha256(eval_out)
    return out


def reference_lines(root: str) -> dict:
    """The loss-stream and packed-state hash lines of each run of
    ``REFERENCE_RUNS``, its files written under ``root``."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import harness
    from lewisgame.params import save_checkpoint

    out = {}
    for workload, seed in REFERENCE_RUNS:
        cfg = harness.workload_config(harness.WORKLOADS[workload], seed, root)
        state, reports = harness.reference_run(cfg, harness.PIN_STEPS)
        name = f"reference/{workload}/seed{seed}"
        out[f"{name}/losses"] = _sha256(
            json.dumps(harness.loss_stream(reports)).encode())
        path = os.path.join(root, f"{workload}-{seed}.lgc")
        save_checkpoint(state, path)
        out[f"{name}/state.lgc"] = _file_sha256(path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the pinned recipe "
                                     "and print, or check, its hashes.")
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {os.path.relpath(PINNED)}")
    args = parser.parse_args(argv)
    lines = pinned_lines()
    with tempfile.TemporaryDirectory(prefix="pinned-reference-") as root:
        lines.update(reference_lines(root))
    if not args.check:
        for key, value in environment().items():
            print(f"# {key} {value}")
        for name, value in lines.items():
            print(f"{name} {value}")
        return 0
    header, hashes = read_pinned()
    for line in differences(header, environment()):
        print(f"environment differs, {line}")
    moved = differences(hashes, lines)
    for line in moved:
        print(f"moved {line}")
    if not moved:
        print(f"all {len(lines)} lines match {os.path.relpath(PINNED)}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
