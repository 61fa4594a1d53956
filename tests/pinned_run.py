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

It takes no options; ``PYTHONPATH`` chooses the package it runs. Two
runs of one commit must print the same lines (bitwise reproducibility),
and a refactor that claims unchanged numbers must print the parent's
lines:

    PYTHONPATH=src python tests/pinned_run.py

pytest does not collect this file.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile

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


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="pinned-run-") as root:
        eval_out = _train_and_eval(root, CONFIG)
        _lewisgame(root, "pretrain", "--config", "run.ini",
                   "--out", "pre.lgc", "--steps", "20")
        print(f"world.lgw {_file_sha256(os.path.join(root, 'world.lgw'))}")
        print(f"metrics.jsonl "
              f"{_file_sha256(os.path.join(root, 'metrics.jsonl'))}")
        print(f"latest.lgc "
              f"{_file_sha256(os.path.join(root, 'ckpt', 'latest.lgc'))}")
        print(f"eval.stdout {_sha256(eval_out)}")
        print(f"metrics.rows-without-run_id "
              f"{_rows_sha256(os.path.join(root, 'metrics.jsonl'))}")
        print(f"pre.lgc {_file_sha256(os.path.join(root, 'pre.lgc'))}")
        raster = os.path.join(root, "raster")
        eval_out = _train_and_eval(raster, RASTER_CONFIG)
        print(f"raster/world.lgw "
              f"{_file_sha256(os.path.join(raster, 'world.lgw'))}")
        print(f"raster/latest.lgc "
              f"{_file_sha256(os.path.join(raster, 'ckpt', 'latest.lgc'))}")
        print(f"raster/eval.stdout {_sha256(eval_out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
