"""Benchmark of lewisgame training and evaluation throughput.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload train-k64 --seed 1 --seconds 25 --trace 0

Workloads are ``train-k64``, ``train-toy-k8`` and ``eval-k64`` (see
``harness.py``). ``--seed`` seeds the world (the model seed stays at the
config default), so the same seed gives the same inputs. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs the same workload with every layer's entry points
wrapped and reports per-layer self times, counts and the tracing
overhead instead. End-to-end times and rates are scaled by a machine-speed
probe taken after each unit of work (``harness.SpeedProbe``), so runs that
fall in a slow or a fast spell of a shared machine agree; the raw wall
times are printed too. The program is imported from ``src/`` next to this
directory, never from an installed copy.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit code 0 means the run completed, whether or not its checks passed; 2 means the program
could not be imported or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")


def load_program():
    """Import lewisgame from this checkout's ``src/``; exit 2 if absent."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import lewisgame
    except ImportError as exc:
        _fail(f"cannot import lewisgame from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(lewisgame.__file__))
    if os.path.dirname(where) != SRC:
        _fail(f"lewisgame was imported from {where}, not {SRC}")
    return lewisgame


def _fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    return args


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:14.6f}  {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    sys.path.insert(0, BENCH_DIR)
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR)
    try:
        record = harness.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks, info = record["checks"], record["info"]
    print("environment " + json.dumps(harness.environment(), sort_keys=True))
    print("run " + json.dumps(info, sort_keys=True))
    _print_table(f"end-to-end, {args.workload} (train steps: "
                 f"{info['train_steps']}, eval rounds: {info['eval_rounds']})",
                 {**record["metrics"],
                  "failed_frac": (info["failed_frac"], "fraction")})
    _print_table("the same as raw wall times, not scaled by machine speed",
                 record["wall"])
    reported = record["metrics"]
    if args.trace:
        _print_table("per layer (self time per unit of phase work)",
                     record["trace"])
        _print_table("train step by group, largest first",
                     {g: (v, "ms/step") for g, v in record["groups"].items()})
        reported = record["trace"]
    if checks.failures:
        print("failed checks: " + "; ".join(checks.failures))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
