"""Command-line entry point.

Subcommands: gen-world, train, eval, sweep, pretrain, plotdata.
Exit codes: 0 ok, 1 usage or config error, 2 data or format error,
3 numerical failure during training or pretraining. Hyperparameters
come only from the run config: --config, else the LEWISGAME_CONFIG
environment variable, else the defaults; ``eval`` reads ``[eval]`` and
``[game]`` k and t_max.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from dataclasses import replace

import numpy as np

from .agents import ListenerModel, SpeakerPolicy, model_config_from_params
from .config import ConfigError, RunConfig, load_config
from .evaluate import (EVAL_METRICS, ablation_sweep, ema, evaluate_agents,
                       sweep_summary)
from .params import (FormatError, ParameterSet, check_layout, is_count,
                     load_checkpoint, save_checkpoint, write_atomic)
from .training import NumericalFailureError, supervised_pretrain
from .world import CapacityError, SamplingError, load_dataset, save_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

ENV_CONFIG = "LEWISGAME_CONFIG"


def _load_cfg(path: str | None) -> RunConfig:
    path = path or os.environ.get(ENV_CONFIG)
    if not path:
        return RunConfig()
    return load_config(path)


def cmd_gen_world(args) -> int:
    cfg = _load_cfg(args.config)
    splits = cfg.world_splits()
    if args.split not in splits:
        print(f"split {args.split!r} has no scenes in this config",
              file=sys.stderr)
        return EXIT_USAGE
    dataset = splits[args.split]
    save_dataset(dataset, args.out)
    print(f"wrote {len(dataset)} scenes ({args.split}) to {args.out}")
    print(f"world capacity: {cfg.world_spec().capacity()} distinct scenes")
    return EXIT_OK


def _logged_from(line: bytes, run_id: str, step: int) -> bool:
    """Whether ``line`` is a metrics row of ``run_id`` at or past ``step``."""
    try:
        row = json.loads(line)
    except ValueError:
        return False
    return (isinstance(row, dict) and row.get("run_id") == run_id
            and isinstance(row.get("step"), int) and row["step"] >= step)


def _drop_rows_from(path: str, run_id: str, step: int) -> None:
    """Rewrite the metrics log at ``path`` without ``run_id``'s rows at or
    past ``step``, so that a run resumed from a checkpoint older than the
    log does not log those steps twice, and without a last line lacking
    its newline (a row cut by a crash). Other lines are kept as they are."""
    if not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        lines = fh.readlines()
    kept = [line for line in lines if line.endswith(b"\n")
            and not _logged_from(line, run_id, step)]
    if len(kept) < len(lines):
        write_atomic(path, kept)


def cmd_train(args) -> int:
    cfg = _load_cfg(args.config)
    dataset = load_dataset(cfg.paths.dataset)
    trainer = cfg.trainer(dataset)
    if args.resume:
        trainer.load_state(load_checkpoint(args.resume))
    remaining = cfg.train.steps - trainer.step_index
    run_id = cfg.run_id()
    os.makedirs(os.path.dirname(cfg.paths.metrics) or ".", exist_ok=True)
    _drop_rows_from(cfg.paths.metrics, run_id, trainer.step_index)
    stop = {"flag": False}

    def on_signal(signum, frame):
        stop["flag"] = True

    old_int = signal.signal(signal.SIGINT, on_signal)
    old_term = signal.signal(signal.SIGTERM, on_signal)
    try:
        with open(cfg.paths.metrics, "a", encoding="utf-8") as fh:
            trainer.run(max(0, remaining), metrics_fh=fh, run_id=run_id,
                        checkpoint_dir=cfg.paths.checkpoint_dir,
                        checkpoint_every=cfg.train.eval_interval,
                        stop_flag=lambda: stop["flag"])
    except NumericalFailureError as exc:
        save_checkpoint(trainer.pack_state(),
                        os.path.join(cfg.paths.checkpoint_dir, "latest.lgc"))
        print(f"numerical failure at step {trainer.step_index}: {exc}",
              file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        signal.signal(signal.SIGINT, old_int)
        signal.signal(signal.SIGTERM, old_term)
    print(f"trained to step {trainer.step_index} "
          f"(checkpoints in {cfg.paths.checkpoint_dir})")
    return EXIT_OK


def _agents_from_checkpoint(state: ParameterSet, dataset):
    """The checkpoint's agents, for ``dataset``'s observations and
    vocabulary. Entries that do not fit agents of those and of the other
    sizes the entries imply, that imply sizes no agent has, or that are
    not finite, raise ``FormatError``, as on a resume."""
    speaker_params = state.subset("speaker.")
    listener_params = state.subset("listener.")
    spec = dataset.spec
    try:
        cfg = replace(model_config_from_params(
            speaker_params, listener_params, raster=spec.raster,
            raster_size=spec.raster_size, raster_grid=spec.grid),
            obs_dim=spec.input_dim, vocab_size=len(dataset.vocab))
    except KeyError as exc:
        raise FormatError(f"checkpoint lacks speaker./listener. entry "
                          f"{exc}") from None
    except ValueError as exc:  # a FormatError, or ModelConfig's refusal
        raise FormatError(str(exc)) from None
    check_layout(SpeakerPolicy.create(cfg, 0).params, speaker_params,
                 "speaker.")
    check_layout(ListenerModel.create(cfg, 0).params, listener_params,
                 "listener.")
    speaker = SpeakerPolicy(cfg, speaker_params)
    listener = ListenerModel(cfg, listener_params, encoder=speaker)
    return speaker, listener


def cmd_eval(args) -> int:
    cfg = _load_cfg(args.config)
    dataset = load_dataset(args.dataset)
    state = load_checkpoint(args.checkpoint)
    speaker, listener = _agents_from_checkpoint(state, dataset)
    step = -1  # a checkpoint of agents alone records no training step
    if "meta.step" in state:
        if not is_count(state["meta.step"].data):
            raise FormatError("meta.step is not a whole number >= 0")
        step = int(state["meta.step"].data[0])
    report = evaluate_agents(speaker, listener, dataset, k=cfg.game.k,
                             n_rounds=cfg.eval.rounds, t_max=cfg.game.t_max,
                             seed=cfg.eval.seed)
    row = report.row(run_id=os.path.basename(args.checkpoint), step=step,
                     seed=cfg.eval.seed)
    for name in EVAL_METRICS:
        print(f"{name}: {row[name]:.4f}")
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args.config)
    cells = ablation_sweep(cfg, args.k_list, args.seeds, workers=args.workers)
    summary = sweep_summary(cells)
    for k, metrics in summary.items():
        print(f"K={k}: " + " ".join(
            f"{name} {metrics[name]['mean']:.3f}±{metrics[name]['std']:.3f}"
            for name in ("coverage", "bleu1", "top1", "train_reward")
            if name in metrics))
    failures = [c for c in cells if "error" in c]
    for c in failures:
        print(f"K={c['k']} seed={c['seed']} failed: {c['error']}",
              file=sys.stderr)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            for c in cells:
                if "report" in c:
                    fh.write(json.dumps({**c["report"].row(
                        run_id="sweep", step=cfg.train.steps, seed=c["seed"]),
                        "train_reward": c["train_reward"]}) + "\n")
                else:
                    fh.write(json.dumps(c) + "\n")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    cfg = _load_cfg(args.config)
    dataset = load_dataset(cfg.paths.dataset)
    trainer = cfg.trainer(dataset)
    supervised_pretrain(trainer.speaker, dataset, steps=args.steps,
                        lr=args.lr, seed=cfg.train.seed,
                        clip_norm=cfg.train.clip_norm)
    trainer.replicas[1:] = [trainer.speaker.copy()
                            for _ in trainer.replicas[1:]]
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    save_checkpoint(trainer.pack_state(), args.out)
    print(f"pretrained speaker for {args.steps} steps -> {args.out}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    rows = []  # (line number, row) of each non-blank line
    with open(args.metrics, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except ValueError:
                row = None
            if not isinstance(row, dict):
                print(f"data error: {args.metrics} line {number} is not a "
                      f"JSON object", file=sys.stderr)
                return EXIT_DATA
            rows.append((number, row))
    if not rows:
        print("metrics log is empty", file=sys.stderr)
        return EXIT_DATA
    first = rows[0][1]
    available = [k for k in first if k not in ("run_id",)]
    fields = [f.strip() for f in args.fields.split(",") if f.strip()]
    for f in fields:
        if f not in first:
            print(f"unknown field {f!r}; available: {', '.join(available)}",
                  file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(first[f], (int, float)):
            print(f"field {f!r} is not numeric", file=sys.stderr)
            return EXIT_USAGE
    for number, row in rows:
        for f in ["step"] + fields:
            if not isinstance(row.get(f), (int, float)):
                print(f"data error: {args.metrics} line {number} has no "
                      f"numeric {f!r}", file=sys.stderr)
                return EXIT_DATA
    columns = {f: np.array([float(r[f]) for _, r in rows]) for f in fields}
    if args.alpha < 1.0:
        columns = {f: ema(v, args.alpha) for f, v in columns.items()}
    print("\t".join(["step"] + fields))
    for i, (_, r) in enumerate(rows):
        vals = "\t".join(f"{columns[f][i]:.6g}" for f in fields)
        print(f"{r['step']}\t{vals}")
    return EXIT_OK


def _checked(convert, ok, rule: str):
    """argparse type: the text through ``convert``, refused unless ``ok``
    holds for the value (written so that NaN fails it)."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
    return parse


_int_list = _checked(lambda text: [int(x) for x in text.split(",")],
                     lambda _: True, "expected comma-separated integers")
_alpha = _checked(float, lambda a: 0 < a <= 1, "must lie in (0, 1]")
_step_count = _checked(int, lambda n: n >= 0, "must be an integer >= 0")
_worker_count = _checked(int, lambda n: n >= 1, "must be an integer >= 1")
# the rule [train] applies to its learning rates
_learning_rate = _checked(float, lambda lr: 0 <= lr < float("inf"),
                          "must be finite and non-negative")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lewisgame",
        description="Train and probe the cooperative description game.")
    parser.add_argument("--print-config", action="store_true",
                        help="print the full default config and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-world", help="generate and write a dataset file")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="train",
                   choices=["train", "val", "test"])
    p.set_defaults(fn=cmd_gen_world)

    p = sub.add_parser("train", help="run the game training loop")
    p.add_argument("--config", default=None)
    p.add_argument("--resume", default=None,
                   help="checkpoint to resume from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--config", default=None,
                   help="run config: [game] k and t_max, [eval] rounds, seed")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", default=None, help="append JSON-lines here")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="train across a list of K values")
    p.add_argument("--config", default=None,
                   help="run config: [train] steps per cell, [eval] rounds")
    p.add_argument("--k-list", type=_int_list, default="4,8,16,32,64")
    p.add_argument("--seeds", type=_int_list, default="2024,2025,2026")
    p.add_argument("--workers", type=_worker_count, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("pretrain",
                       help="supervised warm start on reference captions")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=_step_count, default=500)
    p.add_argument("--lr", type=_learning_rate, default=0.05)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("plotdata", help="emit tab-separated metric columns")
    p.add_argument("--metrics", required=True)
    p.add_argument("--fields", default="joint_loss")
    p.add_argument("--alpha", type=_alpha, default=1.0,
                   help="EMA smoothing factor in (0, 1]; 1 = raw values")
    p.set_defaults(fn=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    if args.print_config:
        print(RunConfig().to_text(), end="")
        return EXIT_OK
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_USAGE
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe early (``| head``). Python flushes
        # stdout again at exit, so point it at devnull to keep that flush
        # from raising too, as the ``signal`` module docs recommend.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FormatError, CapacityError, SamplingError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
