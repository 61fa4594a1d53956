"""Workloads, timed phases and correctness checks of the lewisgame benchmark.

Every workload runs the same stages in one process:

1. a reference run: ``pin_steps`` steps of a fresh trainer, untimed. Its
   loss stream is the one the measured training must reproduce bit for
   bit, and its final state is the trained checkpoint that evaluation
   serves;
2. set-up: world generation, an LGW1 save and load of the train and val
   splits, trainer construction, an LGC1 save and load of the reference
   run's state with the agents rebuilt from it the way ``lewisgame eval``
   does, and a warm-up step and greedy round. It runs ``setups`` times:
   once first, the others spread over the run;
3. training through ``Trainer.run`` with the metrics JSONL and periodic
   checkpoints that ``lewisgame train`` writes, for at least
   ``pin_steps`` steps, so that the loss they end on does not depend on
   speed;
4. greedy evaluation through ``evaluate_agents`` at the workload's K on
   the val split, with the agents from the set-up's checkpoint, in
   chunks of rounds interleaved with the training steps so that its
   share of the measured time is the workload's.

Each timed unit of work is followed by a ``SpeedProbe``; the end-to-end
times and rates are reported in nominal-machine units (see there), and
the raw wall times are printed beside them.

The workloads differ in configuration and in how the measured time is
split between training and evaluation.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import glob
import json
import math
import os
import platform
import resource
import time

import numpy as np

import lewisgame
from lewisgame import evaluate, params, world
from lewisgame.agents import ListenerModel, SpeakerPolicy, model_config_from_params
from lewisgame.config import RunConfig
from lewisgame.training import Trainer

from tracing import Tracer, installed


def _default_config() -> RunConfig:
    return RunConfig()


def _toy_config() -> RunConfig:
    cfg = RunConfig()
    cfg.world.min_objects = 1
    cfg.world.max_objects = 1
    cfg.game.k = 8
    cfg.model.d_e = 64
    cfg.model.d_o = 64
    cfg.train.replicas = 1
    cfg.train.targets_per_replica = 8
    return cfg


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_config: object
    train_share: float  # of the measured seconds; evaluation gets the rest


# Candidate embedding dominates the default config (64 candidates per
# round, one tape node each); decoding dominates the toy config (40
# messages against 8 candidates per step); evaluation runs the same
# kernels forward-only and untaped.
WORKLOADS = {w.name: w for w in (
    Workload("train-k64",
             "default RunConfig (K=64, G=5, 3 replicas, d=128, t_max=12), "
             "world seed from --seed, model seed 2024: candidate embedding "
             "dominates the step",
             _default_config, 0.75),
    Workload("train-toy-k8",
             "toy config (1-object scenes, K=8, d=64, 1 replica, 8 targets "
             "per replica), world seed from --seed: decoder and listener "
             "GRU dominate the step",
             _toy_config, 0.75),
    Workload("eval-k64",
             "evaluate_agents at K=64 on the val split with agents from an "
             "LGC1 checkpoint, default RunConfig, world seed from --seed: "
             "the same kernels forward-only and untaped",
             _default_config, 0.5),
)}

# Checkpoints every 5 steps, so that checkpoint stalls reach the p90
# step time of a run of a hundred-odd steps (the default, 500, never
# fires in a benchmark run).
CHECKPOINT_EVERY = 5
PIN_STEPS = 40
LOSS_WINDOW = 10
SETUPS = 9
OVERHEAD_STEPS = 4
OVERHEAD_PAIRS = 3
EVAL_CHUNK = 20
MIN_EVAL_CHUNKS = 5


def workload_config(workload: Workload, seed: int, workdir: str) -> RunConfig:
    cfg = workload.make_config()
    cfg.world.seed = seed  # the model seed stays pinned at the default
    cfg.train.eval_interval = CHECKPOINT_EVERY
    cfg.paths.dataset = os.path.join(workdir, "train.lgw")
    cfg.paths.val_dataset = os.path.join(workdir, "val.lgw")
    cfg.paths.checkpoint_dir = os.path.join(workdir, "checkpoints")
    cfg.paths.metrics = os.path.join(workdir, "metrics.jsonl")
    return cfg


class Checks:
    """Counts of attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, what: str, ok: bool, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            if len(self.failures) < 20:
                self.failures.append(what)


def make_trainer(cfg: RunConfig, dataset) -> Trainer:
    model_cfg = cfg.model_config(len(dataset.vocab), dataset.spec.input_dim)
    return Trainer(dataset, cfg.game_config(), model_cfg, cfg.train_settings())


def agents_from_state(state, dataset):
    """Speaker and listener rebuilt from a checkpoint, as ``lewisgame eval``
    rebuilds them."""
    speaker_params = state.subset("speaker.")
    listener_params = state.subset("listener.")
    spec = dataset.spec
    cfg = model_config_from_params(
        speaker_params, listener_params, raster=spec.raster,
        raster_size=spec.raster_size, raster_grid=spec.grid)
    speaker = SpeakerPolicy(cfg, speaker_params)
    return speaker, ListenerModel(cfg, listener_params, encoder=speaker)


def report_ok(report, lam: float) -> bool:
    """A step's LossReport is finite, joint = speaker + lam * listener,
    and its reward and pick rate are probabilities."""
    values = [getattr(report, f.name) for f in dataclasses.fields(report)]
    if not all(math.isfinite(v) for v in values):
        return False
    if report.joint_loss != report.speaker_loss + lam * report.listener_loss:
        return False
    return (0.0 <= report.mean_reward <= 1.0
            and 0.0 <= report.mean_indicator <= 1.0)


def eval_report_ok(rep, n_rounds: int, k: int, t_max: int) -> bool:
    unit = [rep.bleu1, rep.bleu2, rep.bleu3, rep.bleu4, rep.coverage,
            rep.top1, rep.top10]
    return (rep.n_rounds == n_rounds and rep.k == k
            and all(0.0 <= v <= 1.0 for v in unit)
            and 0.0 <= rep.mean_length <= t_max)


def loss_stream(reports) -> list:
    return [[float(v).hex() for v in dataclasses.astuple(r)] for r in reports]


# ---------------------------------------------------------------------------
# stages


def reference_run(cfg: RunConfig, n_steps: int):
    """``n_steps`` steps of a fresh trainer on a freshly generated world.

    Returns the trained state and the step reports.
    """
    w = cfg.world
    splits = world.generate_splits(w.seed, cfg.world_spec(), w.n_scenes,
                                   w.val_scenes, w.test_scenes)
    trainer = make_trainer(cfg, splits["train"])
    reports = [trainer.step_once() for _ in range(n_steps)]
    return trainer.pack_state(), reports


def set_up(cfg: RunConfig, state, checks: Checks):
    """Build the workload once.

    Returns the loaded train and val splits and the speaker and listener
    rebuilt from the LGC1 checkpoint of ``state``.
    """
    w = cfg.world
    splits = world.generate_splits(w.seed, cfg.world_spec(), w.n_scenes,
                                   w.val_scenes, w.test_scenes)
    loaded = {}
    for split, path in (("train", cfg.paths.dataset),
                        ("val", cfg.paths.val_dataset)):
        world.save_dataset(splits[split], path)
        loaded[split] = world.load_dataset(path)
        checks.record(f"LGW1 round trip ({split})",
                      loaded[split] == splits[split])
    trainer = make_trainer(cfg, loaded["train"])
    path = os.path.join(os.path.dirname(cfg.paths.dataset), "setup.lgc")
    params.save_checkpoint(state, path)
    restored = params.load_checkpoint(path)
    checks.record("LGC1 round trip", restored.equal(state))
    speaker, listener = agents_from_state(restored, loaded["val"])
    checks.record("warm-up step", report_ok(trainer.step_once(), cfg.game.lam))
    evaluate.evaluate_agents(speaker, listener, loaded["val"], cfg.game.k,
                             n_rounds=2, t_max=cfg.game.t_max)
    return loaded["train"], loaded["val"], speaker, listener


def _count_tokens(trainer: Trainer, sink: list) -> None:
    """Tally the tokens each replica samples, through an instance shim."""
    for rep in trainer.replicas:
        def sample(*args, _rep=rep, **kwargs):
            samples, nodes = SpeakerPolicy.sample(_rep, *args, **kwargs)
            sink[0] += sum(s.length for s in samples)
            return samples, nodes
        rep.sample = sample


class SpeedProbe:
    """How fast this machine runs right now, relative to a nominal one.

    The machine shared with other tenants that this benchmark was built
    on runs for seconds at a time in states about 1.5x apart in speed, so
    raw wall times of two runs differ more with the state they fell in
    than with the program. Every timed unit of work (a step, an eval
    chunk, a set-up) is followed by this probe: a fixed loop of small
    numpy ops under Python control, like the program's own, that never
    calls lewisgame. Its ``speed`` is the nominal probe time over the
    measured one, and the end-to-end figures are scaled by it into
    nominal-machine units.
    """

    NOMINAL_S = 0.005  # the probe's time in the machine's fast state
    ITERS = 150

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = (0.05 * rng.standard_normal((256, 128))).astype(np.float32)
        self.x = rng.standard_normal((1, 128)).astype(np.float32)
        self.obs = rng.standard_normal((64, 69)).astype(np.float32)
        self.w1 = (0.1 * rng.standard_normal((69, 128))).astype(np.float32)

    def speed(self) -> float:
        start = time.perf_counter()
        h = self.x
        for _ in range(self.ITERS):
            h = np.tanh(np.concatenate([h, self.x], axis=1) @ self.w)
            np.tanh(self.obs @ self.w1).mean(axis=0)
        return self.NOMINAL_S / (time.perf_counter() - start)


@dataclasses.dataclass
class Measured:
    """Raw times and rates, each with the probe speed taken right after."""

    setup_s: list = dataclasses.field(default_factory=list)
    setup_speed: list = dataclasses.field(default_factory=list)
    step_s: list = dataclasses.field(default_factory=list)
    step_speed: list = dataclasses.field(default_factory=list)
    step_tokens: list = dataclasses.field(default_factory=list)
    reports: list = dataclasses.field(default_factory=list)
    eval_rates: list = dataclasses.field(default_factory=list)
    eval_speed: list = dataclasses.field(default_factory=list)
    eval_lengths: list = dataclasses.field(default_factory=list)
    train_ds: object = None
    train_s: float = 0.0
    eval_s: float = 0.0

    def timings(self, scaled: bool) -> dict:
        """Timing metrics, in nominal-machine units when ``scaled``."""
        def speeds(values):
            return np.asarray(values) if scaled else 1.0

        step_s = np.asarray(self.step_s) * speeds(self.step_speed)
        return {
            "setup_s": (_median(np.asarray(self.setup_s)
                                * speeds(self.setup_speed)), "s"),
            "train_step_ms_p50": (1000.0 * float(np.percentile(step_s, 50)),
                                  "ms"),
            "train_step_ms_p90": (1000.0 * float(np.percentile(step_s, 90)),
                                  "ms"),
            "train_tokens_per_s": (
                _median(np.asarray(self.step_tokens) / step_s), "1/s"),
            "eval_rounds_per_s": (
                _median(np.asarray(self.eval_rates)
                        / speeds(self.eval_speed)), "1/s"),
        }


def measure(cfg: RunConfig, workload: Workload, seed: int, seconds: float,
            state, tracer: Tracer, checks: Checks, *, setups: int,
            pin_steps: int, eval_chunk: int,
            min_eval_chunks: int) -> Measured:
    """Set up, then train with evaluation chunks and the remaining set-ups
    interleaved between steps, until ``seconds`` of training and
    evaluation have been measured and at least ``pin_steps`` steps run.

    Interleaving makes every metric sample the whole run, so a machine
    whose speed drifts during a run biases them all alike. Interleaved
    work runs between two steps and is kept out of the step times.
    """
    m = Measured()
    probe = SpeedProbe()

    def timed_setup():
        t0 = time.perf_counter()
        with tracer.in_phase("setup"):
            built = set_up(cfg, state, checks)
        m.setup_s.append(time.perf_counter() - t0)
        m.setup_speed.append(probe.speed())
        return built

    m.train_ds, val_ds, speaker, listener = timed_setup()
    trainer = make_trainer(cfg, m.train_ds)
    run_id = cfg.run_id()
    tokens = [0]
    _count_tokens(trainer, tokens)
    eval_per_train = (1.0 - workload.train_share) / workload.train_share
    k, t_max, lam = cfg.game.k, cfg.game.t_max, cfg.game.lam

    def eval_round_chunk():
        t0 = time.perf_counter()
        with tracer.in_phase("eval"):
            rep = evaluate.evaluate_agents(
                speaker, listener, val_ds, k, n_rounds=eval_chunk,
                t_max=t_max, seed=seed * 4096 + len(m.eval_rates))
        elapsed = time.perf_counter() - t0
        m.eval_s += elapsed
        m.eval_rates.append(eval_chunk / elapsed)
        m.eval_speed.append(probe.speed())
        m.eval_lengths.append(rep.mean_length)
        checks.record(f"eval chunk {len(m.eval_rates)}",
                      eval_report_ok(rep, eval_chunk, k, t_max),
                      weight=eval_chunk)

    def interleave():
        m.step_speed.append(probe.speed())
        while m.eval_s < eval_per_train * m.train_s:
            eval_round_chunk()
        if (len(m.setup_s) < setups
                and m.train_s + m.eval_s >= seconds * len(m.setup_s) / setups):
            timed_setup()

    interleave = tracer.wrap("bench.interleaved", interleave)
    clock = [0.0]

    def on_report(report):
        elapsed = time.perf_counter() - clock[0]
        m.step_s.append(elapsed)
        m.train_s += elapsed
        m.step_tokens.append(tokens[0])
        tokens[0] = 0
        m.reports.append(report)
        checks.record(f"step {report.step} report", report_ok(report, lam))
        interleave()
        clock[0] = time.perf_counter()

    def stop():
        return (trainer.step_index >= pin_steps
                and m.train_s + m.eval_s >= seconds)

    ckpt_dir = cfg.paths.checkpoint_dir
    with open(cfg.paths.metrics, "a", encoding="utf-8") as fh, \
            tracer.in_phase("train"):
        clock[0] = time.perf_counter()
        trainer.run(10 ** 9, metrics_fh=fh, run_id=run_id,
                    checkpoint_dir=ckpt_dir,
                    checkpoint_every=cfg.train.eval_interval,
                    stop_flag=stop, on_report=on_report)
    while len(m.eval_rates) < min_eval_chunks:
        eval_round_chunk()
    while len(m.setup_s) < setups:
        timed_setup()

    with open(cfg.paths.metrics, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    checks.record("metrics JSONL rows",
                  rows == [r.row(run_id) for r in m.reports])
    latest = params.load_checkpoint(os.path.join(ckpt_dir, "latest.lgc"))
    checks.record("final LGC1 checkpoint", latest.equal(trainer.pack_state()))
    return m


def tracing_overhead_pct(cfg: RunConfig, dataset, reference, checks: Checks,
                         *, steps: int, pairs: int) -> float:
    """Median extra time of a traced replay over a plain one, in percent.

    Plain and traced replays of the first ``steps`` steps alternate
    ``pairs`` times, each scaled by the probe's machine speed taken right
    after it; every replay must reproduce the reference loss stream.
    """
    probe = SpeedProbe()
    expected = loss_stream(reference[:steps])

    def timed_replay():
        trainer = make_trainer(cfg, dataset)
        start = time.perf_counter()
        reports = [trainer.step_once() for _ in range(steps)]
        elapsed = time.perf_counter() - start
        checks.record("replay reproduces the loss stream",
                      loss_stream(reports) == expected)
        return elapsed * probe.speed()

    ratios = []
    for _ in range(pairs):
        plain = timed_replay()
        with installed(Tracer()) as tracer, tracer.in_phase("replay"):
            traced = timed_replay()
        ratios.append(traced / plain)
    return 100.0 * (_median(ratios) - 1.0)


# ---------------------------------------------------------------------------
# one run


def _median(values) -> float:
    return float(np.median(np.asarray(values, np.float64)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, *, setups: int = SETUPS,
                 pin_steps: int = PIN_STEPS,
                 overhead_steps: int = OVERHEAD_STEPS,
                 overhead_pairs: int = OVERHEAD_PAIRS,
                 eval_chunk: int = EVAL_CHUNK,
                 min_eval_chunks: int = MIN_EVAL_CHUNKS) -> dict:
    """Run one workload and return its result record.

    The record holds ``checks`` (a Checks), ``metrics`` (name -> (value,
    unit), times and rates scaled by the probe's machine speed), ``wall``
    (the same timings unscaled), the per-layer ``trace`` metrics (raw
    self times) when traced, and ``info``.
    """
    workload = WORKLOADS[name]
    cfg = workload_config(workload, seed, workdir)
    os.makedirs(cfg.paths.checkpoint_dir, exist_ok=True)
    checks = Checks()
    state, reference = reference_run(cfg, pin_steps)
    tracer = Tracer()
    with installed(tracer) if trace else contextlib.nullcontext():
        m = measure(cfg, workload, seed, seconds, state, tracer, checks,
                    setups=setups, pin_steps=pin_steps, eval_chunk=eval_chunk,
                    min_eval_chunks=min_eval_chunks)
    checks.record("training reproduces the reference loss stream",
                  loss_stream(m.reports[:pin_steps]) == loss_stream(reference))

    window = m.reports[max(0, pin_steps - LOSS_WINDOW):pin_steps]
    n_steps = len(m.step_s)
    n_rounds = eval_chunk * len(m.eval_rates)
    metrics = {
        **m.timings(scaled=True),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "train_loss_end": (float(np.mean([r.joint_loss for r in window])),
                           "nats"),
    }
    wall = m.timings(scaled=False)
    all_speeds = m.setup_speed + m.step_speed + m.eval_speed
    info = {
        "workload": name,
        "seed": seed,
        "run_id": cfg.run_id(),
        "train_steps": n_steps,
        "train_s": m.train_s,
        "eval_rounds": n_rounds,
        "eval_s": m.eval_s,
        "setups": len(m.setup_s),
        "mean_message_length": float(sum(m.step_tokens) / (
            n_steps * cfg.train.replicas * cfg.train.targets_per_replica
            * cfg.game.generations)),
        "eval_agents_trained_steps": pin_steps,
        "eval_mean_greedy_length": float(np.mean(m.eval_lengths)),
        "machine_speed_p10_p50_p90": [
            float(np.percentile(all_speeds, q)) for q in (10, 50, 90)],
        "failed_frac": checks.failed / checks.attempted,
        "failures": checks.failures,
    }
    record = {"checks": checks, "metrics": metrics, "wall": wall,
              "info": info}
    if trace:
        overhead = tracing_overhead_pct(
            cfg, m.train_ds, reference, checks, steps=min(overhead_steps,
                                                          pin_steps),
            pairs=overhead_pairs)
        tokens = {"train": sum(m.step_tokens),
                  "eval": eval_chunk * sum(m.eval_lengths)}
        record["trace"] = layer_metrics(tracer, tokens, n_steps, n_rounds,
                                        len(m.setup_s), overhead)
        record["groups"] = layer_groups(record["trace"])
    return record


# ---------------------------------------------------------------------------
# per-layer metrics

TOKENS = "tokens"  # counted by the harness, not by the tracer
TRAIN_SPANS = (
    ("agents.embed_images", "agents.embed_images"),
    ("_decode.encode_observation.bwd", "_decode.encode_observation.bwd"),
    ("agents.speaker_sample", "agents.speaker_sample"),
    ("_decode.decode_message.bwd", "_decode.decode_message.bwd"),
    ("agents.embed_message", "agents.embed_message"),
    ("_decode.gru_sequence.bwd", "_decode.gru_sequence.bwd"),
    ("tensor.backward", "tensor.backward"),
    ("tensor.generic.bwd", "tensor.generic.bwd"),
    ("game.round_self", "game.round"),
    ("training.step_self", "training.step"),
    ("training.run_self", "training.run"),
    ("optim.grad_norm", "optim.grad_norm"),
    ("optim.clip", "optim.clip"),
    ("optim.update", "optim.update"),
    ("training.sync_replicas", "training.sync_replicas"),
    ("params.save_checkpoint", "params.save_checkpoint"),
    ("world.sample_game_batch", "world.sample_game_batch"),
    # backward of the nodes each layer recorded, whoever owns the rule
    ("agents.embed_images.bwd", "agents.embed_images.bwd"),
    ("agents.speaker_sample.bwd", "agents.speaker_sample.bwd"),
    ("agents.embed_message.bwd", "agents.embed_message.bwd"),
    ("game.round.bwd", "game.round.bwd"),
    ("training.step.bwd", "training.step.bwd"),
)
TRAIN_COUNTS = (
    ("tensor.tape_nodes_per_step", "tensor.tape_nodes"),
    ("game.messages_per_step", "game.messages"),
    ("game.tokens_per_step", TOKENS),
    ("agents.candidates_per_step", "agents.candidates"),
)
EVAL_SPANS = (
    ("agents.greedy", "agents.speaker_sample"),
    ("agents.embed_images", "agents.embed_images"),
    ("agents.embed_message", "agents.embed_message"),
    ("world.sample_game_batch", "world.sample_game_batch"),
    ("evaluate.bleu", "evaluate.bleu"),
    ("evaluate.coverage", "evaluate.coverage"),
    ("evaluate.self", "evaluate.evaluate_agents"),
)
EVAL_COUNTS = (("agents.tokens_per_round", TOKENS),)
SETUP_SPANS = (
    ("world.generate_splits", "world.generate_splits"),
    ("world.save_dataset", "world.save_dataset"),
    ("world.load_dataset", "world.load_dataset"),
    ("params.save_checkpoint", "params.save_checkpoint"),
    ("params.load_checkpoint", "params.load_checkpoint"),
)


def layer_metrics(tracer: Tracer, tokens: dict, n_steps: int, n_rounds: int,
                  n_setups: int, overhead_pct: float) -> dict:
    """Self time per unit of each phase's work, and counts per unit.

    ``tokens`` holds each phase's message tokens, which the harness counts.
    """
    out = {}
    for phase, spans, counts, units, unit in (
            ("train", TRAIN_SPANS, TRAIN_COUNTS, n_steps, "step"),
            ("eval", EVAL_SPANS, EVAL_COUNTS, n_rounds, "round"),
            ("setup", SETUP_SPANS, (), n_setups, "setup")):
        for metric, span in spans:
            out[f"{phase}.{metric}_ms"] = (
                tracer.self_ms(phase, span) / units, f"ms/{unit}")
        for metric, counter in counts:
            total = (tokens[phase] if counter == TOKENS
                     else tracer.counts[(phase, counter)])
            out[f"{phase}.{metric}"] = (total / units, f"count/{unit}")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


# forward plus backward of the step's main computations
GROUPS = {
    "candidate embedding": ("agents.embed_images",
                            "agents.embed_images.bwd"),
    "speaker decode": ("agents.speaker_sample", "agents.speaker_sample.bwd"),
    "listener message GRU": ("agents.embed_message",
                             "agents.embed_message.bwd"),
    "round and step bookkeeping": ("game.round_self", "game.round.bwd",
                                   "training.step_self", "training.step.bwd",
                                   "world.sample_game_batch"),
    "backward replay": ("tensor.backward",),
    "clip and optimizer": ("optim.grad_norm", "optim.clip", "optim.update"),
    "replica sync": ("training.sync_replicas",),
    "checkpoint and JSONL": ("params.save_checkpoint", "training.run_self"),
}


def layer_groups(trace_metrics: dict) -> dict:
    """ms per train step of each group, largest first."""
    sums = {g: sum(trace_metrics[f"train.{m}_ms"][0] for m in names)
            for g, names in GROUPS.items()}
    return dict(sorted(sums.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# environment


def blas_info() -> dict:
    """OpenBLAS version and thread count from numpy's bundled library."""
    libs_dir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                            "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None) \
            or getattr(lib, "openblas_get_num_threads", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None) \
            or getattr(lib, "openblas_get_config", None)
        out = {}
        if threads is not None:
            threads.restype = ctypes.c_int
            out["blas_threads"] = threads()
        if config is not None:
            config.restype = ctypes.c_char_p
            out["blas"] = config().decode(errors="replace")
        return out
    return {"blas": "unknown",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unknown")}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(),
        "lewisgame": lewisgame.__version__,
        "machine": platform.machine(),
    }
