"""Joint policy-gradient training for the signaling game, and the
supervised warm start.

Every loss is one ``sequence_loss``: a log-prob node times a float32
weight array, summed. The speaker's is GRPO's outcome surrogate over
each group of G generations: each token of a row of a replica's (B_w, T)
played block (``game.RoundTrace``) weighs -A / (length * B_w), with
A = R - b, b the group's mean reward (the group-relative baseline),
optionally over the group's reward std. Advantages are constants; no
gradient flows through them. The listener's weighs the (B, 1) target
log-probs of a step's B messages by -1 / B, the cross-entropy against
the one-hot target. The warm start's weighs the teacher-forced log-probs
of reference captions by -1 / (tokens in the batch).

A step runs W speaker replicas over disjoint sub-batches (in-process,
sequential, so results are bitwise reproducible). Each replica decodes
its own block, and the listener plays every block as one through its one
bound encoder, the first replica's (``game.play_rounds``). The step is
recorded on one tape: the W speaker losses plus lambda times the one
listener loss are backpropagated once, so the listener's loss trains
replica 0's encoder alone. Every agent, the warm start's speaker too,
steps through ``update``: it refuses a non-finite step, clips each
gradient norm, and applies SGD to speakers and Adam to the listener.
Replica weights are averaged periodically. Every config takes this one
path: at lambda = 0 the listener's gradient is 0, and a group of one has
zero advantages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .agents import ListenerModel, ModelConfig, SpeakerPolicy
from .game import GameConfig, RoundTrace, _play_round_traced, solve_rate
from .optim import Adam, Sgd, clip_global_norm, grad_global_norm
from .params import FormatError, ParameterSet, check_layout, is_count
from .tensor import F32, Tape, Tensor, backward
from .world import EOS, Dataset, check_candidate_count


class NumericalFailureError(RuntimeError):
    """A training step produced non-finite losses or gradients."""


def check_at_least(settings, **lows) -> None:
    """Raise ValueError naming the first key of ``settings`` below its
    low bound in ``lows``."""
    for key, low in lows.items():
        if getattr(settings, key) < low:
            raise ValueError(f"{key} must be at least {low}")


@dataclass
class TrainSettings:
    """Knobs of the optimization loop (the game itself sits in GameConfig).

    This is the ``[train]`` section of a run config. ``steps`` (run
    length) and ``eval_interval`` (steps between checkpoints) are read by
    the command line; the trainer itself reads the rest. The speakers
    always learn by SGD at ``lr_speaker`` and the listener by Adam at
    ``lr_listener``, on group-relative advantages.
    """

    steps: int = 5000
    seed: int = 2024
    replicas: int = 3
    sync_period: int = 5
    targets_per_replica: int = 1
    lr_speaker: float = 0.1
    lr_listener: float = 1e-3
    standardize_advantages: bool = False
    clip_norm: float = 1.0
    eval_interval: int = 500

    def __post_init__(self):
        check_at_least(self, steps=0, replicas=1, targets_per_replica=1,
                       seed=0, sync_period=0, eval_interval=0)
        # written so that NaN fails them
        for key in ("lr_speaker", "lr_listener"):
            if not 0 <= getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be finite and non-negative")
        if not self.clip_norm > 0:
            raise ValueError("clip_norm must be positive")


@dataclass
class LossReport:
    """Per-step summary. The speaker's loss, grad norm and clip scale
    are means across replicas; replica 0's grad norm alone holds a share
    of the listener's loss, through the bound encoder. joint_loss always
    equals speaker + lambda * listener."""

    speaker_loss: float
    listener_loss: float
    joint_loss: float
    mean_reward: float
    mean_indicator: float
    advantage_variance: float
    grad_norm_speaker: float
    grad_norm_listener: float
    clip_scale_speaker: float
    clip_scale_listener: float
    step: int = -1

    def row(self, run_id: str) -> dict:
        out = {"run_id": run_id, "step": self.step}
        for f in fields(self):
            if f.name != "step":
                out[f.name] = float(getattr(self, f.name))
        return out


def group_advantages(trace: RoundTrace,
                     standardize: bool = False) -> np.ndarray:
    """(B,) float32 outcome advantages of a played block, one per row.

    A row's advantage is its reward minus its round's mean reward, over
    the round's reward std when ``standardize``; every token of the row
    carries it. A round of one generation is its own baseline, so its
    advantage is 0.
    """
    by_round = trace.rewards.reshape(-1, trace.generations)
    centered = by_round - by_round.mean(axis=1, keepdims=True)
    if standardize:
        centered = centered / (by_round.std(axis=1, keepdims=True) + 1e-8)
    return centered.astype(F32).ravel()


def advantage_variance(advs: np.ndarray, generations: int) -> np.ndarray:
    """Spread of the (B,) advantages from ``group_advantages`` within each
    group, one value per group.

    Advantages are zero-mean by design, so their float64 second moment
    is taken about zero with the usual n-1 denominator; this is what
    shrinks when a baseline removes the common reward level. A group of
    one (denominator 1) gives 0.
    """
    by_group = advs.astype(np.float64).reshape(-1, generations)
    return (by_group ** 2).sum(axis=1) / max(generations - 1, 1)


def sync_replicas(param_sets) -> None:
    """Overwrite every parameter in place with its elementwise mean
    across replicas, summed in float64 in replica order as ``np.mean``.

    The sets are the replicas of one ``SpeakerPolicy.create``, so they
    hold the same names at the same shapes; nothing here checks that.
    """
    if len(param_sets) <= 1:
        return
    first, second, *rest = param_sets
    for name in first.names():
        total = np.add(first[name].data, second[name].data, dtype=np.float64)
        for ps in rest:
            total += ps[name].data
        total /= len(param_sets)
        mean = total.astype(F32)
        for ps in param_sets:
            np.copyto(ps[name].data, mean)


def sequence_loss(tape, logprobs: Tensor, weights) -> Tensor:
    """Scalar sum of the log-prob node ``logprobs`` times ``weights``, a
    float32 array that broadcasts to its shape. Every loss is built here."""
    weights = np.broadcast_to(np.asarray(weights, F32), logprobs.shape)
    return T.tsum(tape, T.mul(tape, logprobs, Tensor(weights)))


def update(learners, clip_norm: float, losses) -> tuple[list, list]:
    """Clip every gradient of ``learners``, ``(ParameterSet, optimizer)``
    pairs with populated gradients, at ``clip_norm``, then step every
    optimizer, in list order; or, if any of ``losses`` or any learner's
    global gradient norm is not finite, zero every gradient and raise
    ``NumericalFailureError``, leaving weights and optimizer state as
    they were. Returns the gradient norms and the clip scales."""
    norms = [grad_global_norm(params) for params, _ in learners]
    if not np.isfinite(list(losses) + norms).all():
        for params, _ in learners:
            params.zero_grads()
        raise NumericalFailureError(
            "non-finite loss or gradient; parameters left at pre-step values")
    scales = [clip_global_norm(params, clip_norm, norm)
              for (params, _), norm in zip(learners, norms)]
    for params, opt in learners:
        opt.step(params)
    return norms, scales


# scenes per supervised warm-start step (fewer if the dataset is smaller)
PRETRAIN_BATCH = 8


@np.errstate(all="ignore")  # as train_step
def supervised_pretrain(speaker: SpeakerPolicy, dataset: Dataset, steps: int,
                        lr: float, seed: int,
                        clip_norm: float) -> SpeakerPolicy:
    """Teacher-forced cross-entropy training on reference captions.

    This is the only place reference captions feed a gradient; the game
    loop itself never reads them. Each step fits ``PRETRAIN_BATCH``
    scenes with SGD at ``lr`` through ``update``, clipped at
    ``clip_norm``. Returns the same speaker, updated in place; steps=0
    leaves it untouched. A non-finite step raises
    ``NumericalFailureError`` and leaves the speaker as it stood.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5D]))
    opt = Sgd(lr)
    for _ in range(steps):
        speaker.params.zero_grads()
        tape = Tape()
        idx = rng.choice(len(dataset),
                         size=min(PRETRAIN_BATCH, len(dataset)), replace=False)
        caps = [dataset.captions[int(i)] for i in idx]
        messages = [list(c[int(rng.integers(len(c)))]) + [EOS] for c in caps]
        node = speaker.logprobs(dataset.model_inputs()[idx], messages, tape)
        # 0 past each caption's end: the loss is the batch's mean token NLL
        n_tokens = sum(len(m) for m in messages)
        loss = sequence_loss(tape, node, F32(-1 / n_tokens))
        backward(tape, loss)
        update([(speaker.params, opt)], clip_norm, [loss.item()])
    speaker.params.zero_grads()
    return speaker


# A diverging step overflows on its way to ``update``, which refuses it:
# numpy's warnings would only precede that one error.
@np.errstate(all="ignore")
def train_step(replicas, listener: ListenerModel, dataset,
               game_cfg: GameConfig, settings: TrainSettings,
               speaker_opt, listener_opt, rngs) -> LossReport:
    """One optimization step across all replicas.

    Each replica plays its ``targets_per_replica`` rounds as one block
    and optimizes the mean of its group losses; the listener plays every
    block as one and optimizes its mean loss over every message of the
    step, one loss node. The step is one tape and one ``backward``, then
    one ``update`` of every replica and the listener.
    """
    n_rep = len(replicas)
    lam = game_cfg.lam
    learners = [(rep.params, speaker_opt) for rep in replicas]
    learners.append((listener.params, listener_opt))
    for params, _ in learners:
        params.zero_grads()

    tape = Tape()
    trace = _play_round_traced(replicas, listener, dataset, game_cfg, rngs,
                               tape, settings.targets_per_replica)
    advs = group_advantages(trace, settings.standardize_advantages)
    # a row's tokens share -A / (length * B_w), B_w a replica's rows; past
    # its end the node is 0 and its rule drops the gradient: no mask needed
    per_row = -advs / trace.lengths.astype(F32) / F32(advs.size // n_rep)
    spk_nodes = [sequence_loss(tape, node, weights[:, None]) for node, weights
                 in zip(trace.logprobs, np.split(per_row, n_rep))]
    lst_node = sequence_loss(tape, trace.logp_target, F32(-1 / advs.size))
    total = T.mul(tape, lst_node, Tensor([lam]))
    for node in spk_nodes:
        total = T.add(tape, node, total)
    backward(tape, total)
    spk_values = [node.item() for node in spk_nodes]
    norms, scales = update(learners, settings.clip_norm,
                           spk_values + [lst_node.item()])

    speaker_mean = float(np.mean(spk_values))
    listener_mean = lst_node.item()
    return LossReport(
        speaker_loss=speaker_mean,
        listener_loss=listener_mean,
        joint_loss=speaker_mean + lam * listener_mean,
        mean_reward=float(np.mean(trace.rewards)),
        mean_indicator=solve_rate(trace.probs, trace.targets, 1),
        advantage_variance=float(np.mean(
            advantage_variance(advs, game_cfg.generations))),
        grad_norm_speaker=float(np.mean(norms[:-1])),
        grad_norm_listener=norms[-1],
        clip_scale_speaker=float(np.mean(scales[:-1])),
        clip_scale_listener=scales[-1],
    )


class Trainer:
    """Owns the agents, optimizers, and the deterministic step loop.

    Every per-step rng stream is derived from (run seed, worker id,
    step index), so resuming from a checkpoint continues the exact
    sequence an uninterrupted run would have produced. A K that the
    dataset cannot supply raises ``SamplingError``, and a model whose
    input layout does not fit the dataset's observations ``FormatError``,
    here, before any step runs or any file is written.
    """

    def __init__(self, dataset, game_cfg: GameConfig, model_cfg: ModelConfig,
                 settings: TrainSettings):
        check_candidate_count(dataset, game_cfg.k)
        dataset.spec.check_read_by(model_cfg.obs_dim, model_cfg.cells)
        self.dataset = dataset
        self.game_cfg = game_cfg
        self.settings = settings
        base = SpeakerPolicy.create(model_cfg, settings.seed)
        self.replicas = [base.copy() for _ in range(settings.replicas)]
        self.listener = ListenerModel.create(model_cfg, settings.seed,
                                             encoder=self.replicas[0])
        self.speaker_opt = Sgd(settings.lr_speaker)
        self.listener_opt = Adam(settings.lr_listener, self.listener.params)
        self.step_index = 0

    @property
    def speaker(self) -> SpeakerPolicy:
        return self.replicas[0]

    def _step_rngs(self):
        return [
            np.random.default_rng(
                np.random.SeedSequence(
                    [self.settings.seed, 0x7E9, w, self.step_index]))
            for w in range(len(self.replicas))
        ]

    def step_once(self) -> LossReport:
        report = train_step(self.replicas, self.listener, self.dataset,
                            self.game_cfg, self.settings, self.speaker_opt,
                            self.listener_opt, self._step_rngs())
        report.step = self.step_index
        self.step_index += 1
        period = self.settings.sync_period
        if period > 0 and self.step_index % period == 0:
            sync_replicas([rep.params for rep in self.replicas])
        return report

    def run(self, n_steps: int, metrics_fh=None, run_id: str = "run",
            checkpoint_dir=None, checkpoint_every: int = 0,
            stop_flag=None, on_report=None) -> list[LossReport]:
        """Take up to ``n_steps`` steps, fewer once ``stop_flag()`` is true,
        passing each report to ``on_report`` and to ``metrics_fh`` as a row
        tagged ``run_id``. With ``checkpoint_dir``, before the first step,
        every ``checkpoint_every`` steps and after the last, the rows are
        flushed, the state is written to ``latest.lgc.new`` there, and one
        worker thread renames it onto ``latest.lgc`` off the step. The next
        checkpoint, or the end of ``run``, raises a failed rename; a step
        error waits for the rename and stays the error raised. A crash
        leaves ``latest.lgc.new.tmp`` or a whole, newer ``latest.lgc.new``."""
        from concurrent.futures import ThreadPoolExecutor
        from .params import save_checkpoint
        import os
        reports = []

        def checkpoint(renamed):
            # rows first, so a resume finds every earlier step logged
            if metrics_fh is not None:
                metrics_fh.flush()
            if renamed is not None:  # the staged name is reused
                renamed.result()
            save_checkpoint(self.pack_state(), latest + ".new")
            return renamer.submit(os.replace, latest + ".new", latest)

        with ThreadPoolExecutor(max_workers=1) as renamer:
            if checkpoint_dir:
                os.makedirs(checkpoint_dir, exist_ok=True)
                latest = os.path.join(checkpoint_dir, "latest.lgc")
                renamed = checkpoint(None)
            for _ in range(n_steps):
                if stop_flag is not None and stop_flag():
                    break
                report = self.step_once()
                reports.append(report)
                if metrics_fh is not None:
                    metrics_fh.write(json.dumps(report.row(run_id)) + "\n")
                if on_report is not None:
                    on_report(report)
                if checkpoint_dir and checkpoint_every and \
                        self.step_index % checkpoint_every == 0:
                    renamed = checkpoint(renamed)
            if checkpoint_dir:
                checkpoint(renamed).result()
        return reports

    # -- checkpointable state ------------------------------------------------

    def _parts(self) -> list:
        """(prefix, params) of each part of the checkpoint layout: the
        agents' weights, then the listener's Adam moments. Beside them a
        checkpoint holds only two step counts: Adam's and the trainer's."""
        parts = [(f"replica{w}." if w else "speaker.", rep.params)
                 for w, rep in enumerate(self.replicas)]
        return parts + [("listener.", self.listener.params),
                        ("optim.listener.m.", self.listener_opt.m),
                        ("optim.listener.v.", self.listener_opt.v)]

    def pack_state(self) -> ParameterSet:
        state = ParameterSet()
        for prefix, params in self._parts():
            state.merged(prefix, params)
        state.add("optim.listener.t", Tensor([float(self.listener_opt.t)]))
        state.add("meta.step", Tensor([float(self.step_index)]))
        return state

    def load_state(self, state: ParameterSet) -> None:
        """Restore a checkpoint of exactly this trainer's ``pack_state``
        layout. Every entry is checked before any is taken: a missing,
        unexpected, misshapen or non-finite entry, or a step count that is
        not a whole number >= 0, raises ``FormatError`` naming it and
        leaves the trainer as it was. Then every part is copied in and
        both step counts are set."""
        check_layout(self.pack_state(), state, "")
        counts = ("optim.listener.t", "meta.step")
        for key in counts:
            if not is_count(state[key].data):
                raise FormatError(f"{key} is not a whole number >= 0")
        for prefix, params in self._parts():
            for name, t in params.items():
                t.data = state[prefix + name].data.copy()
        self.listener_opt.t, self.step_index = (
            int(state[key].data[0]) for key in counts)
