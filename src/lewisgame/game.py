"""Round assembly, shaped rewards, discounted credit, and solve judging.

One round: draw a target plus K-1 distractors, let the Speaker describe
the target G times, and score each message by the probability the
Listener assigns to the true candidate. That shaped reward is ``exp`` of
the listener's log-probability of the target, the same taped
log-softmax its loss backpropagates through; the 0/1 indicator (argmax
hit) is kept alongside it.

``play_round`` plays a round once its candidates are drawn, for training
(sampled, taped) and evaluation (one greedy message, untaped) alike.
Rewards are spread backward over message tokens as discounted
rewards-to-go by ``training.group_advantages``, the one place that
discounts.

Reference captions are never read here; the game is fully unsupervised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .agents import ListenerModel, MessageSample, SpeakerPolicy
from .tensor import F32
from .world import Dataset, sample_game_batch


@dataclass
class GameConfig:
    """Round shape: candidate count, discount, loss weight, generations.

    This is the ``[game]`` section of a run config.
    """

    k: int = 64
    gamma: float = 0.95
    lam: float = 1.0
    generations: int = 5
    t_max: int = 12

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("K must be at least 2")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")


@dataclass(frozen=True)
class GameEpisode:
    """One message played against one candidate set."""

    target: int
    message: MessageSample
    probs: np.ndarray
    reward: float
    indicator: int


@dataclass
class RoundTrace:
    """One played round: its episodes and the tape handles the trainer
    consumes (untaped when the round was played without a tape)."""

    episodes: list
    logprob_nodes: list      # per episode: (T,1) chosen-token log-probs
    logp_target_nodes: list  # per episode: (1,1) listener log-prob at target


def rewards_to_go(reward: float, length: int, gamma: float) -> np.ndarray:
    """Discounted credit per step: out[t-1] = gamma^(T-t) * R.

    Built by backward multiplication so out[t] == gamma * out[t+1]
    holds exactly in float32 and the final entry equals R.
    """
    if length < 1:
        raise ValueError("rewards_to_go: length must be >= 1")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("rewards_to_go: gamma must lie in [0, 1)")
    out = np.empty(length, F32)
    out[length - 1] = F32(reward)
    g = F32(gamma)
    for t in range(length - 2, -1, -1):
        out[t] = g * out[t + 1]
    return out


def make_episode(target: int, message: MessageSample,
                 probs: np.ndarray) -> GameEpisode:
    return GameEpisode(target=target, message=message, probs=probs,
                       reward=float(probs[target]),
                       indicator=int(int(np.argmax(probs)) == target))


def play_round(speaker: SpeakerPolicy, listener: ListenerModel,
               candidates: np.ndarray, target: int, generations: int,
               t_max: int, rng, temperature: float = 1.0,
               tape=None) -> RoundTrace:
    """Play one round over drawn candidates: G episodes sharing a target.

    ``candidates`` holds the K candidates' model inputs, one per row, and
    ``target`` is the target's row. The speaker describes the target
    ``generations`` times; temperature 0 decodes greedily and needs no
    ``rng``.
    """
    samples, node_lists = speaker.sample(candidates[target], t_max,
                                         temperature, generations, rng, tape)
    v_imgs = listener.embed_images(candidates, tape, encoder=speaker)
    episodes, logp_targets = [], []
    for sample in samples:
        logp = listener.log_probs(sample.tokens, v_imgs, tape)
        episodes.append(make_episode(target, sample, np.exp(logp.data)))
        logp_targets.append(T.gather_cols(tape, logp, [target]))
    return RoundTrace(episodes, node_lists, logp_targets)


def _play_round_traced(speaker: SpeakerPolicy, listener: ListenerModel,
                       dataset: Dataset, config: GameConfig, rng,
                       temperature: float = 1.0, tape=None) -> RoundTrace:
    """Draw a training round's candidates, then play it."""
    batch = sample_game_batch(dataset, config.k, rng)
    return play_round(speaker, listener,
                      dataset.model_inputs()[batch.scene_indices],
                      batch.target_pos, config.generations, config.t_max,
                      rng, temperature, tape)


def solve_rate(episodes, top_n: int) -> float:
    """Fraction of episodes whose target ranks in the listener's top N.

    Ties rank toward the lower index, so results are deterministic.
    """
    if not episodes:
        return 0.0
    solved = 0
    for ep in episodes:
        p = ep.probs
        if top_n > p.size:
            raise ValueError(f"top_n={top_n} exceeds K={p.size}")
        pk = p[ep.target]
        rank = 1 + int((p > pk).sum()) + int((p[:ep.target] == pk).sum())
        solved += rank <= top_n
    return solved / len(episodes)
