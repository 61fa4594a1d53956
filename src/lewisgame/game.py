"""Round assembly, shaped rewards and solve judging, over blocks of rounds.

One round: draw a target plus K-1 distractors, let the Speaker describe
the target G times, and score each message by the probability the
Listener assigns to the true candidate. That shaped reward is ``exp`` of
the listener's log-probability of the target, the same taped
log-softmax its loss backpropagates through; ``solve_rate`` at top 1
reads the 0/1 indicator (argmax hit) alongside it.

``play_rounds`` plays rounds once their candidates are drawn, for
training (sampled, taped) and evaluation (greedy, untaped) through one
path. Each speaker decodes its own block of rounds, a greedy one each
distinct target once, and the listener plays every block as one: one
call embeds every decoded message, one embeds each distinct candidate
scene once through the listener's one bound encoder, and one node
scores them all, so the tape holds the same nodes whatever the number
of rounds and of messages. It returns one ``RoundTrace``, one row per
message. Each row's reward is one advantage for all its tokens
(``training.group_advantages``), and ``solve_rate`` ranks every row at
once.

Reference captions are never read here; the game is fully unsupervised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .agents import ListenerModel
from .tensor import Tensor
from .world import Dataset, sample_game_batch


@dataclass
class GameConfig:
    """Round shape: candidate count, loss weight, generations, length.

    This is the ``[game]`` section of a run config.
    """

    k: int = 64
    lam: float = 1.0
    generations: int = 5
    t_max: int = 12

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("K must be at least 2")
        if not 0 <= self.lam < np.inf:
            raise ValueError("lambda must be finite and non-negative")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.t_max < 1:
            raise ValueError("t_max must be at least 1")


@dataclass
class RoundTrace:
    """Played rounds as one record: B rows, block-major, then round-major
    (each round's G generations in a row), and the tape handles the
    trainer consumes. Row b is message ``messages[b]`` played against its
    round's candidates, all seen through the listener's bound encoder;
    its reward is ``probs[b, targets[b]]``."""

    messages: list       # B MessageSamples
    targets: np.ndarray  # (B,) target positions among the K candidates
    probs: np.ndarray    # (B, K) listener probabilities
    generations: int
    logprobs: tuple      # each block's (B_w, T) token log-probs, 0 past ends
    logp_target: Tensor  # (B, 1) listener log-probs at the targets; None
    #                      when played without a tape

    @property
    def rewards(self) -> np.ndarray:
        """(B,) shared rewards, the targets' probabilities, in float64."""
        return self.probs[np.arange(self.targets.size),
                          self.targets].astype(np.float64)

    @property
    def lengths(self) -> np.ndarray:
        """(B,) message lengths in tokens."""
        return np.array([m.length for m in self.messages])


def play_rounds(blocks, listener: ListenerModel, inputs: np.ndarray,
                generations: int, t_max: int, tape=None) -> RoundTrace:
    """Play drawn rounds: ``generations`` messages per round, one
    ``RoundTrace`` of every block, one row per message.

    ``blocks`` holds one ``(speaker, scenes, targets, rng)`` per speaker.
    ``inputs`` holds every scene's model input, one per row; a block's
    round n has the K candidates ``scenes[n]`` and the target
    ``targets[n]``. Each block's speaker describes its rounds' targets
    ``generations`` times in one ``SpeakerPolicy.sample`` call with the
    block's rng. A greedy block (rng None) describes each distinct target
    scene once, since its messages depend on the target alone, and one
    ``T.embedding`` node gathers its log-probs back to one row per round.
    The listener then embeds the decoded messages in one
    ``embed_message`` call, gathered the same way when a block is greedy,
    and the M distinct candidate scenes of all rounds in one
    ``embed_images`` call through its bound encoder. One ``log_probs``
    node scores each message against all M and takes its round's K
    columns, so memory is bounded by the scenes drawn, not by K × rounds;
    on a tape a scene that several rounds share sums their gradients, and
    one ``T.take_cols`` node holds each row's target log-prob.
    """
    decoded, samples, logprobs, rows = [], [], [], []
    for speaker, scenes, targets, rng in blocks:
        shown = scenes[np.arange(targets.size), targets]
        firsts = np.arange(targets.size)
        if rng is None:  # each round's row of the distinct targets' block
            shown, firsts = np.unique(shown, return_inverse=True)
        block, node = speaker.sample(inputs[shown], t_max, generations, rng,
                                     tape)
        picks = (firsts[:, None] * generations
                 + np.arange(generations)).ravel()
        rows.append(len(decoded) + picks)
        decoded += block
        samples += [block[i] for i in picks]
        logprobs.append(node if rng is not None
                        else T.embedding(tape, node, picks))
    v_msgs = listener.embed_message([s.tokens for s in decoded], tape)
    if any(rng is None for *_, rng in blocks):
        v_msgs = T.embedding(tape, v_msgs, np.concatenate(rows))
    _, scenes, targets, _ = zip(*blocks)
    scenes = np.concatenate(scenes)
    targets = np.repeat(np.concatenate(targets), generations)
    distinct, slots = np.unique(scenes.ravel(), return_inverse=True)
    node = listener.log_probs(
        v_msgs, listener.embed_images(inputs[distinct], tape),
        np.repeat(slots.reshape(scenes.shape), generations, axis=0), tape)
    logp_target = None if tape is None else T.take_cols(tape, node,
                                                        targets[:, None])
    return RoundTrace(samples, targets, np.exp(node.data), generations,
                      tuple(logprobs), logp_target)


def _play_round_traced(speakers, listener: ListenerModel, dataset: Dataset,
                       config: GameConfig, rngs, tape=None,
                       n_rounds: int = 1) -> RoundTrace:
    """Draw ``n_rounds`` training rounds' candidates for each speaker, from
    its own rng of ``rngs``, then play them: one block per speaker."""
    blocks = [(speaker, *sample_game_batch(dataset, config.k, n_rounds, rng),
               rng) for speaker, rng in zip(speakers, rngs)]
    return play_rounds(blocks, listener, dataset.model_inputs(),
                       config.generations, config.t_max, tape)


def solve_rate(probs: np.ndarray, targets: np.ndarray, top_n: int) -> float:
    """Fraction of rows of (B, K) ``probs`` whose target ranks in the top N.

    Ties rank toward the lower index, so results are deterministic.
    """
    n, k = probs.shape
    if top_n > k:
        raise ValueError(f"top_n={top_n} exceeds K={k}")
    pk = probs[np.arange(n), targets][:, None]
    rank = (1 + (probs > pk).sum(axis=1)
            + ((probs == pk) & (np.arange(k) < targets[:, None])).sum(axis=1))
    return int((rank <= top_n).sum()) / n
