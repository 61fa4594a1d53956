"""Round assembly, shaped rewards and solve judging, over blocks of rounds.

One round: draw a target plus K-1 distractors, let the Speaker describe
the target G times, and score each message by the probability the
Listener assigns to the true candidate. That shaped reward is ``exp`` of
the listener's log-probability of the target, the same taped
log-softmax its loss backpropagates through; ``solve_rate`` at top 1
reads the 0/1 indicator (argmax hit) alongside it.

``play_rounds`` plays rounds once their candidates are drawn, for
training (sampled, taped) and evaluation (one greedy message per round,
untaped) through one path. It plays one block of rounds per speaker:
each speaker decodes its block's messages as one block, the listener
embeds the messages of every block as one block, and each block embeds
its distinct candidate scenes once, so the tape holds the same nodes
whatever the number of rounds and of messages per round. It returns one
``RoundTrace`` per block, the one record of that played block: one row
per message, with its target, the listener's probabilities and its
log-probs as arrays and tape nodes over the block. Each row's reward
is one advantage for all its tokens (``training.group_advantages``),
and ``solve_rate`` ranks every row at once.

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
    """Played rounds as one block record: B rows, round-major (each
    round's G generations in a row), and the tape handles the trainer
    consumes. Row b is message ``messages[b]`` played against its round's
    candidates; its reward is ``probs[b, targets[b]]``."""

    messages: list       # B MessageSamples
    targets: np.ndarray  # (B,) target positions among the K candidates
    probs: np.ndarray    # (B, K) listener probabilities
    generations: int
    logprobs: Tensor     # (B, T) chosen-token log-probs, 0 past each end
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
                generations: int, t_max: int, tape=None) -> list[RoundTrace]:
    """Play drawn rounds: ``generations`` messages per round, one
    ``RoundTrace`` per block and one row of it per message.

    ``blocks`` holds one ``(speaker, scenes, targets, rng)`` per speaker.
    ``inputs`` holds every scene's model input, one per row; a block's
    round n has the K candidates ``scenes[n]`` and the target
    ``targets[n]``. Each block's speaker describes its rounds' targets
    ``generations`` times in one ``SpeakerPolicy.sample`` call with the
    block's rng, and one ``embed_message`` call embeds the messages of
    every block. Each block embeds its M distinct candidate scenes once,
    with its own speaker's encoder, scores each of its messages against
    all M in one inner product and takes each row's K columns, so memory
    is bounded by the scenes drawn, not by K × rounds; on a tape a scene
    that several rounds share sums their gradients. A block takes its own
    rows of the message summaries by ``T.embedding``, and on a tape its
    row b's target log-prob by ``T.take_cols``. A block whose rng is
    None decodes greedily.
    """
    sampled = [speaker.sample(inputs[scenes[np.arange(targets.size), targets]],
                              t_max, generations, rng, tape)
               for speaker, scenes, targets, rng in blocks]
    v_msgs = listener.embed_message(
        [s.tokens for samples, _ in sampled for s in samples], tape)
    traces, start = [], 0
    for (speaker, scenes, targets, _), (samples, logprobs) in zip(blocks,
                                                                  sampled):
        rows = np.arange(start, start + len(samples))
        start += len(samples)
        distinct, slots = np.unique(scenes.ravel(), return_inverse=True)
        node = listener.log_probs(
            T.embedding(tape, v_msgs, rows),
            listener.embed_images(inputs[distinct], tape, encoder=speaker),
            np.repeat(slots.reshape(scenes.shape), generations, axis=0), tape)
        row_targets = np.repeat(targets, generations)
        logp_target = None if tape is None else T.take_cols(
            tape, node, row_targets[:, None])
        traces.append(RoundTrace(samples, row_targets, np.exp(node.data),
                                 generations, logprobs, logp_target))
    return traces


def _play_round_traced(speakers, listener: ListenerModel, dataset: Dataset,
                       config: GameConfig, rngs, tape=None,
                       n_rounds: int = 1) -> list[RoundTrace]:
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
