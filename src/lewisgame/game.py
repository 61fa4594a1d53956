"""Round assembly, shaped rewards, discounted credit, and solve judging.

One round: draw a target plus K-1 distractors, let the Speaker describe
the target G times, and score each message by the probability the
Listener assigns to the true candidate. That shaped reward is ``exp`` of
the listener's log-probability of the target, the same taped
log-softmax its loss backpropagates through; the 0/1 indicator (argmax
hit) is kept alongside it.

``play_rounds`` plays rounds once their candidates are drawn, for
training (sampled, taped) and evaluation (one greedy message per round,
untaped) alike. Every message of the rounds it plays is decoded as one
block and embedded by the listener as one block, so the tape holds the
same nodes whatever the number of rounds and of messages per round.
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
from .tensor import F32, Tensor
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
    """Played rounds: their episodes, round-major (each round's G
    generations in a row), and the tape handles the trainer consumes."""

    episodes: list
    generations: int
    logprobs: Tensor     # (B, T) chosen-token log-probs, 0 past each end
    logp_target: Tensor  # (B, 1) listener log-probs at the targets; None
    #                      when played without a tape

    def groups(self) -> list:
        """The episodes of each round, in order."""
        g = self.generations
        return [self.episodes[i:i + g]
                for i in range(0, len(self.episodes), g)]


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


def _score(speaker: SpeakerPolicy, listener: ListenerModel,
           inputs: np.ndarray, batches, v_msgs: Tensor, tape) -> Tensor:
    """(n·G, K) listener log-probs of the n rounds in ``batches``, given
    their messages' (n·G, d_o) summaries, round-major."""
    n, k = len(batches), batches[0].scene_indices.size
    v_imgs = listener.embed_images(
        inputs[np.concatenate([b.scene_indices for b in batches])], tape,
        encoder=speaker)
    d = v_imgs.shape[1]
    return listener.log_probs(
        T.reshape(tape, v_msgs, (n, v_msgs.shape[0] // n, d)),
        T.reshape(tape, v_imgs, (n, k, d)), tape)


def play_rounds(speaker: SpeakerPolicy, listener: ListenerModel,
                inputs: np.ndarray, batches, generations: int, t_max: int,
                rng, temperature: float = 1.0, tape=None) -> RoundTrace:
    """Play drawn rounds: ``generations`` episodes per round.

    ``inputs`` holds every scene's model input, one per row, and each
    ``GameBatch`` of ``batches`` names a round's K candidate rows and its
    target. One ``SpeakerPolicy.sample`` call describes every round's
    target ``generations`` times, and one ``embed_message`` call embeds
    all those messages. Taped, every round's candidates are embedded and
    scored as one block, since the tape keeps all their activations
    anyway; untaped, round by round, so that memory does not grow with
    K × rounds. Temperature 0 decodes greedily and needs no ``rng``.
    """
    targets = [b.scene_indices[b.target_pos] for b in batches]
    samples, logprobs = speaker.sample(inputs[targets], t_max, temperature,
                                       generations, rng, tape)
    v_msgs = listener.embed_message([s.tokens for s in samples], tape)
    g = generations
    if tape is None:
        logp = np.concatenate([
            _score(speaker, listener, inputs, [b],
                   Tensor(v_msgs.nd()[i * g:(i + 1) * g]), None).nd()
            for i, b in enumerate(batches)])
        logp_target = None
    else:
        node = _score(speaker, listener, inputs, batches, v_msgs, tape)
        logp = node.nd()
        logp_target = T.gather_cols(
            tape, node, np.repeat([b.target_pos for b in batches], g))
    episodes = [make_episode(batches[i // g].target_pos, sample,
                             np.exp(logp[i]))
                for i, sample in enumerate(samples)]
    return RoundTrace(episodes, g, logprobs, logp_target)


def _play_round_traced(speaker: SpeakerPolicy, listener: ListenerModel,
                       dataset: Dataset, config: GameConfig, rng,
                       temperature: float = 1.0, tape=None,
                       n_rounds: int = 1) -> RoundTrace:
    """Draw ``n_rounds`` training rounds' candidates, then play them."""
    batches = [sample_game_batch(dataset, config.k, rng)
               for _ in range(n_rounds)]
    return play_rounds(speaker, listener, dataset.model_inputs(), batches,
                       config.generations, config.t_max, rng, temperature,
                       tape)


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
