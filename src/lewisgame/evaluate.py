"""Caption and game metrics, plus the sweep harness.

BLEU here is sentence-level: each round's message is scored against its
target's captions by clipped n-gram precision, geometric mean over
orders 1..n, and a brevity penalty exp(1 - r/c) when the candidate is
shorter than the closest reference. ``bleu1``-``bleu4`` are the means
of those scores over rounds, not corpus BLEU, which pools n-gram counts
and lengths before dividing. Zero precisions are replaced by epsilon =
1e-9; short messages over a tiny vocabulary hit zero higher-order counts
constantly, so the smoothing choice is pinned rather than left to a
library default.

Attribute coverage (fraction of the target scene's attribute words that
appear in the message) is the primary emergence signal at this scale;
BLEU against short templates saturates quickly.
"""

from __future__ import annotations

import math
from collections import Counter
from copy import deepcopy
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .agents import ListenerModel, SpeakerPolicy
from .config import ConfigError, RunConfig
from .game import play_rounds, solve_rate
from .world import EOS, Dataset, sample_game_batch

BLEU_EPS = 1e-9


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _closest_ref_len(c: int, references) -> int:
    return min((len(r) for r in references),
               key=lambda rl: (abs(rl - c), rl))


@lru_cache(maxsize=1024)
def _reference_maxima(references: tuple, max_n: int) -> tuple:
    """For n = 1..max_n, a dict of each n-gram's largest count in any of
    ``references`` (a tuple of token tuples), which clips by lookup.
    Cached, since evaluation scores every round against its target
    scene's few captions; callers share the tables and only read them."""
    tables = []
    for n in range(1, max_n + 1):
        best = Counter()
        for ref in references:
            best |= _ngram_counts(ref, n)
        tables.append(best)
    return tuple(tables)


def bleu(candidate, references, max_n: int = 4) -> list[float]:
    """BLEU-1..max_n of one candidate against one or more references."""
    candidate = list(candidate)
    references = tuple(tuple(r) for r in references)
    if not candidate:
        raise ValueError("bleu: candidate must be non-empty")
    if not references:
        raise ValueError("bleu: need at least one reference")
    c = len(candidate)
    r = _closest_ref_len(c, references)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    maxima = _reference_maxima(references, max_n)
    precisions = []
    for n in range(1, max_n + 1):
        total = c - n + 1
        if total <= 0:
            precisions.append(BLEU_EPS)
            continue
        clipped = sum(min(k, maxima[n - 1].get(gram, 0))
                      for gram, k in _ngram_counts(candidate, n).items())
        precisions.append(clipped / total if clipped else BLEU_EPS)
    scores = []
    for n in range(1, max_n + 1):
        log_mean = sum(math.log(p) for p in precisions[:n]) / n
        scores.append(bp * math.exp(log_mean))
    return scores


def attribute_coverage(message_ids, scene, vocab) -> float:
    """Fraction of the scene's attribute words present in the message."""
    attrs = scene.attribute_words()
    if not attrs:
        raise ValueError("attribute_coverage: scene has no objects")
    words = set(vocab.decode(message_ids))
    return len(attrs & words) / len(attrs)


def ema(values, alpha: float) -> np.ndarray:
    """Exponential moving average; alpha=1 reproduces the input."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("ema: alpha must lie in (0, 1]")
    values = np.asarray(values, np.float64)
    out = np.empty_like(values)
    acc = 0.0
    for i, x in enumerate(values):
        acc = x if i == 0 else alpha * x + (1.0 - alpha) * acc
        out[i] = acc
    return out


# EvalReport's metrics, in the order rows and printouts list them
EVAL_METRICS = ("bleu1", "bleu2", "bleu3", "bleu4", "coverage", "top1",
                "top10", "mean_length")


@dataclass
class EvalReport:
    """Greedy-decoding metrics over a batch of evaluation rounds.

    ``mean_length`` counts message tokens before the end marker.
    """

    bleu1: float
    bleu2: float
    bleu3: float
    bleu4: float
    coverage: float
    top1: float
    top10: float
    mean_length: float
    n_rounds: int
    k: int

    def row(self, run_id: str = "eval", step: int = -1, seed: int = -1) -> dict:
        return {
            "run_id": run_id, "step": step, "k": self.k, "seed": seed,
            **{name: getattr(self, name) for name in EVAL_METRICS},
            "n_rounds": self.n_rounds,
        }


def _strip_eos(tokens) -> list[int]:
    out = []
    for t in tokens:
        if t == EOS:
            break
        out.append(t)
    return out


def evaluate_agents(speaker: SpeakerPolicy, listener: ListenerModel,
                    dataset: Dataset, k: int, n_rounds: int = 200,
                    t_max: int = 12, seed: int = 0) -> EvalReport:
    """Play evaluation rounds and aggregate caption/game metrics.

    Every round's K candidates are drawn first; the rounds are then
    played through ``game.play_rounds``, as training plays them, as a
    single block of ``speaker``: one message per round decoded greedily
    (argmax), no tape and no rng, all ``n_rounds`` messages embedded by
    the listener as one block and each distinct candidate scene embedded
    once. Deterministic given (parameters, dataset, seed, n_rounds):
    distractor draws come from a fresh seeded stream.
    """
    if n_rounds < 1:
        raise ValueError(f"evaluate_agents: n_rounds must be >= 1, got "
                         f"{n_rounds}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
    scenes, targets = sample_game_batch(dataset, k, n_rounds, rng)
    (trace,) = play_rounds([(speaker, scenes, targets, None)], listener,
                           dataset.model_inputs(), 1, t_max)
    bleus, coverages, lengths = [], [], []
    for target, message in zip(scenes[np.arange(n_rounds), targets],
                               trace.messages):
        content = _strip_eos(message.tokens)
        lengths.append(len(content))
        bleus.append(bleu(content, dataset.captions[target], 4) if content
                     else [0.0, 0.0, 0.0, 0.0])
        coverages.append(attribute_coverage(content, dataset.scenes[target],
                                            dataset.vocab))
    bleus = np.asarray(bleus)
    return EvalReport(
        bleu1=float(bleus[:, 0].mean()),
        bleu2=float(bleus[:, 1].mean()),
        bleu3=float(bleus[:, 2].mean()),
        bleu4=float(bleus[:, 3].mean()),
        coverage=float(np.mean(coverages)),
        top1=solve_rate(trace.probs, trace.targets, 1),
        top10=solve_rate(trace.probs, trace.targets, min(10, k)),
        mean_length=float(np.mean(lengths)),
        n_rounds=n_rounds,
        k=k,
    )


# ---------------------------------------------------------------------------
# ablation sweep


def _sweep_cell(cfg: RunConfig) -> dict:
    splits = cfg.world_splits()
    trainer = cfg.trainer(splits["train"])
    reports = trainer.run(cfg.train.steps)
    report = evaluate_agents(trainer.speaker, trainer.listener,
                             splits["val"], k=cfg.game.k,
                             n_rounds=cfg.eval.rounds, t_max=cfg.game.t_max,
                             seed=cfg.eval.seed)
    tail = [r.mean_reward for r in reports[len(reports) * 4 // 5:]]
    return {"k": cfg.game.k, "seed": cfg.train.seed, "report": report,
            "train_reward": float(np.mean(tail)) if tail else None}


def _cell_outcome(cell: RunConfig, result) -> dict:
    try:
        return result()
    except Exception as exc:  # noqa: BLE001 - per-cell isolation
        return {"k": cell.game.k, "seed": cell.train.seed, "error": str(exc)}


def ablation_sweep(cfg: RunConfig, k_list, seeds,
                   workers: int = 1) -> list[dict]:
    """Train a fresh run per (K, seed) cell and evaluate each one.

    A cell is a copy of ``cfg`` with ``game.k`` and ``train.seed`` set. Its
    world is the train and val splits of ``cfg.world``; it trains for
    ``train.steps`` steps and is evaluated for ``eval.rounds`` rounds on
    the val split, seeded by ``eval.seed``, so a config with no val
    scenes raises ``ConfigError`` before any cell runs. Cell failures are
    recorded, not raised, so one bad cell cannot sink a sweep. ``workers``
    above 1 runs the cells in a process pool of at most one process per
    cell.
    Returns one dict per cell: an error, or a report and ``train_reward``,
    the mean ``mean_reward`` over its last fifth of steps (None if no steps).
    """
    if cfg.world.val_scenes == 0:
        raise ConfigError("sweep: [world] val_scenes must be at least 1, "
                          "since each cell is evaluated on the val split")
    cells = []
    for k in k_list:
        for seed in seeds:
            # set, not ``replace``d, so a bad K fails in its own cell
            cell = deepcopy(cfg)
            cell.game.k, cell.train.seed = k, seed
            cells.append(cell)
    if workers <= 1:
        return [_cell_outcome(c, partial(_sweep_cell, c)) for c in cells]
    # imported here: it loads multiprocessing, about 2 MB of resident
    # memory that a process which never sweeps does not need
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        futures = [pool.submit(_sweep_cell, c) for c in cells]
        return [_cell_outcome(c, f.result) for c, f in zip(cells, futures)]


def sweep_summary(cells) -> dict:
    """Mean and std per K of each metric and of ``train_reward``,
    skipping failed cells, and cells without a train reward for it; a K
    with no train reward has no ``train_reward`` entry."""
    by_k: dict[int, list] = {}
    for cell in cells:
        if "report" in cell:
            by_k.setdefault(cell["k"], []).append(cell)
    out = {}
    for k, done in sorted(by_k.items()):
        columns = {name: [getattr(c["report"], name) for c in done]
                   for name in EVAL_METRICS}
        columns["train_reward"] = [c["train_reward"] for c in done
                                   if c["train_reward"] is not None]
        out[k] = {name: {"mean": float(np.mean(vals)),
                         "std": float(np.std(vals))}
                  for name, vals in columns.items() if vals}
    return out
