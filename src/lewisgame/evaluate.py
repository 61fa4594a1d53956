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

Both scores run on arrays: a batch of messages is a (B, T) token array
and each row's content length, its tokens before <eos>. Row b is scored
against one scene's entry of a ``References`` table: each of its
captions' n-grams (as integer codes) at its largest count in any one
caption, the captions' lengths and the scene's attribute-word ids. A
dataset's table is built whole, in arrays, on its first scoring and kept.
BLEU's logs and exps run in ``math``, once per distinct value, since
numpy's vectorised ones may differ from libm's in the last bit; so the
scores equal a per-round loop's bit for bit.
"""

from __future__ import annotations

import math
from copy import deepcopy
from dataclasses import dataclass
from functools import partial

import numpy as np

from .agents import ListenerModel, SpeakerPolicy
from .config import ConfigError, RunConfig
from .game import play_rounds, solve_rate
from .tensor import check_index
from .world import EOS, Dataset, sample_game_batch

BLEU_EPS = 1e-9
BLEU_N = 4  # the highest n-gram order scored
_TOKEN_BITS = 8  # an n-gram's code is its token ids' base-2^8 number
_FAR = 1 << 30  # pads caption lengths, so that no pad is the closest


def _messages(name: str, tokens, lengths) -> tuple:
    """``tokens`` as a (B, T) array of ids below 2^8 and ``lengths`` as
    one content length per row, each from 0 to T; anything else raises."""
    tokens = np.asarray(tokens, np.intp)
    lengths = np.asarray(lengths, np.intp)
    width = tokens.shape[1]
    if lengths.shape != tokens.shape[:1] or (
            (lengths < 0) | (lengths > width)).any():
        raise ValueError(f"{name}: lengths must be one per row, each from 0 "
                         f"to the row width {width}")
    check_index(name, tokens, 1 << _TOKEN_BITS)
    return tokens, lengths


def _grams(tokens: np.ndarray, lengths: np.ndarray) -> tuple:
    """Each n-gram (n = 1..BLEU_N) in row b's first ``lengths[b]`` tokens,
    as arrays of its row, n - 1 and code: its ids' base-2^8 number, below
    2^32. A key puts a group (row or scene) * BLEU_N + n - 1 above that."""
    width = tokens.shape[1]
    codes = np.full((len(tokens), BLEU_N, width), -1, np.int64)
    codes[:, 0] = tokens
    for j in range(1, min(BLEU_N, width)):
        codes[:, j, :-j] = (codes[:, j - 1, :-j] << _TOKEN_BITS) | tokens[:, j:]
    live = np.arange(width) < (lengths[:, None] - np.arange(BLEU_N))[:, :, None]
    row, order, _ = np.nonzero(live)
    return row, order, codes[live]


def _pad(rows, fill) -> np.ndarray:
    """Integer rows of any lengths as one array, padded with ``fill``."""
    sizes = np.array([len(r) for r in rows], np.intp)
    out = np.full((len(rows), sizes.max(initial=0)), fill, np.intp)
    out[np.arange(out.shape[1]) < sizes[:, None]] = [v for r in rows for v in r]
    return out


class References:
    """What ``bleu`` and ``attribute_coverage`` score against: scene s's
    captions ``captions[s]`` (token-id sequences, at least one) and its
    attribute-word ids ``attributes[s]``, built whole in one pass and
    never changed. Scene s's entry is each distinct n-gram's largest count
    in any one caption, for n = 1..BLEU_N, in one sorted array of keys
    over all scenes; its captions' lengths, as row s of ``lengths``
    (padded with a length far from any message's); and its attribute ids,
    as row s of ``attributes`` (padded with -1)."""

    def __init__(self, captions, attributes):
        per_scene = np.array([len(c) for c in captions], np.intp)
        if not per_scene.all():
            raise ValueError(f"references: scene {per_scene.argmin()} has "
                             f"no captions")
        flat = [caption for scene in captions for caption in scene]
        row, order, codes = _grams(*_messages(
            "references", _pad(flat, 0), [len(c) for c in flat]))
        keys = (np.repeat(np.arange(len(captions)), per_scene)[row] * BLEU_N
                + order) << 32 | codes
        # each key's count in each caption, from runs of (key, caption)
        by = np.lexsort((row, keys))
        keys, row = keys[by], row[by]
        runs = np.flatnonzero((np.diff(keys, prepend=-1) != 0)
                              | (np.diff(row, prepend=-1) != 0))
        keys, counts = keys[runs], np.diff(runs, append=len(by))
        firsts = np.flatnonzero(np.diff(keys, prepend=-1))
        # sorted n-gram keys, ended by one above every key
        self._keys = np.append(keys[firsts], np.iinfo(np.int64).max)
        self._maxima = np.append(np.maximum.reduceat(counts, firsts), 0)
        self.lengths = _pad([[len(c) for c in s] for s in captions], _FAR)
        self.attributes = _pad(attributes, -1)

    def maxima(self, keys: np.ndarray) -> np.ndarray:
        """Each n-gram key's largest count in any one caption of its
        scene, 0 for an n-gram in none."""
        at = np.searchsorted(self._keys, keys)
        return np.where(self._keys[at] == keys, self._maxima[at], 0)


def references(dataset: Dataset) -> References:
    """``dataset``'s ``References``, made on its first scoring and kept."""
    if "_references" not in vars(dataset):
        dataset._references = References(dataset.captions,
                                         dataset.attribute_ids())
    return dataset._references


def _libm(f, x: np.ndarray) -> np.ndarray:
    """``f`` (``math.log`` or ``math.exp``) of each entry of a float64
    array, called once per distinct value."""
    values, which = np.unique(x, return_inverse=True)
    return np.array([f(v) for v in values.tolist()])[which].reshape(x.shape)


def bleu(tokens: np.ndarray, lengths: np.ndarray, refs: References,
         scenes: np.ndarray) -> np.ndarray:
    """(B, BLEU_N) BLEU-1..BLEU_N of each row of a (B, T) token array.

    Row b's candidate is its first ``lengths[b]`` tokens, scored against
    the captions of scene ``scenes[b]`` of ``refs``; a row with no
    content scores 0 at every order. Each distinct n-gram of a row counts
    as often as it occurs, at most its largest count in any one caption.
    Token ids must lie below 2^8.
    """
    tokens, c = _messages("bleu", tokens, lengths)
    scenes = np.asarray(scenes, np.intp)
    # the closest caption length, the shorter of two equally close
    ref_lengths = refs.lengths[scenes]
    gap = np.abs(ref_lengths - c[:, None])
    r = np.where(gap == gap.min(axis=1, keepdims=True), ref_lengths,
                 _FAR).min(axis=1)
    total = c[:, None] - np.arange(BLEU_N)  # (B, BLEU_N) n-grams per row
    row, order, codes = _grams(tokens, c)
    grams, first, counts = np.unique((row * BLEU_N + order) << 32 | codes,
                                     return_index=True, return_counts=True)
    allowed = refs.maxima((scenes[row[first]] * BLEU_N + order[first]) << 32
                          | codes[first])
    clipped = np.bincount(grams >> 32, np.minimum(counts, allowed),
                          total.size).reshape(total.shape)
    precisions = np.where(clipped > 0, clipped / np.maximum(total, 1),
                          BLEU_EPS)
    # log means summed left to right, as a loop over orders adds them,
    # and beside them the brevity penalty's exponent
    exps = _libm(math.exp, np.column_stack((
        np.cumsum(_libm(math.log, precisions), axis=1)
        / np.arange(1, BLEU_N + 1), 1.0 - r / np.maximum(c, 1))))
    bp = np.where(c < r, exps[:, BLEU_N], 1.0)
    return np.where(c[:, None] > 0, bp[:, None] * exps[:, :BLEU_N], 0.0)


def attribute_coverage(tokens: np.ndarray, lengths: np.ndarray,
                       refs: References, scenes: np.ndarray) -> np.ndarray:
    """(B,) fraction of scene ``scenes[b]``'s attribute words among the
    first ``lengths[b]`` tokens of row b of a (B, T) token array. Token
    ids must lie below 2^8."""
    tokens, lengths = _messages("attribute_coverage", tokens, lengths)
    attributes = refs.attributes[np.asarray(scenes, np.intp)]
    n_words = (attributes >= 0).sum(axis=1)
    if not n_words.all():
        raise ValueError("attribute_coverage: scene has no objects")
    said = np.where(np.arange(tokens.shape[1]) < lengths[:, None], tokens, -2)
    found = (said[:, None, :] == attributes[:, :, None]).any(axis=2)
    return found.sum(axis=1) / n_words


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


def evaluate_agents(speaker: SpeakerPolicy, listener: ListenerModel,
                    dataset: Dataset, k: int, n_rounds: int = 200,
                    t_max: int = 12, seed: int = 0) -> EvalReport:
    """Play evaluation rounds and aggregate caption/game metrics.

    Every round's K candidates are drawn first; the rounds are then
    played through ``game.play_rounds``, as training plays them, as a
    single greedy block of ``speaker``: no tape and no rng, so each
    distinct target scene is decoded once and its message embedded once,
    and the listener embeds each distinct candidate scene once through
    its bound encoder. Scoring reads the messages as one token array:
    one ``bleu`` and one ``attribute_coverage`` call score each distinct
    target's message against the dataset's ``references``, and every
    round takes its target's scores. Deterministic given (parameters,
    dataset, seed, n_rounds): distractor draws come from a fresh seeded
    stream.
    """
    if n_rounds < 1:
        raise ValueError(f"evaluate_agents: n_rounds must be >= 1, got "
                         f"{n_rounds}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
    scenes, targets = sample_game_batch(dataset, k, n_rounds, rng)
    trace = play_rounds([(speaker, scenes, targets, None)], listener,
                        dataset.model_inputs(), 1, t_max)
    # a greedy message depends on its target alone, so each distinct
    # target's is scored once, in a row one column longer than any
    # message so that every row holds <eos>
    shown, first, which = np.unique(scenes[np.arange(n_rounds), targets],
                                    return_index=True, return_inverse=True)
    tokens = np.full((shown.size, t_max + 1), EOS, np.intp)
    for row, n in zip(tokens, first.tolist()):
        row[:trace.messages[n].length] = trace.messages[n].tokens
    lengths = (tokens == EOS).argmax(axis=1)
    refs = references(dataset)
    bleus = bleu(tokens, lengths, refs, shown)[which]
    coverage = attribute_coverage(tokens, lengths, refs, shown)[which]
    return EvalReport(
        bleu1=float(bleus[:, 0].mean()),
        bleu2=float(bleus[:, 1].mean()),
        bleu3=float(bleus[:, 2].mean()),
        bleu4=float(bleus[:, 3].mean()),
        coverage=float(np.mean(coverage)),
        top1=solve_rate(trace.probs, trace.targets, 1),
        top10=solve_rate(trace.probs, trace.targets, min(10, k)),
        mean_length=float(np.mean(lengths[which])),
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
