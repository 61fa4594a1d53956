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
caption, the captions' lengths and the scene's attribute-word ids. An
entry is built the first time its scene is scored and then kept, in one
table per dataset. BLEU's logs and exps run in ``math``, once per
distinct value, since numpy's vectorised ones may differ from libm's in
the last bit; so the scores equal a per-round loop's bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
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


def _gram_codes(tokens: np.ndarray) -> np.ndarray:
    """(B, BLEU_N, T) codes of the n-grams of a (B, T) token array: entry
    [b, n - 1, i] codes the n-gram that starts at position i of row b, -1
    where none fits. Distinct n-grams of ids below 2^8 get distinct
    codes, below 2^32. An n-gram's key puts its group, a row or a scene
    times BLEU_N plus n - 1, above its code's 32 bits."""
    check_index("bleu", tokens, 1 << _TOKEN_BITS)
    width = tokens.shape[1]
    codes = np.full((len(tokens), BLEU_N, width), -1, np.int64)
    codes[:, 0] = tokens
    for j in range(1, min(BLEU_N, width)):
        codes[:, j, :-j] = (codes[:, j - 1, :-j] << _TOKEN_BITS) | tokens[:, j:]
    return codes


def _widen(table: np.ndarray, width: int, fill) -> np.ndarray:
    """``table`` with columns of ``fill`` added up to ``width``."""
    if width <= table.shape[1]:
        return table
    out = np.full((len(table), width), fill, table.dtype)
    out[:, :table.shape[1]] = table
    return out


class References:
    """The references that ``bleu`` and ``attribute_coverage`` score
    against, one entry per scene of ``n_scenes``.

    ``entry(s)`` gives scene s's captions (token-id sequences, at least
    one) and its attribute-word ids. Its entry is each distinct n-gram's
    largest count in any one caption, for n = 1..BLEU_N, in one sorted
    array of keys over all built scenes; the captions' lengths, as row s
    of ``lengths`` (padded with a length far from any message's); and the
    attribute ids, as row s of ``attributes`` (padded with -1). ``build``
    makes the entries of the scenes that it has not made yet.
    """

    def __init__(self, n_scenes: int, entry):
        self._entry = entry
        self._built = np.zeros(n_scenes, bool)
        # sorted n-gram keys, ended by one above every key
        self._keys = np.array([np.iinfo(np.int64).max])
        self._maxima = np.zeros(1, np.intp)
        self.lengths = np.full((n_scenes, 0), _FAR, np.intp)
        self.attributes = np.full((n_scenes, 0), -1, np.intp)

    def build(self, scenes: np.ndarray) -> None:
        # a set, not np.unique, whose form without indices imports numpy.ma
        new = sorted(set(scenes[~self._built[scenes]].tolist()))
        if not new:
            return
        keys, maxima = [self._keys], [self._maxima]
        for s in new:
            captions, attributes = self._entry(s)
            if not captions:
                raise ValueError(f"references: scene {s} has no captions")
            best = Counter()
            groups = np.arange(s * BLEU_N, (s + 1) * BLEU_N)[:, None] << 32
            for caption in captions:
                codes = _gram_codes(np.array(caption, np.intp)[None])[0]
                best |= Counter((groups | codes)[codes >= 0].tolist())
            keys.append(np.array(list(best), np.int64))
            maxima.append(np.array(list(best.values()), np.intp))
            self.lengths = _widen(self.lengths, len(captions), _FAR)
            self.lengths[s, :len(captions)] = [len(c) for c in captions]
            self.attributes = _widen(self.attributes, len(attributes), -1)
            self.attributes[s, :len(attributes)] = attributes
        keys = np.concatenate(keys)
        order = np.argsort(keys)
        self._keys, self._maxima = keys[order], np.concatenate(maxima)[order]
        self._built[new] = True

    def maxima(self, keys: np.ndarray) -> np.ndarray:
        """Each n-gram key's largest count in any one caption of its
        (built) scene, 0 for an n-gram in none."""
        at = np.searchsorted(self._keys, keys)
        return np.where(self._keys[at] == keys, self._maxima[at], 0)


def _scene_references(captions, scenes, vocab, s: int) -> tuple:
    return captions[s], vocab.encode(scenes[s].attribute_words())


def references(dataset: Dataset) -> References:
    """``dataset``'s ``References``, made when it is first scored and kept
    on it. They hold its captions and scenes but not the dataset itself,
    so that no reference cycle outlives its last use."""
    if "_references" not in vars(dataset):
        dataset._references = References(len(dataset), partial(
            _scene_references, dataset.captions, dataset.scenes,
            dataset.vocab))
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
    tokens = np.asarray(tokens, np.intp)
    c = np.asarray(lengths, np.intp)
    if c.shape != tokens.shape[:1] or ((c < 0) | (c > tokens.shape[1])).any():
        raise ValueError(f"bleu: lengths must be one per row, each from 0 "
                         f"to the row width {tokens.shape[1]}")
    scenes = np.asarray(scenes, np.intp)
    refs.build(scenes)
    # the closest caption length, the shorter of two equally close
    ref_lengths = refs.lengths[scenes]
    gap = np.abs(ref_lengths - c[:, None])
    r = np.where(gap == gap.min(axis=1, keepdims=True), ref_lengths,
                 _FAR).min(axis=1)
    total = c[:, None] - np.arange(BLEU_N)  # (B, BLEU_N) n-grams per row
    live = np.arange(tokens.shape[1]) < total[:, :, None]
    row, order, _ = np.nonzero(live)
    codes = _gram_codes(tokens)[live]
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
    first ``lengths[b]`` tokens of row b of a (B, T) token array."""
    tokens = np.asarray(tokens, np.intp)
    scenes = np.asarray(scenes, np.intp)
    refs.build(scenes)
    attributes = refs.attributes[scenes]
    n_words = (attributes >= 0).sum(axis=1)
    if not n_words.all():
        raise ValueError("attribute_coverage: scene has no objects")
    said = np.where(np.arange(tokens.shape[1]) < np.asarray(lengths)[:, None],
                    tokens, -2)
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
