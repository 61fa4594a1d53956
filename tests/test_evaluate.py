import concurrent.futures
import glob
import json
import math
import os
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest

import reference
from lewisgame import evaluate
from lewisgame.agents import ListenerModel, ModelConfig, SpeakerPolicy
from lewisgame.cli import main
from lewisgame.config import ConfigError, RunConfig
from lewisgame.evaluate import (References, ablation_sweep, attribute_coverage,
                                bleu, evaluate_agents, references)
from lewisgame.training import Trainer
from lewisgame.world import WorldSpec, generate_splits

EPS = 1e-9  # the pinned BLEU smoothing for a zero n-gram precision

# BLEU-1..4 worked out by hand from the clipped precisions p1..p4 and
# the brevity penalty bp: BLEU-n = bp * (p1 * ... * pn) ** (1/n).
BLEU_EXPECTED = {
    # exact match: every precision is 1
    "case1.txt": [1.0, 1.0, 1.0, 1.0],
    # c=3 < r=4: bp = exp(1 - 4/3); p1..p3 = 1, no 4-gram so p4 = EPS
    "case2.txt": [math.exp(-1 / 3)] * 3 + [math.exp(-1 / 3) * EPS ** 0.25],
    # complete miss: every precision is EPS
    "case3.txt": [EPS] * 4,
    # "a" occurs twice but is clipped to once: p1 = 2/3, p2 = 1/2,
    # no matching 3-gram and no 4-gram
    "case4.txt": [2 / 3, (1 / 3) ** 0.5, (EPS / 3) ** (1 / 3),
                  (EPS * EPS / 3) ** 0.25],
    # "the" is clipped to its count in the second reference (2), which
    # also has the closest length (3, so bp = 1): the same p1..p4 as case4
    "case5.txt": [2 / 3, (1 / 3) ** 0.5, (EPS / 3) ** (1 / 3),
                  (EPS * EPS / 3) ** 0.25],
}

BLEU_CASES = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                           "data", "bleu", "case*.txt")))


def _read_bleu_case(path):
    candidate, references = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            kind, _, words = line.partition(":")
            if kind == "candidate":
                candidate = words.split()
            elif kind == "reference":
                references.append(words.split())
    return candidate, references


def _batch_bleu(cases):
    """BLEU-1..4 of each (candidate, references) pair of token-id lists,
    as rows of one ``bleu`` call."""
    tokens = np.zeros((len(cases), max(len(c) for c, _ in cases)), np.intp)
    for row, (candidate, _) in zip(tokens, cases):
        row[:len(candidate)] = candidate
    refs = References([r for _, r in cases], [()] * len(cases))
    return bleu(tokens, [len(c) for c, _ in cases], refs,
                np.arange(len(cases)))


@pytest.mark.parametrize("path", BLEU_CASES, ids=os.path.basename)
def test_bleu_fixture(path):
    candidate, references = _read_bleu_case(path)
    ids = {}
    for words in [candidate, *references]:
        for w in words:
            ids.setdefault(w, len(ids))
    (got,) = _batch_bleu([([ids[w] for w in candidate],
                           [[ids[w] for w in r] for r in references])])
    expected = BLEU_EXPECTED[os.path.basename(path)]
    assert got.tolist() == pytest.approx(expected, rel=1e-9)


def test_bleu_matches_per_gram_oracle():
    # short messages over a few words, so n-grams repeat and clip often;
    # over ids 250-255, a 4-gram of 255s fills all 32 bits of its code
    for low, n_ids in ((0, 5), (250, 6)):
        rng = np.random.default_rng(0)
        cases = []
        for _ in range(2000):
            candidate = low + rng.integers(n_ids, size=rng.integers(1, 9))
            references = [(low + rng.integers(n_ids, size=rng.integers(1, 9)))
                          .tolist() for _ in range(rng.integers(1, 4))]
            cases.append((candidate.tolist(), references))
        # shorter than 4 tokens; a word repeated more often than any
        # reference holds it; a repeated bigram; a repeated 4-gram
        cases += [([low + t for t in c], [[low + t for t in r] for r in refs])
                  for c, refs in [
                      ([3, 1], [[3, 1, 2, 4], [1, 3]]),
                      ([2, 2, 2, 2, 1], [[2, 1, 2], [1, 2, 4, 4]]),
                      ([1, 2, 1, 2, 1, 2], [[1, 2, 3, 1, 2], [2, 1, 2]]),
                      ([5, 5, 5, 5, 5], [[5, 5, 5, 5], [5, 4, 5]])]]
        for got, (candidate, references) in zip(_batch_bleu(cases), cases):
            assert got.tolist() == reference.bleu(candidate, references, 4)


def test_bleu_scores_an_empty_row_zero_and_reads_only_its_content():
    # the tokens past a row's length are not part of its candidate
    refs = References([[[4, 5, 6]]] * 2, [()] * 2)
    tokens = np.array([[4, 5, 6, 9], [4, 5, 6, 9]])
    got = bleu(tokens, [0, 3], refs, np.array([0, 1]))
    assert got.tolist() == [[0.0] * 4,
                            reference.bleu([4, 5, 6], [[4, 5, 6]], 4)]


@pytest.mark.parametrize("lengths", [[3, 5], [3, -1], [3]])
def test_bleu_refuses_lengths_that_do_not_fit_the_rows(lengths):
    # both scorers take their rows through one check
    refs = References([[[4, 5, 6]]] * 2, [[4], [5]])
    for score in (bleu, attribute_coverage):
        with pytest.raises(ValueError, match="lengths must be one per row"):
            score(np.full((2, 4), 4), lengths, refs, np.array([0, 1]))


@pytest.mark.parametrize("score", [bleu, attribute_coverage],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [-1, 256])
def test_scorers_refuse_token_ids_outside_eight_bits(score, bad):
    # a -1 would match the -1 pads of a shorter attribute row
    refs = References([[[4]], [[4]]], [[1, 2, 3], [0]])
    with pytest.raises(IndexError, match=f"index {bad} out of range"):
        score(np.array([[bad, 0]]), [1], refs, np.array([1]))


def test_attribute_coverage_matches_the_word_set_oracle():
    # random messages, some naming a word twice, against every scene of a
    # 1-3 object world
    ds = reference.generate_dataset(3, 30, WorldSpec())
    rng = np.random.default_rng(1)
    scenes = rng.integers(len(ds), size=200)
    lengths = rng.integers(0, 7, size=200)
    tokens = rng.integers(len(ds.vocab), size=(200, 7))
    got = attribute_coverage(tokens, lengths, references(ds), scenes)
    want = [reference.attribute_coverage(row[:n].tolist(), ds.scenes[s],
                                         ds.vocab)
            for row, n, s in zip(tokens, lengths, scenes)]
    assert got.tolist() == want


def test_references_keep_each_grams_largest_count_in_one_caption():
    # a dataset's table is made on its first scoring and kept; it holds
    # every scene's n-grams, and no n-gram that a scene lacks
    ds = reference.generate_dataset(3, 12, WorldSpec())
    refs = references(ds)
    assert references(ds) is refs
    best = [reference.gram_maxima(c, evaluate.BLEU_N) for c in ds.captions]
    grams = sorted(set().union(*best))
    for s, scene_best in enumerate(best):
        keys = [(s * evaluate.BLEU_N + len(g) - 1) << 32
                | sum(t << 8 * i for i, t in enumerate(reversed(g)))
                for g in grams]
        assert refs.maxima(np.array(keys)).tolist() == [scene_best[g]
                                                        for g in grams]


def test_references_refuse_a_scene_without_captions():
    with pytest.raises(ValueError, match="scene 1 has no captions"):
        References([[[4]], [], [[5]]], [[4], [5], [6]])


def test_evaluate_agents_embeds_each_scene_at_most_once(monkeypatch):
    # 200 rounds of K=8 name 1,600 candidates; one block of 12 scenes
    # holds every distinct one
    spec = WorldSpec()
    ds = reference.generate_dataset(3, 12, spec)
    cfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                      d_e=8, d_o=8, n_layers=1)
    speaker = SpeakerPolicy.create(cfg, 1)
    listener = ListenerModel.create(cfg, 2, encoder=speaker)
    rows = []

    def counting(self, observations, *args, **kwargs):
        rows.append(len(observations))
        return embed_images(self, observations, *args, **kwargs)

    embed_images = ListenerModel.embed_images
    monkeypatch.setattr(ListenerModel, "embed_images", counting)
    evaluate_agents(speaker, listener, ds, 8, n_rounds=200, t_max=4)
    assert rows and sum(rows) <= len(ds)


@pytest.mark.parametrize("n_rounds", [0, -3])
def test_evaluate_agents_refuses_fewer_than_one_round(n_rounds):
    spec = WorldSpec()
    ds = reference.generate_dataset(3, 12, spec)
    cfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                      d_e=8, d_o=8, n_layers=1)
    speaker = SpeakerPolicy.create(cfg, 1)
    listener = ListenerModel.create(cfg, 2, encoder=speaker)
    with pytest.raises(ValueError, match=f"n_rounds must be >= 1, got "
                                         f"{n_rounds}"):
        evaluate_agents(speaker, listener, ds, 8, n_rounds=n_rounds)


def _tiny_config() -> RunConfig:
    # non-default values throughout, so a cell that drops a setting on
    # the way from the config to the trainer shows up as a different report
    cfg = RunConfig()
    cfg.world = replace(cfg.world, min_objects=1, max_objects=2, n_scenes=40,
                        val_scenes=16, seed=3)
    cfg.game = replace(cfg.game, k=8, lam=0.5, generations=2, t_max=5)
    cfg.model = replace(cfg.model, d_e=16, d_o=8, n_layers=1, n_patches=2)
    cfg.train = replace(cfg.train, steps=2, seed=1, replicas=2,
                        sync_period=1, targets_per_replica=2, lr_speaker=0.05,
                        lr_listener=0.01, standardize_advantages=True,
                        clip_norm=0.5)
    cfg.eval = replace(cfg.eval, rounds=6, seed=9)
    return cfg


def _direct_run(cfg: RunConfig, k: int, seed: int):
    cfg = replace(cfg, game=replace(cfg.game, k=k),
                  train=replace(cfg.train, seed=seed))
    w = cfg.world
    splits = generate_splits(w.seed, cfg.world_spec(), w.n_scenes,
                             w.val_scenes)
    train = splits["train"]
    trainer = Trainer(train, cfg.game_config(),
                      cfg.model_config(len(train.vocab),
                                       train.spec.input_dim),
                      cfg.train_settings())
    reports = trainer.run(cfg.train.steps)
    return evaluate_agents(trainer.speaker, trainer.listener, splits["val"],
                           k=k, n_rounds=cfg.eval.rounds, t_max=cfg.game.t_max,
                           seed=cfg.eval.seed), reports


def test_sweep_cell_equals_direct_run(tmp_path, capsys):
    # each cell trains for the config's [train] steps, evaluates at its
    # [eval] seed and reports the mean reward over its last fifth of steps
    cfg = _tiny_config()
    cfg.train = replace(cfg.train, steps=6)
    config_path = tmp_path / "run.ini"
    config_path.write_text(cfg.to_text(), encoding="utf-8")
    out = tmp_path / "sweep.jsonl"
    code = main(["sweep", "--config", str(config_path), "--k-list", "4",
                 "--seeds", "5", "--out", str(out)])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    expected, reports = _direct_run(cfg, k=4, seed=5)
    # steps 5 and 6 of 6
    train_reward = np.mean([r.mean_reward for r in reports[4:]])
    assert rows == [{**expected.row(run_id="sweep", step=6, seed=5),
                     "train_reward": train_reward}]
    assert "K=4: coverage" in capsys.readouterr().out


def test_sweep_without_a_val_split_is_refused_before_any_cell(tmp_path,
                                                              capsys):
    # its cells would be scored on the scenes they trained on
    cfg = _tiny_config()
    cfg.world = replace(cfg.world, val_scenes=0)
    with pytest.raises(ConfigError, match=r"\[world\] val_scenes must be at least 1"):
        ablation_sweep(cfg, [4], [5])
    config_path = tmp_path / "run.ini"
    config_path.write_text(cfg.to_text(), encoding="utf-8")
    capsys.readouterr()
    code = main(["sweep", "--config", str(config_path), "--k-list", "4",
                 "--seeds", "5", "--out", str(tmp_path / "sweep.jsonl")])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["run.ini"]


def test_sweep_cell_of_zero_steps_has_no_train_reward():
    cfg = _tiny_config()
    cfg.train = replace(cfg.train, steps=0)
    (cell,) = ablation_sweep(cfg, [4], [5])
    assert cell["train_reward"] is None and cell["report"].n_rounds == 6


def test_sweep_workers_give_the_same_cells():
    # K=32 cannot be drawn from the 16 val scenes: that cell must fail
    # alone, with the same error in both modes
    cfg = _tiny_config()
    serial = ablation_sweep(cfg, [4, 32], [5, 6], workers=1)
    parallel = ablation_sweep(cfg, [4, 32], [5, 6], workers=2)
    assert parallel == serial
    assert [(c["k"], c["seed"]) for c in serial] == [(4, 5), (4, 6),
                                                     (32, 5), (32, 6)]
    assert all("report" in c for c in serial[:2])
    assert all("error" in c for c in serial[2:])


def test_sweep_pool_has_at_most_one_worker_per_cell(monkeypatch):
    # a stand-in pool that runs each cell in this process, so a huge
    # worker count starts no process at all
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InlinePool)
    cfg = _tiny_config()
    pooled = ablation_sweep(cfg, [4], [5, 6], workers=10**6)
    assert asked == [2]
    assert pooled == ablation_sweep(cfg, [4], [5, 6], workers=1)


def _check_against_inline_oracle(raster, val_scenes, k, n_rounds):
    """Train three steps, then hold ``evaluate_agents`` on the val split
    to the inline round oracle, field for field by ``repr``."""
    cfg = _tiny_config()
    cfg.world = replace(cfg.world, raster=raster, raster_size=8,
                        val_scenes=val_scenes)
    cfg.train = replace(cfg.train, seed=5)
    w = cfg.world
    splits = generate_splits(w.seed, cfg.world_spec(), w.n_scenes,
                             w.val_scenes)
    train = splits["train"]
    trainer = Trainer(train, cfg.game_config(),
                      cfg.model_config(len(train.vocab), train.spec.input_dim),
                      cfg.train_settings())
    trainer.run(3)
    args = (trainer.speaker, trainer.listener, splits["val"], k)
    kwargs = dict(n_rounds=n_rounds, t_max=6, seed=4)
    got = evaluate_agents(*args, **kwargs)
    want = reference.evaluate_agents(*args, **kwargs)
    assert (want.n_rounds, want.k) == (n_rounds, k)
    assert want.mean_length > 0 and want.coverage > 0
    for name, value in vars(want).items():
        assert repr(getattr(got, name)) == repr(value), name


@pytest.mark.parametrize("raster", [False, True], ids=["plain", "raster"])
def test_evaluate_agents_matches_inline_round_oracle(raster):
    # with this seed both worlds' messages are non-empty and name some of
    # the target's attributes
    _check_against_inline_oracle(raster, 16, 12, 25)


@pytest.mark.parametrize("raster", [False, True], ids=["plain", "raster"])
def test_duplicate_heavy_evaluation_matches_inline_round_oracle(raster):
    # 300 rounds over 12 scenes: every target repeats about 25 times, so
    # nearly every row is decoded, embedded and scored as another's copy
    _check_against_inline_oracle(raster, 12, 8, 300)
