import numpy as np
import pytest

import reference
from reference import generate_dataset

from test_agents import BLOCK_GRAD_RTOL, BLOCK_LOGPROB_ATOL, _grads

from lewisgame import game
from lewisgame import tensor as T
from lewisgame.agents import ListenerModel, ModelConfig, SpeakerPolicy
from lewisgame.game import (GameConfig, _play_round_traced, play_rounds,
                            solve_rate)
from lewisgame.tensor import Tape, Tensor, backward
from lewisgame.world import WorldSpec, sample_game_batch


def indicator_reward_mc(probs: np.ndarray, target: int, n_samples: int,
                        rng) -> float:
    """Monte-Carlo mean of the 0/1 pick-correct reward under a ~ probs.

    Unbiased for probs[target]; the oracle for the shaped reward.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    p = np.asarray(probs, np.float64)
    p = p / p.sum()
    draws = rng.choice(p.size, size=n_samples, p=p)
    return float((draws == target).mean())


@pytest.fixture(scope="module")
def setup():
    spec = WorldSpec()
    ds = generate_dataset(3, 40, spec)
    cfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                      d_e=24, d_o=16, n_layers=1, n_patches=2)
    speaker = SpeakerPolicy.create(cfg, 1)
    listener = ListenerModel.create(cfg, 2, encoder=speaker)
    return ds, speaker, listener


def test_game_config_validation():
    GameConfig(k=2, lam=0.0, generations=1, t_max=1)
    with pytest.raises(ValueError):
        GameConfig(k=1)
    with pytest.raises(ValueError):
        GameConfig(lam=-0.1)
    with pytest.raises(ValueError):
        GameConfig(lam=float("nan"))
    with pytest.raises(ValueError):
        GameConfig(generations=0)


def _trace(speaker, listener, ds, cfg, rng):
    """Draw a round from ``ds`` and play it through ``play_rounds``."""
    return _play_round_traced([speaker], listener, ds, cfg, [rng])


def test_play_round_structure(setup):
    ds, speaker, listener = setup
    cfg = GameConfig(k=4, generations=3, t_max=8)
    rng = np.random.default_rng(0)
    trace = _trace(speaker, listener, ds, cfg, rng)
    assert len(trace.messages) == 3
    assert trace.targets.tolist() == [trace.targets[0]] * 3  # shared target
    assert trace.probs.shape == (3, 4)
    assert np.abs(trace.probs.sum(axis=1) - 1.0).max() < 1e-6
    rewards = trace.rewards
    assert ((0.0 <= rewards) & (rewards <= 1.0)).all()
    assert (rewards == trace.probs[np.arange(3), trace.targets]).all()
    assert (solve_rate(trace.probs, trace.targets, 1)
            == np.mean(np.argmax(trace.probs, axis=1) == trace.targets))
    assert trace.lengths.tolist() == [m.length for m in trace.messages]
    assert ((1 <= trace.lengths) & (trace.lengths <= cfg.t_max)).all()


def test_play_round_reproducible(setup):
    ds, speaker, listener = setup
    cfg = GameConfig(k=4, generations=2, t_max=8)
    a = _trace(speaker, listener, ds, cfg, np.random.default_rng(7))
    b = _trace(speaker, listener, ds, cfg, np.random.default_rng(7))
    assert ([m.tokens for m in a.messages]
            == [m.tokens for m in b.messages])
    assert a.probs.tobytes() == b.probs.tobytes()


def test_play_round_rewards_differ_across_messages(setup):
    ds, speaker, listener = setup
    cfg = GameConfig(k=8, generations=5, t_max=8)
    trace = _trace(speaker, listener, ds, cfg, np.random.default_rng(3))
    rewards = {round(r, 8) for r in trace.rewards}
    tokens = {m.tokens for m in trace.messages}
    if len(tokens) > 1:          # generic case at random init
        assert len(rewards) > 1


def test_play_round_never_reads_captions(setup):
    ds, speaker, listener = setup
    poisoned = type(ds)(ds.spec, ds.seed, ds.split, ds.scenes)
    poisoned.captions = None
    cfg = GameConfig(k=4, generations=2, t_max=6)
    trace = _trace(speaker, listener, poisoned, cfg, np.random.default_rng(1))
    assert len(trace.messages) == 2


def test_play_rounds_with_shared_scenes_matches_per_round_reference(setup):
    # 3 rounds of K=4 from 6 scenes: several rounds hold the same scene,
    # whose one embedding row must collect every round's gradient
    _, speaker, listener = setup
    ds = generate_dataset(5, 6, WorldSpec())
    inputs = ds.model_inputs()
    rng = np.random.default_rng(2)
    scenes, targets = sample_game_batch(ds, 4, 3, rng)
    assert np.unique(scenes).size < scenes.size
    g = 2
    weights = rng.normal(0, 1, (3 * g, 6))
    params = (speaker.params, listener.params)
    for p in params:
        p.zero_grads()
    tape = Tape()
    trace = play_rounds([(speaker, scenes, targets, rng)], listener,
                        inputs, g, 6, tape)
    (logprobs,) = trace.logprobs
    backward(tape, T.add(tape, T.tsum(tape, T.mul(
        tape, logprobs, Tensor(weights[:, :logprobs.shape[1]]))),
        T.tsum(tape, trace.logp_target)))
    block = [_grads(p) for p in params]
    for p in params:
        p.zero_grads()
    for i in range(3):
        tape = Tape()
        v_imgs = reference.embed_images(listener, inputs[scenes[i]], tape)
        terms = []
        for b in range(i * g, (i + 1) * g):
            tokens = trace.messages[b].tokens
            lp = reference.logprobs(speaker, inputs[scenes[i, targets[i]]],
                                    tokens, tape)
            terms.append(T.tsum(tape, T.mul(tape, lp, Tensor(
                weights[b, :len(tokens)].reshape(-1, 1)))))
            v_m = reference.embed_message(listener, tokens, tape)
            logp = listener.log_probs(v_m, v_imgs, _all_cols(v_imgs), tape)
            assert (np.abs(np.exp(logp.data) - trace.probs[b]).max()
                    <= BLOCK_LOGPROB_ATOL)
            terms.append(T.tsum(tape, T.embedding(
                tape, T.reshape(tape, logp, (logp.size, 1)), [targets[i]])))
        loss = terms[0]
        for term in terms[1:]:
            loss = T.add(tape, loss, term)
        backward(tape, loss)
    per_round = [_grads(p) for p in params]
    for got, want in zip(block, per_round):
        assert got.keys() == want.keys()
        for name, grad in want.items():
            assert (np.abs(got[name] - grad).max()
                    <= BLOCK_GRAD_RTOL * np.abs(grad).max()), name


def test_one_listener_block_matches_each_speaker_block_alone(setup,
                                                            monkeypatch):
    # three speakers' blocks, the first that of the listener's bound
    # encoder as in training, played as one listener block on one tape
    # with one backward, against each block played alone on a tape of its
    # own with the same rng and the same bound listener: the draws, tokens
    # and speaker log-probs match bitwise, the listener's values and every
    # gradient within float32 round-off
    ds, bound, listener = setup
    cfg = GameConfig(k=4, generations=3, t_max=6)
    speakers = [bound] + [SpeakerPolicy.create(listener.cfg, seed)
                          for seed in (4, 5)]
    draws = []

    def recording(*args):
        draws.append(sample_game_batch(*args))
        return draws[-1]

    monkeypatch.setattr(game, "sample_game_batch", recording)
    rows = 2 * cfg.generations
    weights = np.random.default_rng(8).normal(0, 1, (rows, cfg.t_max))
    params = [s.params for s in speakers] + [listener.params]

    def play(players, seeds):
        tape = Tape()
        trace = _play_round_traced(
            players, listener, ds, cfg,
            [np.random.default_rng(s) for s in seeds], tape, 2)
        loss = T.tsum(tape, trace.logp_target)
        for node in trace.logprobs:
            loss = T.add(tape, loss, T.tsum(tape, T.mul(
                tape, node, Tensor(weights[:, :node.shape[1]]))))
        backward(tape, loss)
        return trace

    for p in params:
        p.zero_grads()
    joint = play(speakers, (0, 1, 2))
    joint_draws, joint_grads = draws[:], [_grads(p) for p in params]
    draws.clear()
    for p in params:
        p.zero_grads()
    alone = [play([s], (seed,)) for seed, s in enumerate(speakers)]
    alone_grads = [_grads(p) for p in params]

    assert len(joint.logprobs) == len(joint_draws) == len(draws) == 3
    assert len(joint.messages) == 3 * rows
    for (scenes, targets), (want_scenes, want_targets) in zip(joint_draws,
                                                              draws):
        assert scenes.tobytes() == want_scenes.tobytes()
        assert targets.tobytes() == want_targets.tobytes()
    for w, (node, want) in enumerate(zip(joint.logprobs, alone)):
        got = slice(w * rows, (w + 1) * rows)
        assert ([m.tokens for m in joint.messages[got]]
                == [m.tokens for m in want.messages])
        assert joint.targets[got].tolist() == want.targets.tolist()
        (want_node,) = want.logprobs
        assert node.data.tobytes() == want_node.data.tobytes()
        assert (np.abs(joint.probs[got] - want.probs).max()
                <= BLOCK_LOGPROB_ATOL)
        assert (np.abs(joint.logp_target.data[got]
                       - want.logp_target.data).max() <= BLOCK_LOGPROB_ATOL)
    for got, want in zip(joint_grads, alone_grads):
        assert got.keys() == want.keys()
        for name, grad in want.items():
            assert (np.abs(got[name] - grad).max()
                    <= BLOCK_GRAD_RTOL * np.abs(grad).max()), name


def test_play_rounds_calls_the_listener_once_whatever_the_blocks(
        setup, monkeypatch):
    # the listener embeds every message, every distinct candidate and
    # scores every row in one call each, for one block as for three
    ds, bound, listener = setup
    cfg = GameConfig(k=4, generations=2, t_max=6)
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for name in ("embed_images", "embed_message", "log_probs"):
        monkeypatch.setattr(ListenerModel, name,
                            counting(name, getattr(ListenerModel, name)))
    for n_blocks in (1, 3):
        calls.clear()
        speakers = [bound] + [SpeakerPolicy.create(listener.cfg, seed)
                              for seed in range(n_blocks - 1)]
        trace = _play_round_traced(
            speakers, listener, ds, cfg,
            [np.random.default_rng(s) for s in range(n_blocks)], Tape(), 2)
        assert len(trace.logprobs) == n_blocks
        assert sorted(calls) == ["embed_images", "embed_message",
                                 "log_probs"], n_blocks


def test_greedy_block_decodes_and_embeds_each_distinct_target_once(
        setup, monkeypatch):
    # 30 rounds over 6 scenes: a greedy block decodes and embeds one
    # message per distinct target, and gathers them back to one row per
    # round; a sampled block decodes and embeds every message
    _, speaker, listener = setup
    ds = generate_dataset(5, 6, WorldSpec())
    scenes, targets = sample_game_batch(ds, 4, 30, np.random.default_rng(3))
    shown = scenes[np.arange(30), targets]
    decoded, embedded = [], []

    def counting(sink, original, rows_of):
        def counted(self, arg, *args, **kwargs):
            sink.append(rows_of(arg, *args))
            return original(self, arg, *args, **kwargs)
        return counted

    monkeypatch.setattr(SpeakerPolicy, "sample", counting(
        decoded, SpeakerPolicy.sample, lambda obs, t_max, n, *_: len(obs) * n))
    monkeypatch.setattr(ListenerModel, "embed_message", counting(
        embedded, ListenerModel.embed_message, lambda msgs, *_: len(msgs)))
    greedy = play_rounds([(speaker, scenes, targets, None)], listener,
                         ds.model_inputs(), 1, 6)
    n_distinct = np.unique(shown).size
    assert n_distinct < 30
    assert decoded == embedded == [n_distinct]
    assert len(greedy.messages) == 30 and greedy.logprobs[0].shape[0] == 30
    for n, scene in enumerate(shown):
        first = int(np.flatnonzero(shown == scene)[0])
        assert greedy.messages[n] is greedy.messages[first]
        assert (greedy.logprobs[0].data[n]
                == greedy.logprobs[0].data[first]).all()
    decoded.clear()
    embedded.clear()
    play_rounds([(speaker, scenes, targets, np.random.default_rng(4))],
                listener, ds.model_inputs(), 2, 6)
    assert decoded == embedded == [60]


def _all_cols(v_imgs):
    """One row of columns naming every candidate of ``v_imgs`` in order."""
    return np.arange(v_imgs.shape[0])[None, :]


def _rows(*pairs):
    """(probs, targets) of one row per (probs, target) pair."""
    return (np.stack([np.asarray(p, np.float32) for p, _ in pairs]),
            np.array([t for _, t in pairs]))


def test_solve_rate_uniform_top10():
    assert solve_rate(*_rows(*[(np.full(10, 0.1), t) for t in range(10)]),
                      10) == 1.0


def test_solve_rate_onehot_top1():
    p = np.zeros(6, np.float32)
    p[4] = 1.0
    assert solve_rate(*_rows((p, 4)), 1) == 1.0
    assert solve_rate(*_rows((p, 2)), 1) == 0.0


def test_solve_rate_tie_breaks_toward_lower_index():
    p = np.array([0.25, 0.25, 0.25, 0.25], np.float32)
    assert solve_rate(*_rows((p, 0)), 1) == 1.0
    assert solve_rate(*_rows((p, 1)), 1) == 0.0
    assert solve_rate(*_rows((p, 1)), 2) == 1.0


def test_solve_rate_topn_bounds():
    with pytest.raises(ValueError):
        solve_rate(*_rows((np.full(4, 0.25), 0)), 5)


@pytest.mark.parametrize("k", [2, 5, 16])
def test_solve_rate_matches_per_episode_oracle(k):
    # probabilities on a coarse grid, so that most rows hold ties, some
    # of them at the target
    rng = np.random.default_rng(k)
    probs = rng.integers(0, 4, (300, k)).astype(np.float32) / 8
    targets = rng.integers(0, k, 300)
    ties = (probs == probs[np.arange(300), targets][:, None]).sum(axis=1)
    assert (ties > 1).sum() >= 50   # rows where another entry ties the target
    eps = [reference.Episode(int(t), np.zeros(1, np.float32), p)
           for p, t in zip(probs, targets)]
    for top_n in range(1, k + 1):
        assert (solve_rate(probs, targets, top_n)
                == reference.solve_rate(eps, top_n)), top_n


def test_indicator_mc_unbiased():
    rng = np.random.default_rng(0)
    p = np.array([0.3, 0.5, 0.2], np.float64)
    est = indicator_reward_mc(p, 0, 100_000, rng)
    assert abs(est - 0.3) < 0.01


def test_indicator_mc_degenerate_cases():
    rng = np.random.default_rng(0)
    one_hot = np.array([0.0, 1.0, 0.0])
    assert indicator_reward_mc(one_hot, 1, 1000, rng) == 1.0
    assert indicator_reward_mc(one_hot, 0, 1000, rng) == 0.0


def test_indicator_matches_shaped_reward():
    # the Monte-Carlo indicator mean converges to probs[target]
    rng = np.random.default_rng(42)
    for _ in range(5):
        p = rng.dirichlet(np.ones(8))
        k = int(rng.integers(8))
        est = indicator_reward_mc(p, k, 50_000, rng)
        assert abs(est - p[k]) < 0.012
