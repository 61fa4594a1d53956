import numpy as np
import pytest

from reference import generate_dataset

from lewisgame.agents import ListenerModel, ModelConfig, SpeakerPolicy
from lewisgame.game import (GameConfig, GameEpisode, _play_round_traced,
                            make_episode, rewards_to_go, solve_rate)
from lewisgame.world import WorldSpec


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
    GameConfig(k=2, gamma=0.0, lam=0.0, generations=1, t_max=1)
    with pytest.raises(ValueError):
        GameConfig(k=1)
    with pytest.raises(ValueError):
        GameConfig(gamma=1.0)
    with pytest.raises(ValueError):
        GameConfig(lam=-0.1)
    with pytest.raises(ValueError):
        GameConfig(generations=0)


def test_rewards_to_go_direct_value():
    out = rewards_to_go(0.8, 3, 0.95)
    assert np.allclose(out, [0.722, 0.76, 0.8], atol=1e-6)


def test_rewards_to_go_gamma_zero():
    out = rewards_to_go(0.5, 4, 0.0)
    assert out.tolist() == [0.0, 0.0, 0.0, 0.5]


def test_rewards_to_go_single_step():
    assert rewards_to_go(0.3, 1, 0.95).tolist() == [np.float32(0.3)]


def test_rewards_to_go_matches_loop_oracle_exactly():
    # independent recurrence: r[T] = R, r[t] = gamma * r[t+1]
    for gamma in (0.0, 0.5, 0.95):
        for T in range(1, 33):
            R = np.float32(0.773)
            got = rewards_to_go(float(R), T, gamma)
            oracle = np.empty(T, np.float32)
            oracle[T - 1] = R
            for t in range(T - 2, -1, -1):
                oracle[t] = np.float32(gamma) * oracle[t + 1]
            assert got.tobytes() == oracle.tobytes(), (gamma, T)


def test_rewards_to_go_telescoping_exact():
    out = rewards_to_go(0.9, 12, 0.95)
    g = np.float32(0.95)
    for t in range(11):
        assert out[t] == g * out[t + 1]
    assert out[-1] == np.float32(0.9)


def _episodes(speaker, listener, ds, cfg, rng):
    """Draw a round from ``ds`` and play it through ``play_round``."""
    return _play_round_traced(speaker, listener, ds, cfg, rng).episodes


def test_play_round_structure(setup):
    ds, speaker, listener = setup
    cfg = GameConfig(k=4, generations=3, t_max=8)
    rng = np.random.default_rng(0)
    episodes = _episodes(speaker, listener, ds, cfg, rng)
    assert len(episodes) == 3
    target = episodes[0].target
    for ep in episodes:
        assert ep.target == target            # shared target
        assert ep.probs.shape == (4,)
        assert abs(ep.probs.sum() - 1.0) < 1e-6
        assert 0.0 <= ep.reward <= 1.0
        assert ep.reward == ep.probs[target]
        assert ep.indicator == int(np.argmax(ep.probs) == target)
        assert 1 <= ep.message.length <= cfg.t_max


def test_play_round_reproducible(setup):
    ds, speaker, listener = setup
    cfg = GameConfig(k=4, generations=2, t_max=8)
    a = _episodes(speaker, listener, ds, cfg, np.random.default_rng(7))
    b = _episodes(speaker, listener, ds, cfg, np.random.default_rng(7))
    for x, y in zip(a, b):
        assert x.message.tokens == y.message.tokens
        assert x.probs.tobytes() == y.probs.tobytes()


def test_play_round_rewards_differ_across_messages(setup):
    ds, speaker, listener = setup
    cfg = GameConfig(k=8, generations=5, t_max=8)
    episodes = _episodes(speaker, listener, ds, cfg,
                         np.random.default_rng(3))
    rewards = {round(ep.reward, 8) for ep in episodes}
    tokens = {ep.message.tokens for ep in episodes}
    if len(tokens) > 1:          # generic case at random init
        assert len(rewards) > 1


def test_play_round_never_reads_captions(setup):
    ds, speaker, listener = setup
    poisoned = type(ds)(
        spec=ds.spec, seed=ds.seed, split=ds.split, scenes=ds.scenes,
        observations=ds.observations, captions=None, rasters=ds.rasters,
        vocab=ds.vocab)
    cfg = GameConfig(k=4, generations=2, t_max=6)
    episodes = _episodes(speaker, listener, poisoned, cfg,
                         np.random.default_rng(1))
    assert len(episodes) == 2


def _episode_with(probs, target, length=3):
    from lewisgame.agents import MessageSample
    msg = MessageSample(tuple([5] * length), np.zeros(length, np.float32))
    return make_episode(target, msg, np.asarray(probs, np.float32))


def test_solve_rate_uniform_top10():
    eps = [_episode_with(np.full(10, 0.1), t) for t in range(10)]
    assert solve_rate(eps, 10) == 1.0


def test_solve_rate_onehot_top1():
    p = np.zeros(6, np.float32)
    p[4] = 1.0
    assert solve_rate([_episode_with(p, 4)], 1) == 1.0
    assert solve_rate([_episode_with(p, 2)], 1) == 0.0


def test_solve_rate_tie_breaks_toward_lower_index():
    p = np.array([0.25, 0.25, 0.25, 0.25], np.float32)
    assert solve_rate([_episode_with(p, 0)], 1) == 1.0
    assert solve_rate([_episode_with(p, 1)], 1) == 0.0
    assert solve_rate([_episode_with(p, 1)], 2) == 1.0


def test_solve_rate_topn_bounds():
    with pytest.raises(ValueError):
        solve_rate([_episode_with(np.full(4, 0.25), 0)], 5)


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
