import math
import os
import re
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import reference
from reference import (Episode, episodes, generate_dataset, listener_loss,
                       round_trace, speaker_loss)

from lewisgame import training
from lewisgame.agents import ModelConfig, SpeakerPolicy
from lewisgame.game import GameConfig, _play_round_traced
from lewisgame.params import (FormatError, ParameterSet, load_checkpoint,
                              save_checkpoint)
from lewisgame.tensor import Tape, Tensor, backward
from lewisgame.training import (NumericalFailureError, Trainer, TrainSettings,
                                advantage_variance, group_advantages,
                                sequence_loss, supervised_pretrain,
                                sync_replicas, train_step)
from lewisgame.world import EOS, WorldSpec


def _episode(reward, logprobs, target=0, k=4):
    probs = np.full(k, (1.0 - reward) / (k - 1), np.float32)
    probs[target] = reward
    return Episode(target, np.asarray(logprobs, np.float32), probs)


def _advs(group, standardize=False):
    """One group's advantages, from the package."""
    return group_advantages(round_trace(group, len(group)), standardize)


def test_speaker_loss_zero_when_rewards_equal():
    group = [_episode(0.5, [-1.0, -2.0]) for _ in range(4)]
    assert abs(speaker_loss(group)) < 1e-7


def test_speaker_loss_symmetric_cancellation():
    group = [_episode(0.9, [math.log(0.5)]), _episode(0.1, [math.log(0.5)])]
    assert abs(speaker_loss(group)) < 1e-7


def test_speaker_loss_hand_value():
    # G=2, T=1, rewards (0.9, 0.1), logpi (ln 0.8, ln 0.2)
    group = [_episode(0.9, [math.log(0.8)]), _episode(0.1, [math.log(0.2)])]
    expected = -0.5 * (0.4 * math.log(0.8) - 0.4 * math.log(0.2))
    assert abs(speaker_loss(group) - expected) < 1e-6
    assert abs(expected - (-0.27725887)) < 1e-6


def test_group_of_one_has_zero_advantages_and_variance():
    group = [_episode(0.5, [-1.0, -2.0])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for standardize in (False, True):
            advs = _advs(group, standardize)
            assert advs.shape == (1,) and not advs.any()
            assert advantage_variance(advs, 1).tolist() == [0.0]
            want = reference.group_advantages(group, standardize)
            assert reference.advantage_variance(want) == 0.0
            assert speaker_loss(group, standardize) == 0.0


def test_speaker_loss_shift_invariant_in_rewards():
    rng = np.random.default_rng(0)
    lps = [-rng.random(3) for _ in range(5)]
    base = [_episode(r, lp) for r, lp in zip([0.1, 0.3, 0.5, 0.2, 0.4], lps)]
    # shifting every reward by a constant leaves group advantages unchanged
    shifted = [_episode(r + 0.2, lp)
               for r, lp in zip([0.1, 0.3, 0.5, 0.2, 0.4], lps)]
    a = speaker_loss(base)
    b = speaker_loss(shifted)
    assert abs(a - b) < 1e-6


def test_group_advantages_are_each_rows_centred_reward():
    # one advantage per row, whatever its length: no token of a message
    # is weighted apart from the others
    group = [_episode(r, [-1.0] * n) for r, n in ((0.7, 4), (0.2, 1),
                                                  (0.45, 7))]
    advs = _advs(group)
    assert advs.dtype == np.float32 and advs.shape == (3,)
    rewards = np.array([ep.reward for ep in group])
    assert advs.tobytes() == (rewards - rewards.mean()).astype(
        np.float32).tobytes()
    same_length = [_episode(ep.reward, [-1.0] * 3) for ep in group]
    assert _advs(same_length).tobytes() == advs.tobytes()


def _random_block(rng, n_rounds, generations, t_max):
    """Episodes of ``n_rounds`` rounds of ``generations``, round-major,
    with random rewards and lengths that include 1 and ``t_max``."""
    lengths = rng.integers(1, t_max + 1, n_rounds * generations)
    lengths[:2] = 1, t_max
    rng.shuffle(lengths)
    return [_episode(float(rng.random()), -rng.random(n),
                     target=int(rng.integers(8)), k=8)
            for n in lengths]


@pytest.mark.parametrize("generations", [1, 2, 5])
@pytest.mark.parametrize("standardize", [False, True])
def test_group_advantages_block_matches_per_episode_oracle(standardize,
                                                           generations):
    rng = np.random.default_rng(generations)
    eps = _random_block(rng, 3, generations, 12)
    # wider than the longest message, as a block of another row would be
    trace = round_trace(eps, generations, width=14, pad=1.0)
    advs = group_advantages(trace, standardize)
    assert advs.dtype == np.float32 and advs.shape == (len(eps),)
    for i in range(0, len(eps), generations):
        group = eps[i:i + generations]
        want = reference.group_advantages(group, standardize)
        assert advs[i:i + generations].tobytes() == np.array(
            want, np.float32).tobytes()
        assert (advantage_variance(advs, generations)[i // generations]
                == reference.advantage_variance(want))


def test_listener_loss_values():
    onehot = _episode(1.0, [-1.0])
    assert listener_loss(onehot) == 0.0
    uniform = _episode(0.25, [-1.0], k=4)
    assert abs(listener_loss(uniform) - math.log(4)) < 1e-6


def test_listener_loss_equals_cross_entropy():
    rng = np.random.default_rng(1)
    for _ in range(200):
        k = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(k)).astype(np.float32)
        target = int(rng.integers(k))
        ep = Episode(target, np.zeros(1, np.float32), p)
        onehot = np.zeros(k)
        onehot[target] = 1.0
        with np.errstate(divide="ignore"):
            ce = -float((onehot * np.log(p.astype(np.float64))).sum())
        assert abs(listener_loss(ep) - ce) < 1e-6


def test_advantage_variance_zero_for_identical_rewards():
    group = [_episode(0.4, [-1.0, -2.0]) for _ in range(5)]
    assert advantage_variance(_advs(group), 5).tolist() == [0.0]


def test_advantage_variance_two_episode_closed_form():
    # rewards 1 and 0 centre to +-0.5 on messages of any length, so the
    # spread is 2 * 0.25 / (2 - 1)
    group = [_episode(1.0, [-1.0] * 3), _episode(0.0, [-1.0] * 9)]
    (got,) = advantage_variance(_advs(group), 2)
    assert got == 0.5


def _speaker_weights(trace, advs):
    """(B, T) weights of the speaker's ``sequence_loss``: -A / (length * B)
    on each row's tokens, 0 past its end."""
    lengths = trace.lengths
    live = np.arange(trace.logprobs.shape[1]) < lengths[:, None]
    return np.where(live, -advs[:, None] / (lengths[:, None] * lengths.size),
                    0).astype(np.float32)


@pytest.mark.parametrize("standardize", [False, True])
def test_group_loss_node_matches_reference(standardize):
    # the taped surrogate training backpropagates, against the float64
    # numpy loss, on messages of different lengths
    # (one group, in a block padded with 1.0 past each message's end)
    rng = np.random.default_rng(4)
    group = [_episode(float(rng.random()), -rng.random(n))
             for n in (1, 3, 4, 7, 12)]
    trace = round_trace(group, len(group), pad=1.0)
    advs = group_advantages(trace, standardize)
    tape = Tape()
    loss = sequence_loss(tape, trace.logprobs, _speaker_weights(trace, advs))
    assert len(tape) == 2
    expected = speaker_loss(group, standardize)
    assert abs(loss.item() - expected) <= 1e-6 * max(1.0, abs(expected))
    backward(tape, loss)
    grad = trace.logprobs.grad
    want = reference.group_advantages(group, standardize)
    for row, (ep, a) in enumerate(zip(group, want)):
        w = -float(a) / (ep.length * len(group))
        assert np.allclose(grad[row, :ep.length], w, rtol=1e-6, atol=1e-9)
        assert not grad[row, ep.length:].any()


def _played_rounds(trainer_setup, seed, n_rounds):
    ds, mcfg, gcfg = trainer_setup
    tr = Trainer(ds, gcfg, mcfg, TrainSettings(seed=seed, replicas=1))
    rng = np.random.default_rng(seed)
    tape = Tape()
    (trace,) = _play_round_traced([tr.speaker], tr.listener, ds, gcfg,
                                  [rng], tape, n_rounds)
    return tape, trace


def _groups(trace):
    """A played block's episodes, one list per round."""
    eps, g = episodes(trace), trace.generations
    return [eps[i:i + g] for i in range(0, len(eps), g)]


def test_group_loss_node_matches_reference_on_played_round(trainer_setup):
    # the block loss is the mean of the per-group reference losses
    tape, trace = _played_rounds(trainer_setup, 10, 3)
    groups = _groups(trace)
    assert len(groups) == 3
    loss = sequence_loss(tape, trace.logprobs,
                         _speaker_weights(trace, group_advantages(trace)))
    expected = np.mean([speaker_loss(group) for group in groups])
    assert abs(loss.item() - expected) <= 1e-6 * max(1.0, abs(expected))


def test_listener_loss_node_matches_reference(trainer_setup):
    tape, trace = _played_rounds(trainer_setup, 11, 2)
    eps = episodes(trace)
    loss = sequence_loss(tape, trace.logp_target, np.float32(-1 / len(eps)))
    expected = np.mean([listener_loss(ep) for ep in eps])
    assert len(eps) == 2 * trainer_setup[2].generations
    assert abs(loss.item() - expected) <= 1e-6 * expected


def test_replica_tape_nodes_independent_of_g_and_targets(trainer_setup,
                                                         monkeypatch):
    # per-message or per-round loops would record nodes in proportion to
    # G or to targets_per_replica; every replica's block goes on the one
    # tape of the step, which takes one backward
    ds, mcfg, gcfg = trainer_setup
    recorded = []

    def counting(tape, loss):
        recorded.append(len(tape))
        backward(tape, loss)

    monkeypatch.setattr(training, "backward", counting)
    counts = {}
    for g in (2, 5):
        for targets in (1, 3):
            recorded.clear()
            game = GameConfig(k=gcfg.k, generations=g, t_max=gcfg.t_max)
            settings = TrainSettings(seed=13, replicas=2,
                                     targets_per_replica=targets)
            Trainer(ds, game, mcfg, settings).step_once()
            counts[g, targets] = tuple(recorded)
    assert len(set(counts.values())) == 1, counts
    assert len(counts[2, 1]) == 1 and counts[2, 1][0] > 0


def _recorded_step(trainer_setup, monkeypatch, settings):
    """One trainer step's report and the blocks it played."""
    ds, mcfg, gcfg = trainer_setup
    traces = []

    def recording(*args, **kwargs):
        played = _play_round_traced(*args, **kwargs)
        traces.extend(played)
        return played

    monkeypatch.setattr(training, "_play_round_traced", recording)
    return Trainer(ds, gcfg, mcfg, settings).step_once(), traces


def test_advantage_variance_reports_the_trained_advantages(trainer_setup,
                                                          monkeypatch):
    settings = TrainSettings(seed=12, replicas=2, targets_per_replica=2,
                             standardize_advantages=True)
    report, traces = _recorded_step(trainer_setup, monkeypatch, settings)
    expected = [
        reference.advantage_variance(reference.group_advantages(
            group, standardize=True))
        for tr in traces for group in _groups(tr)]
    assert len(traces) == 2  # one block of two rounds per replica
    assert len(expected) == 4
    assert report.advantage_variance == float(np.mean(expected))


@pytest.mark.parametrize("standardize", [False, True])
def test_train_step_losses_match_reference_on_its_rounds(trainer_setup,
                                                         monkeypatch,
                                                         standardize):
    # the weights train_step hands sequence_loss, against the float64
    # oracles of the rounds it played: every replica's groups are equal
    # in size, so each reported loss is a mean over all of them
    settings = TrainSettings(seed=15, replicas=2, targets_per_replica=2,
                             standardize_advantages=standardize)
    report, traces = _recorded_step(trainer_setup, monkeypatch, settings)
    groups = [group for tr in traces for group in _groups(tr)]
    want = np.mean([speaker_loss(group, standardize) for group in groups])
    # float32 advantages of nearly equal rewards: 6e-6 relative measured
    assert abs(report.speaker_loss - want) <= 2e-5 * abs(want)
    want = np.mean([listener_loss(ep) for tr in traces
                    for ep in episodes(tr)])
    assert abs(report.listener_loss - want) <= 1e-6 * want


@pytest.mark.parametrize("n_rep", [2, 3])
def test_sync_replicas_means_and_equalizes(n_rep):
    # at 2 replicas the first float64 add is the whole sum
    spec = WorldSpec()
    ds = generate_dataset(1, 8, spec)
    cfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                      d_e=8, d_o=8, n_layers=1, n_patches=2)
    from lewisgame.agents import SpeakerPolicy
    reps = [SpeakerPolicy.create(cfg, 1) for _ in range(n_rep)]
    for i, rep in enumerate(reps):
        rep.params["head.b"].data[:] = float(i)  # values 0, 1, ...
    rng = np.random.default_rng(3)
    for rep in reps[1:]:
        for name, t in rep.params.items():
            if name != "head.b":
                t.data += rng.normal(0, 0.1, t.shape).astype(np.float32)
    arrays = [[t.data for _, t in r.params.items()] for r in reps]
    want = {name: np.mean([r.params[name].data.astype(np.float64)
                           for r in reps], axis=0).astype(np.float32)
            for name in reps[0].params.names()}
    sync_replicas([r.params for r in reps])
    for rep in reps:
        assert np.allclose(rep.params["head.b"].data, (n_rep - 1) / 2)
    for rep, before in zip(reps, arrays):
        # averaged in place: every tensor keeps its array
        assert all(t.data is a
                   for (_, t), a in zip(rep.params.items(), before))
    for name, mean in want.items():
        assert all(r.params[name].data.tobytes() == mean.tobytes()
                   for r in reps)


def test_sync_replicas_single_is_noop():
    spec = WorldSpec()
    ds = generate_dataset(1, 8, spec)
    cfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                      d_e=8, d_o=8, n_layers=1, n_patches=2)
    from lewisgame.agents import SpeakerPolicy
    rep = SpeakerPolicy.create(cfg, 1)
    before = {n: t.data.copy() for n, t in rep.params.items()}
    sync_replicas([rep.params])
    for n, t in rep.params.items():
        assert t.data.tobytes() == before[n].tobytes()


@pytest.fixture(scope="module")
def trainer_setup():
    spec = WorldSpec()
    ds = generate_dataset(5, 60, spec)
    mcfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                       d_e=24, d_o=16, n_layers=1, n_patches=2)
    gcfg = GameConfig(k=6, generations=3, t_max=6)
    return ds, mcfg, gcfg


def test_train_step_report_identities(trainer_setup):
    ds, mcfg, gcfg = trainer_setup
    tr = Trainer(ds, gcfg, mcfg, TrainSettings(seed=3, replicas=2))
    for _ in range(10):
        rep = tr.step_once()
        assert abs(rep.joint_loss
                   - (rep.speaker_loss + gcfg.lam * rep.listener_loss)) < 1e-6
        assert 0.0 <= rep.mean_reward <= 1.0
        assert 0.0 <= rep.mean_indicator <= 1.0
        assert rep.clip_scale_speaker <= 1.0
        assert rep.clip_scale_listener <= 1.0


def test_train_step_lambda_zero_freezes_listener(trainer_setup):
    ds, mcfg, _ = trainer_setup
    gcfg = GameConfig(k=6, lam=0.0, generations=3, t_max=6)
    tr = Trainer(ds, gcfg, mcfg, TrainSettings(seed=4, replicas=2))
    before = {n: t.data.copy() for n, t in tr.listener.params.items()}
    for _ in range(3):
        tr.step_once()
    for n, t in tr.listener.params.items():
        assert t.data.tobytes() == before[n].tobytes()


def test_lambda_zero_groups_of_one_take_the_general_path(trainer_setup,
                                                        tmp_path):
    # lambda = 0 and G = 1 run the same step as every other config: zero
    # advantages, a zero-weighted listener loss, and a bitwise resume
    from lewisgame.params import load_checkpoint, save_checkpoint
    ds, mcfg, _ = trainer_setup
    gcfg = GameConfig(k=6, lam=0.0, generations=1, t_max=6)
    settings = TrainSettings(seed=14, replicas=2)
    full = Trainer(ds, gcfg, mcfg, settings)
    before = {n: t.data.copy() for n, t in full.listener.params.items()}
    reports = [full.step_once() for _ in range(3)]
    assert all(r.speaker_loss == 0.0 and r.advantage_variance == 0.0
               for r in reports)
    for n, t in full.listener.params.items():
        assert t.data.tobytes() == before[n].tobytes()

    first = Trainer(ds, gcfg, mcfg, settings)
    first.step_once()
    path = str(tmp_path / "mid.lgc")
    save_checkpoint(first.pack_state(), path)
    second = Trainer(ds, gcfg, mcfg, settings)
    second.load_state(load_checkpoint(path))
    resumed = [second.step_once() for _ in range(2)]
    assert [r.row("x") for r in resumed] == [r.row("x") for r in reports[1:]]
    assert full.pack_state().equal(second.pack_state())


def test_train_step_zero_lr_bitwise_frozen(trainer_setup):
    ds, mcfg, gcfg = trainer_setup
    settings = TrainSettings(seed=5, replicas=2, lr_speaker=0.0,
                             lr_listener=0.0)
    tr = Trainer(ds, gcfg, mcfg, settings)
    spk_before = {n: t.data.copy() for n, t in tr.speaker.params.items()}
    lst_before = {n: t.data.copy() for n, t in tr.listener.params.items()}
    for _ in range(3):
        tr.step_once()
    for n, t in tr.speaker.params.items():
        assert t.data.tobytes() == spk_before[n].tobytes()
    for n, t in tr.listener.params.items():
        assert t.data.tobytes() == lst_before[n].tobytes()


def test_train_step_bitwise_reproducible(trainer_setup):
    ds, mcfg, gcfg = trainer_setup
    outs = []
    for _ in range(2):
        tr = Trainer(ds, gcfg, mcfg, TrainSettings(seed=6, replicas=2))
        reports = [tr.step_once() for _ in range(5)]
        state = tr.pack_state()
        outs.append((reports, state))
    for a, b in zip(outs[0][0], outs[1][0]):
        assert a.speaker_loss == b.speaker_loss
        assert a.listener_loss == b.listener_loss
        assert a.mean_reward == b.mean_reward
    assert outs[0][1].equal(outs[1][1])


def test_trainer_sync_period_equalizes(trainer_setup):
    ds, mcfg, gcfg = trainer_setup
    tr = Trainer(ds, gcfg, mcfg, TrainSettings(seed=7, replicas=3,
                                               sync_period=5))
    for _ in range(5):
        tr.step_once()
    ref = tr.replicas[0].params
    for rep in tr.replicas[1:]:
        assert rep.params.equal(ref)
    tr.step_once()
    assert not all(rep.params.equal(ref) for rep in tr.replicas[1:])


@pytest.mark.parametrize("obs_dim, cells", [(64, 1), (63, 3)])
def test_trainer_refuses_a_model_that_does_not_read_its_world(trainer_setup,
                                                              obs_dim, cells):
    ds, mcfg, gcfg = trainer_setup
    mcfg = replace(mcfg, obs_dim=obs_dim, n_patches=2 * cells, cells=cells)
    with pytest.raises(FormatError, match=re.escape(
            f"dataset observations (width, cells) (63, 1) do not fit the "
            f"model's ({obs_dim}, {cells})")):
        Trainer(ds, gcfg, mcfg, TrainSettings(seed=3))


def test_trainer_resume_bitwise_continuation(trainer_setup, tmp_path):
    ds, mcfg, gcfg = trainer_setup
    settings = TrainSettings(seed=8, replicas=2)

    full = Trainer(ds, gcfg, mcfg, settings)
    full_reports = [full.step_once() for _ in range(8)]

    first = Trainer(ds, gcfg, mcfg, settings)
    for _ in range(4):
        first.step_once()
    from lewisgame.params import load_checkpoint, save_checkpoint
    path = str(tmp_path / "mid.lgc")
    save_checkpoint(first.pack_state(), path)

    second = Trainer(ds, gcfg, mcfg, settings)
    second.load_state(load_checkpoint(path))
    assert second.step_index == 4
    resumed = [second.step_once() for _ in range(4)]
    for a, b in zip(full_reports[4:], resumed):
        assert a.speaker_loss == b.speaker_loss
        assert a.listener_loss == b.listener_loss
        assert a.mean_reward == b.mean_reward
    assert full.pack_state().equal(second.pack_state())


def test_resume_from_the_step_0_checkpoint_is_bitwise(trainer_setup,
                                                      tmp_path):
    # run's first latest.lgc, written before step 1, already holds the
    # listener's zeroed Adam moments, so it resumes like any other
    from lewisgame.params import load_checkpoint
    ds, mcfg, gcfg = trainer_setup
    settings = TrainSettings(seed=16, replicas=2)
    Trainer(ds, gcfg, mcfg, settings).run(0, checkpoint_dir=str(tmp_path))
    state = load_checkpoint(str(tmp_path / "latest.lgc"))
    optim = state.subset("optim.listener.")
    assert len(optim) == 1 + 2 * len(state.subset("listener."))
    assert all(not t.data.any() for _, t in optim.items())

    full, threads = Trainer(ds, gcfg, mcfg, settings), []
    straight = full.run(3, on_report=lambda _: threads.append(
        threading.active_count()))
    assert threads == [threading.active_count()] * 3  # no rename, no thread
    second = Trainer(ds, gcfg, mcfg, settings)
    second.load_state(state)
    resumed = second.run(3)
    assert [r.row("x") for r in resumed] == [r.row("x") for r in straight]
    assert full.pack_state().equal(second.pack_state())


def test_metrics_rows_reach_disk_before_each_checkpoint(trainer_setup,
                                                       tmp_path, monkeypatch):
    # a resumed run continues the log that is on disk, so the row of
    # every step before a checkpoint must be there when it is written,
    # however large the log's write buffer
    from lewisgame import params
    ds, mcfg, gcfg = trainer_setup
    metrics = tmp_path / "metrics.jsonl"
    save, seen = params.save_checkpoint, []

    def counting(state, path):
        seen.append((int(state["meta.step"].data[0]),
                     len(metrics.read_bytes().splitlines())))
        save(state, path)

    monkeypatch.setattr(params, "save_checkpoint", counting)
    trainer = Trainer(ds, gcfg, mcfg, TrainSettings(seed=3, replicas=1))
    with open(metrics, "w", encoding="utf-8", buffering=1 << 20) as fh:
        trainer.run(5, metrics_fh=fh, checkpoint_dir=str(tmp_path / "ckpt"),
                    checkpoint_every=2)
    assert seen == [(step, step) for step in (0, 2, 4, 5)]


def test_run_leaves_only_its_last_checkpoint(trainer_setup, tmp_path):
    # each checkpoint is staged as latest.lgc.new and renamed on a thread;
    # run returns only after the last rename
    ds, mcfg, gcfg = trainer_setup
    trainer = Trainer(ds, gcfg, mcfg, TrainSettings(seed=3, replicas=2))
    ckpt, threads = tmp_path / "ckpt", threading.active_count()
    trainer.run(5, checkpoint_dir=str(ckpt), checkpoint_every=2)
    assert threading.active_count() == threads
    assert os.listdir(ckpt) == ["latest.lgc"]
    save_checkpoint(trainer.pack_state(), str(tmp_path / "want.lgc"))
    assert ((ckpt / "latest.lgc").read_bytes()
            == (tmp_path / "want.lgc").read_bytes())


def test_run_raises_a_failed_rename_at_the_next_checkpoint(trainer_setup,
                                                           tmp_path):
    # a non-empty directory named latest.lgc cannot be replaced, so the
    # first checkpoint's rename fails on its thread and the checkpoint
    # after step 2 raises its error, leaving the staged file whole
    ds, mcfg, gcfg = trainer_setup
    trainer = Trainer(ds, gcfg, mcfg, TrainSettings(seed=3, replicas=1))
    ckpt = tmp_path / "ckpt"
    (ckpt / "latest.lgc").mkdir(parents=True)
    (ckpt / "latest.lgc" / "keep").write_bytes(b"x")
    threads = threading.active_count()
    with pytest.raises(OSError):
        trainer.run(5, checkpoint_dir=str(ckpt), checkpoint_every=2)
    assert threading.active_count() == threads
    assert trainer.step_index == 2
    assert sorted(os.listdir(ckpt)) == ["latest.lgc", "latest.lgc.new"]
    staged = load_checkpoint(str(ckpt / "latest.lgc.new"))
    assert staged["meta.step"].data.tolist() == [0.0]


def test_run_raises_a_failed_last_rename_as_it_ends(trainer_setup, tmp_path,
                                                    monkeypatch):
    # the step-2 rename lands; then latest.lgc becomes a non-empty
    # directory, so only the last rename fails, and run raises its error
    from lewisgame import params
    ds, mcfg, gcfg = trainer_setup
    trainer = Trainer(ds, gcfg, mcfg, TrainSettings(seed=3, replicas=1))
    latest = tmp_path / "latest.lgc"
    save = params.save_checkpoint

    def blocked_at_the_end(state, path):
        if state["meta.step"].data[0] == 3:
            latest.unlink()
            latest.mkdir()
            (latest / "keep").write_bytes(b"x")
        save(state, path)

    monkeypatch.setattr(params, "save_checkpoint", blocked_at_the_end)
    with pytest.raises(OSError):
        trainer.run(3, checkpoint_dir=str(tmp_path), checkpoint_every=2)
    assert trainer.step_index == 3
    assert sorted(os.listdir(tmp_path)) == ["latest.lgc", "latest.lgc.new"]


def test_run_joins_its_rename_before_a_step_error_leaves(trainer_setup,
                                                         tmp_path,
                                                         monkeypatch):
    # a step that fails after a checkpoint leaves run only once that
    # checkpoint is in place, so a caller may then write its own; a
    # failed rename does not replace the step's error
    ds, mcfg, gcfg = trainer_setup
    trainer = Trainer(ds, gcfg, mcfg, TrainSettings(seed=3, replicas=1))
    step_once = trainer.step_once

    def failing():
        if trainer.step_index == 3:
            raise NumericalFailureError("step 3")
        return step_once()

    monkeypatch.setattr(trainer, "step_once", failing)
    ckpt, threads = tmp_path / "ckpt", threading.active_count()
    with pytest.raises(NumericalFailureError):
        trainer.run(5, checkpoint_dir=str(ckpt), checkpoint_every=3)
    assert threading.active_count() == threads
    assert os.listdir(ckpt) == ["latest.lgc"]
    state = load_checkpoint(str(ckpt / "latest.lgc"))
    assert state.equal(trainer.pack_state())
    (ckpt / "latest.lgc").unlink()
    (ckpt / "latest.lgc").mkdir()
    (ckpt / "latest.lgc" / "keep").write_bytes(b"x")
    with pytest.raises(NumericalFailureError):
        trainer.run(5, checkpoint_dir=str(ckpt), checkpoint_every=3)
    assert threading.active_count() == threads


def test_train_step_aborts_on_nonfinite(trainer_setup):
    # after one good step Adam's moments and count are live; a step whose
    # loss is not finite then changes no weight, moment, count or step
    ds, mcfg, gcfg = trainer_setup
    tr = Trainer(ds, gcfg, mcfg, TrainSettings(seed=9, replicas=2))
    tr.step_once()
    tr.listener.params["img.w"].data[:] = np.inf
    # the state shares the agents' and moments' arrays, so copy its bytes
    before = {n: t.data.tobytes() for n, t in tr.pack_state().items()}
    with pytest.raises(NumericalFailureError):
        tr.step_once()
    after = {n: t.data.tobytes() for n, t in tr.pack_state().items()}
    assert after == before
    assert tr.step_index == 1 and tr.listener_opt.t == 1
    for params in [rep.params for rep in tr.replicas] + [tr.listener.params]:
        assert all(t.grad is None for _, t in params.items())


def test_sequence_loss_over_captions_is_their_mean_token_nll(trainer_setup):
    # the warm start's loss: SpeakerPolicy.logprobs of reference captions
    # weighted -1 / (tokens in the batch) is their mean token NLL, and
    # per-caption weights -1 / (B * length) give the mean over captions
    # of each caption's mean token NLL, against the op-by-op decoder in
    # float64. Each log-prob is within 2e-6 of the oracle's (the block
    # tolerance of tests/test_agents.py), so either mean is too; they
    # read within 2e-7 of it.
    ds, mcfg, _ = trainer_setup
    speaker = SpeakerPolicy.create(mcfg, 3)
    idx = np.array([0, 7, 19, 42])
    messages = [list(ds.captions[i][0]) + [EOS] for i in idx]
    obs = ds.model_inputs()[idx]
    nll = [-reference.logprobs(speaker, o, m).data.astype(np.float64)
           for o, m in zip(obs, messages)]
    lengths = np.array([len(m) for m in messages])
    assert len(set(lengths)) > 1
    node = speaker.logprobs(obs, messages)
    per_caption = np.where(np.arange(lengths.max()) < lengths[:, None],
                           -1 / (lengths[:, None] * idx.size), 0)
    for weights, want in (
            (np.float32(-1 / lengths.sum()),
             sum(x.sum() for x in nll) / lengths.sum()),
            (per_caption, np.mean([x.mean() for x in nll]))):
        got = sequence_loss(None, node, weights).item()
        assert abs(got - want) <= 2e-6


def test_supervised_pretrain_aborts_on_nonfinite(trainer_setup):
    # the warm start steps through the same update: a diverging step
    # raises instead of writing non-finite weights
    ds, mcfg, _ = trainer_setup
    speaker = SpeakerPolicy.create(mcfg, 1)
    with pytest.raises(NumericalFailureError), \
            np.errstate(over="ignore", invalid="ignore"):
        supervised_pretrain(speaker, ds, steps=20, lr=3e38, seed=0,
                            clip_norm=1.0)
    for _, t in speaker.params.items():
        assert np.isfinite(t.data).all()
        assert t.grad is None


# (entry, its new value or None to drop it, the refusal's message): a
# misshapen listener weight, then every way the listener's Adam moments
# and step count can be wrong
REFUSED_ENTRIES = [
    ("listener.img.w", lambda s: s["listener.img.w"].data[:-1],
     "checkpoint shape mismatch for listener.img.w"),
    ("optim.listener.x.w", lambda s: [0.0],
     "unexpected checkpoint entry 'optim.listener.x.w'"),
    ("optim.listener.m.u", lambda s: [0.0],
     "unexpected checkpoint entry 'optim.listener.m.u'"),
    ("optim.listener.m.img.w", lambda s: s["optim.listener.m.img.w"].data[1:],
     "checkpoint shape mismatch for optim.listener.m.img.w"),
    ("optim.listener.v.img.w", lambda s: None,
     "missing checkpoint entry 'optim.listener.v.img.w'"),
    ("optim.listener.t", lambda s: [np.nan],
     "checkpoint entry optim.listener.t is not finite"),
    ("optim.listener.t", lambda s: [-1.0],
     "optim.listener.t is not a whole number >= 0"),
    ("optim.listener.t", lambda s: [0.5],
     "optim.listener.t is not a whole number >= 0"),
    ("optim.listener.t", lambda s: None,
     "missing checkpoint entry 'optim.listener.t'"),
    ("optim.listener.t", lambda s: [1.0, 1.0],
     "checkpoint shape mismatch for optim.listener.t"),
]


@pytest.mark.parametrize("entry, value, message", REFUSED_ENTRIES, ids=[
    "listener-shape", "unknown-kind", "unknown-parameter", "moment-size",
    "unpaired-moment", "step-nan", "step-negative", "step-fraction",
    "step-missing", "step-not-one-number"])
def test_refused_checkpoint_leaves_the_trainer_as_it_was(trainer_setup, entry,
                                                         value, message):
    def edit(packed):
        data = value(packed)
        state = ParameterSet()
        for name, t in packed.items():
            if name != entry:
                state.add(name, t)
        if data is not None:
            state.add(entry, Tensor(data))
        return state

    _assert_refused_whole(trainer_setup, edit, message)


def test_checkpoint_with_per_gate_grus_is_refused(trainer_setup):
    # each GRU is stored as one weight and one bias; a checkpoint of the
    # older per-gate layout is refused at the first entry it lacks
    _assert_refused_whole(trainer_setup, reference.per_gate,
                          "missing checkpoint entry 'listener.gru.b'")


def _assert_refused_whole(trainer_setup, edit, message):
    """Assert that loading ``edit`` of a stepped trainer's state into a
    fresh trainer raises ``FormatError`` with ``message`` and changes
    nothing."""
    # the speaker's entries come first and fit, so a loader that copies
    # as it checks would take the speaker's; the source has stepped, so
    # its Adam moments and step count differ from the target's too
    ds, mcfg, gcfg = trainer_setup
    source = Trainer(ds, gcfg, mcfg, TrainSettings(seed=1, replicas=1))
    source.step_once()
    target = Trainer(ds, gcfg, mcfg, TrainSettings(seed=2, replicas=1))
    state = edit(source.pack_state())
    before = {name: t.data.copy() for name, t in target.pack_state().items()}
    with pytest.raises(FormatError, match=re.escape(message)):
        target.load_state(state)
    after = target.pack_state()
    assert after.names() == sorted(before)
    assert all(t.data.tobytes() == before[name].tobytes()
               for name, t in after.items())
    assert (target.speaker.params["emb"].data.tobytes()
            != source.speaker.params["emb"].data.tobytes())
    assert target.listener_opt.t == 0 and target.step_index == 0
