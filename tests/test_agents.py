from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import reference
from reference import generate_dataset, gradcheck

from lewisgame import tensor as T
from lewisgame._decode import _draw, gru_sequence
from lewisgame.agents import (ListenerModel, ModelConfig, SpeakerPolicy,
                              model_config_from_params)
from lewisgame.config import RunConfig
from lewisgame.params import ParameterSet
from lewisgame.tensor import ShapeError, Tape, Tensor, backward
from lewisgame.world import EOS, WorldSpec


@pytest.fixture(scope="module")
def world():
    spec = WorldSpec()
    ds = generate_dataset(7, 48, spec)
    cfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                      d_e=32, d_o=24, n_layers=2, n_patches=3)
    speaker = SpeakerPolicy.create(cfg, 11)
    listener = ListenerModel.create(cfg, 13, encoder=speaker)
    return ds, cfg, speaker, listener


def test_sample_contract(world):
    ds, cfg, speaker, _ = world
    rng = np.random.default_rng(0)
    samples, node = speaker.sample(ds.model_inputs()[0], 12, 5, rng)
    assert len(samples) == 5
    assert node.shape == (5, max(s.length for s in samples))
    assert (node.data <= 0).all()
    for s, row in zip(samples, node.data):
        assert 1 <= s.length <= 12
        assert all(0 <= t < cfg.vocab_size for t in s.tokens)
        assert not row[s.length:].any()
        if EOS in s.tokens:
            assert s.tokens.index(EOS) == s.length - 1
    # generally distinct when drawn from the softmax
    assert len({s.tokens for s in samples}) > 1


def test_greedy_is_deterministic(world):
    ds, _, speaker, _ = world
    (a,), a_node = speaker.sample(ds.model_inputs()[3], 12, 1, None)
    (b,), b_node = speaker.sample(ds.model_inputs()[3], 12, 1, None)
    assert a.tokens == b.tokens
    assert a_node.data.tobytes() == b_node.data.tobytes()


@pytest.mark.parametrize("t_max", [0, -1])
def test_sample_refuses_fewer_than_one_step(world, t_max):
    ds, _, speaker, _ = world
    with pytest.raises(ValueError, match=f"t_max must be >= 1, got {t_max}"):
        speaker.sample(ds.model_inputs()[3], t_max, 1, None)


def test_sampling_deterministic_given_seed(world):
    ds, _, speaker, _ = world
    s1, _ = speaker.sample(ds.model_inputs()[1], 12, 3,
                           np.random.default_rng(99))
    s2, _ = speaker.sample(ds.model_inputs()[1], 12, 3,
                           np.random.default_rng(99))
    assert [m.tokens for m in s1] == [m.tokens for m in s2]


def test_rescoring_reproduces_sampled_logprobs_bitwise(world):
    # a sampled block rescored teacher-forced as a block of the same shape
    ds, _, speaker, _ = world
    obs = ds.model_inputs()[2:5]
    samples, node = speaker.sample(obs, 12, 5,
                                   np.random.default_rng(5))
    rescored = speaker.logprobs(np.repeat(obs, 5, axis=0),
                                [s.tokens for s in samples])
    assert len({s.length for s in samples}) > 1
    assert rescored.shape == node.shape
    assert rescored.data.tobytes() == node.data.tobytes()
    for s, row in zip(samples, node.data):
        assert not row[s.length:].any()
    # alone, a message is a block of another shape: equal to round-off
    alone = speaker.logprobs(obs[1], [samples[7].tokens])
    assert alone.shape == (1, samples[7].length)
    assert (np.abs(alone.data - node.data[7, :samples[7].length]).max()
            <= BLOCK_LOGPROB_ATOL)


@pytest.mark.parametrize("n_layers", [1, 2])
def test_early_ended_sample_gradients_match_rescoring_bitwise(world,
                                                              n_layers):
    # every row ends before t_max, so the sampling loop breaks early and
    # its backward reads the tail of buffers sized for t_max steps
    ds, cfg, _, _ = world
    speaker = SpeakerPolicy.create(
        ModelConfig(**{**cfg.__dict__, "n_layers": n_layers}), 29)
    speaker.params["head.b"].data[EOS] += 1.5  # ends every row
    obs = ds.model_inputs()[20:23]
    t_max = 40
    grads = {}
    for path in ("sampled", "rescored"):
        speaker.params.zero_grads()
        tape = Tape()
        if path == "sampled":
            samples, node = speaker.sample(obs, t_max, 4,
                                           np.random.default_rng(8), tape)
        else:
            node = speaker.logprobs(np.repeat(obs, 4, axis=0),
                                    [s.tokens for s in samples], tape)
        weights = np.random.default_rng(6).normal(0, 1, node.shape)
        backward(tape, T.tsum(tape, T.mul(tape, node, Tensor(weights))))
        grads[path] = _grads(speaker.params)
    assert 1 < node.shape[1] < t_max
    assert len({s.length for s in samples}) > 1
    assert grads["sampled"].keys() == grads["rescored"].keys()
    for name, g in grads["rescored"].items():
        assert grads["sampled"][name].tobytes() == g.tobytes(), name


def test_fused_and_generic_paths_agree_bitwise(world):
    # a one-row block draws with rng.choice's rule, as the op-by-op
    # decoder does, and runs the same numpy calls
    ds, _, speaker, _ = world
    for i, seed in ((4, 1), (5, 2), (6, 3), (7, 4)):
        obs = ds.model_inputs()[i]
        (f1,), n1 = speaker.sample(obs, 10, 1,
                                   np.random.default_rng(seed))
        (f2,), (n2,) = reference.sample(speaker, obs, 10, 1,
                                        np.random.default_rng(seed))
        assert f1.tokens == f2.tokens
        assert n1.data.tobytes() == n2.data.tobytes()


def test_logprobs_refuses_token_ids_outside_the_vocabulary(world):
    # a negative id must not wrap to the end of the vocabulary, and one
    # past it must not reach the kernel
    ds, cfg, speaker, _ = world
    V = cfg.vocab_size
    obs = ds.model_inputs()[:2]
    for bad in (4 - V, -1, V, V + 3):
        with pytest.raises(IndexError, match=rf"^logprobs: index {bad} out "
                                             rf"of range \[0, {V}\)$"):
            speaker.logprobs(obs, [[5, 6], [3, bad]])
    assert speaker.logprobs(obs, [[5, 6], [3, V - 1]]).shape == (2, 2)


def test_embed_message_refuses_token_ids_outside_the_vocabulary(world):
    # refused before the kernel's table gather, where a negative id would
    # wrap, and before anything is recorded
    _, cfg, _, listener = world
    V = cfg.vocab_size
    for bad in (4 - V, -1, V, V + 3):
        tape = Tape()
        with pytest.raises(IndexError, match=rf"^embed_message: index {bad} "
                                             rf"out of range \[0, {V}\)$"):
            listener.embed_message([[5, 6], [3, bad]], tape)
        assert len(tape) == 0
    assert listener.embed_message([[5, 6], [3, V - 1]]).shape == (2, cfg.d_o)


def test_sample_encodes_each_observation_once(world, monkeypatch):
    # an observation's G samples share its encoding: the encoder's first
    # product has one row per observation, whatever G is, and so the
    # tape holds the same nodes at G = 1 and G = 5
    ds, cfg, speaker, _ = world
    obs = ds.model_inputs()[:4]
    products = []
    matmul = T.matmul
    monkeypatch.setattr(T, "matmul", lambda tape, a, b: products.append(
        (a.shape, b)) or matmul(tape, a, b))
    counts = []
    for g in (1, 5):
        products.clear()
        tape = Tape()
        _, node = speaker.sample(obs, 6, g, np.random.default_rng(3),
                                 tape)
        assert node.shape[0] == 4 * g
        assert products[0] == ((4, cfg.obs_dim), speaker.params["enc.l1.w"])
        counts.append(len(tape))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("n_layers", [1, 2])
def test_untaped_forward_passes_match_taped_bitwise(world, n_layers):
    # untaped, the kernels keep no buffers and update their states in
    # place; they must compute what the taped kernels record, bit for bit
    ds, cfg, _, _ = world
    cfg = ModelConfig(**{**cfg.__dict__, "n_layers": n_layers})
    speaker = SpeakerPolicy.create(cfg, 11)
    listener = ListenerModel.create(cfg, 13, encoder=speaker)
    obs = ds.model_inputs()[:6]

    def same(a, b):
        assert a.shape == b.shape and a.data.tobytes() == b.data.tobytes()

    for seed in (5, None):  # sampled, then greedy
        (s0, n0), (s1, n1) = (
            speaker.sample(obs, 8, 3, None if seed is None
                           else np.random.default_rng(seed), tape)
            for tape in (None, Tape()))
        assert [m.tokens for m in s0] == [m.tokens for m in s1]
        same(n0, n1)
    rng = np.random.default_rng(2)
    messages = [rng.integers(4, len(ds.vocab), n).tolist()
                for n in (3, 1, 7, 5, 2, 6)]
    same(speaker.logprobs(obs, messages),
         speaker.logprobs(obs, messages, Tape()))
    same(listener.embed_message(messages),
         listener.embed_message(messages, Tape()))


def test_draw_one_row_matches_rng_choice():
    rng = np.random.default_rng(0)
    for seed in range(500):
        logits = rng.normal(0, 2, (1, 23)).astype(np.float32)
        xs = logits.ravel().astype(np.float64)
        xs -= xs.max()
        prob = np.exp(xs)
        prob /= prob.sum()
        want = np.random.default_rng(seed).choice(23, p=prob)
        got = _draw(logits, np.random.default_rng(seed), np.ones(1, bool))
        assert got.tolist() == [want]


def test_draw_takes_one_uniform_per_row_in_row_order():
    # rows that are not live get <eos> and take no uniform
    rng = np.random.default_rng(1)
    logits = rng.normal(0, 2, (6, 11)).astype(np.float32)
    live = np.array([True, False, True, True, False, True])
    block = _draw(logits, np.random.default_rng(9), live)
    stream = np.random.default_rng(9)
    rows = [_draw(row[None], stream, np.ones(1, bool))[0] if on
            else EOS for row, on in zip(logits, live)]
    assert block.tolist() == rows
    # greedy if and only if there is no rng
    greedy = np.where(live, np.argmax(logits, 1), EOS)
    assert _draw(logits, None, live).tolist() == greedy.tolist()
    assert block.tolist() != greedy.tolist()


# Largest differences between a row of a block and the op-by-op oracle
# run on that message alone (float32 round-off: matmuls over B rows sum
# in another order), measured over 8-row blocks of lengths 1 to 12 like
# the ones below, at d_e = d_o of 32 (1, 2 and 3 layers), 64 and 128,
# three seeds each. Decoder, on the plain and the raster world: log-probs
# 2.4e-7 absolute, gradients 1.7e-6 of a parameter's largest gradient.
# Message GRU: summaries 1.8e-7 absolute, gradients 8.7e-7 relative.
# Sampled 3 x 5 blocks, whose observations sum their five rows'
# gradients (d_e 32 and 64, 1 to 3 layers, three seeds): log-probs
# 4.8e-7, gradients 2.0e-6. The bounds leave at least 2.5x headroom.
BLOCK_LOGPROB_ATOL = 2e-6
BLOCK_GRAD_RTOL = 5e-6


def _block_messages(ds, speaker, t_max):
    """Eight rows over different observations, lengths 1 to ``t_max``."""
    rng = np.random.default_rng(7)
    lengths = [1, t_max, 3, 1, 7, t_max, 2, 5]
    messages = [[int(t) for t in rng.integers(4, speaker.cfg.vocab_size, n)]
                for n in lengths]
    return ds.model_inputs()[10:18], messages


@pytest.fixture(scope="module")
def raster_world():
    # P = grid² = 16 patches per observation feed the first layer's patch
    # projection, where the plain world has 3
    spec = WorldSpec(raster=True)
    ds = generate_dataset(7, 18, spec)
    cfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                      d_e=32, d_o=24, n_patches=spec.cells, cells=spec.cells)
    return ds, cfg


@pytest.mark.parametrize("n_layers, raster", [
    pytest.param(1, False, id="1"), pytest.param(2, False, id="2"),
    pytest.param(3, False, id="3"), pytest.param(2, True, id="raster")])
def test_decode_block_matches_per_message_reference(world, n_layers, raster,
                                                    request):
    ds, cfg = (request.getfixturevalue("raster_world") if raster
               else world[:2])
    speaker = SpeakerPolicy.create(
        ModelConfig(**{**cfg.__dict__, "n_layers": n_layers}), 23)
    obs, messages = _block_messages(ds, speaker, 12)
    weights = np.random.default_rng(4).normal(0, 1, (len(messages), 12))
    speaker.params.zero_grads()
    tape = Tape()
    node = speaker.logprobs(obs, messages, tape)
    assert node.shape == (len(messages), 12)
    backward(tape, T.tsum(tape, T.mul(tape, node, Tensor(weights))))
    block = _grads(speaker.params)
    speaker.params.zero_grads()
    for row, (o, m) in enumerate(zip(obs, messages)):
        tape = Tape()
        ref = reference.logprobs(speaker, o, m, tape)
        assert ref.shape == (len(m), 1)
        assert (np.abs(node.data[row, :len(m)] - ref.data[:, 0]).max()
                <= BLOCK_LOGPROB_ATOL)
        assert not node.data[row, len(m):].any()
        w = Tensor(weights[row, :len(m)].reshape(-1, 1))
        backward(tape, T.tsum(tape, T.mul(tape, ref, w)))
    per_message = _grads(speaker.params)
    assert block.keys() == per_message.keys()
    for name, g in per_message.items():
        assert (np.abs(block[name] - g).max()
                <= BLOCK_GRAD_RTOL * np.abs(g).max()), name


@pytest.mark.parametrize("n_layers", [1, 2])
def test_sampled_block_gradients_match_per_message_reference(world, n_layers):
    # each observation's G samples share one encoding, so its encoder
    # rows, attention keys and start states take the sum of its messages'
    # gradients, which the oracle adds up one message at a time
    ds, cfg, _, _ = world
    speaker = SpeakerPolicy.create(
        ModelConfig(**{**cfg.__dict__, "n_layers": n_layers}), 23)
    obs = ds.model_inputs()[10:13]
    speaker.params.zero_grads()
    tape = Tape()
    samples, node = speaker.sample(obs, 12, 5,
                                   np.random.default_rng(4), tape)
    weights = np.random.default_rng(5).normal(0, 1, node.shape)
    backward(tape, T.tsum(tape, T.mul(tape, node, Tensor(weights))))
    block = _grads(speaker.params)
    speaker.params.zero_grads()
    for row, s in enumerate(samples):
        tape = Tape()
        ref = reference.logprobs(speaker, obs[row // 5], s.tokens, tape)
        assert (np.abs(node.data[row, :s.length] - ref.data[:, 0]).max()
                <= BLOCK_LOGPROB_ATOL)
        w = Tensor(weights[row, :s.length].reshape(-1, 1))
        backward(tape, T.tsum(tape, T.mul(tape, ref, w)))
    per_message = _grads(speaker.params)
    assert len({s.length for s in samples}) > 1
    assert block.keys() == per_message.keys()
    for name, g in per_message.items():
        assert (np.abs(block[name] - g).max()
                <= BLOCK_GRAD_RTOL * np.abs(g).max()), name


# Largest differences between the split-form cell and the concatenated
# one, for the cases below built as below with seeds 0 to 19: outputs
# 4.9e-7 absolute, gradients 8.3e-7 of an input's largest gradient. The
# bounds leave at least 4x headroom.
SPLIT_CELL_ATOL = 2e-6
SPLIT_CELL_GRAD_RTOL = 5e-6


@pytest.mark.parametrize("d_x, d_h", [(32, 24), (64, 32)])
def test_split_form_gru_cell_matches_concat_form(d_x, d_h):
    # the oracles' split form, x·W_x + b and the state rows apart, against
    # the textbook cell on [h, x]·W: the listener's GRU (d_e in, d_o
    # state) and the decoder's first layer ([token, context] in) at the
    # test world's widths. Rewriting the oracles with the kernels must
    # not change the function both compute.
    rng = np.random.default_rng(0)
    ps = ParameterSet()
    ps.add("w", Tensor(rng.normal(0, 0.2, (d_h + d_x, 3 * d_h)), True))
    ps.add("b", Tensor(rng.normal(0, 0.2, 3 * d_h), True))
    ps.add("x", Tensor(rng.normal(0, 1, (5, d_x)), True))
    ps.add("h", Tensor(rng.normal(0, 0.5, (5, d_h)), True))
    w, b = ps["w"], ps["b"]

    def concat_form(tape):
        return reference.gru_cell(tape, ps["x"], ps["h"], w, b)

    def split_form(tape):
        w_x = reference.input_rows(tape, w, d_h, d_h + d_x)
        xs = T.add(tape, T.matmul(tape, ps["x"], w_x), b)
        return reference.gru_cell_split(tape, xs, ps["h"],
                                        reference.state_rows(tape, w))

    weights = Tensor(rng.normal(0, 1, (5, d_h)))
    out, grads = {}, {}
    for form, cell in (("concat", concat_form), ("split", split_form)):
        ps.zero_grads()
        tape = Tape()
        y = cell(tape)
        backward(tape, T.tsum(tape, T.mul(tape, y, weights)))
        out[form] = y.data.copy()
        grads[form] = _grads(ps)
    assert np.abs(out["split"] - out["concat"]).max() <= SPLIT_CELL_ATOL
    assert grads["split"].keys() == grads["concat"].keys() == set(ps.names())
    for name, g in grads["concat"].items():
        assert (np.abs(grads["split"][name] - g).max()
                <= SPLIT_CELL_GRAD_RTOL * np.abs(g).max()), name


def _grads(params) -> dict:
    return {n: t.grad.copy() for n, t in params.items() if t.grad is not None}


def _assert_grads_close(fused: dict, generic: dict) -> None:
    assert fused and fused.keys() == generic.keys()
    for name in fused:
        assert np.allclose(fused[name], generic[name], rtol=1e-4,
                           atol=1e-6), name


def test_fused_and_generic_gradients_agree(world):
    ds, _, speaker, _ = world
    obs = ds.model_inputs()[6]
    msg, _ = speaker.sample(obs, 8, 1, np.random.default_rng(3))
    grads = {}
    fused = lambda o, m, tape: speaker.logprobs(o[None], [m], tape)
    for path, logprobs in (("fused", fused),
                           ("generic", partial(reference.logprobs, speaker))):
        speaker.params.zero_grads()
        tape = Tape()
        node = logprobs(obs, msg[0].tokens, tape)
        backward(tape, T.tsum(tape, node))
        grads[path] = _grads(speaker.params)
    _assert_grads_close(grads["fused"], grads["generic"])


@pytest.fixture(scope="module", params=["plain", "raster"])
def encoder_world(request):
    raster = request.param == "raster"
    spec = WorldSpec(raster=raster)
    ds = generate_dataset(5, 8, spec)
    cfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                      d_e=16, d_o=8, n_patches=spec.cells if raster else 3,
                      cells=spec.cells)
    return ds, SpeakerPolicy.create(cfg, 17)


def test_encode_observation_matches_reference_bitwise(encoder_world):
    ds, speaker = encoder_world
    for obs in ds.model_inputs()[:4]:
        fused = speaker.encode(obs, None)
        generic = reference.encode(speaker, obs, None)
        assert fused.shape == generic.shape
        assert fused.data.tobytes() == generic.data.tobytes()


def test_encode_observation_gradients_match_reference(encoder_world):
    ds, speaker = encoder_world
    obs = ds.model_inputs()[1]
    cfg = speaker.cfg
    # a random weighting, so that no two output cells get the same gradient
    weights = Tensor(np.random.default_rng(0).normal(
        0, 1, (cfg.n_patches, cfg.d_e)))
    grads = {}
    for path, encode in (("fused", speaker.encode),
                         ("generic", partial(reference.encode, speaker))):
        speaker.params.zero_grads()
        tape = Tape()
        out = encode(obs, tape)
        backward(tape, T.tsum(tape, T.mul(tape, out, weights)))
        grads[path] = _grads(speaker.params)
    _assert_grads_close(grads["fused"], grads["generic"])


def _weighted_sum(node, seed):
    # a random weighting, so that no two output cells get the same gradient
    weights = Tensor(np.random.default_rng(seed).normal(0, 1, node.shape))
    return lambda tape, out: T.tsum(tape, T.mul(tape, out, weights))


def test_encode_gradients_match_finite_differences(encoder_world):
    # independent of the op sequence the encoder is built from
    ds, speaker = encoder_world
    obs = ds.model_inputs()[:2]
    loss = _weighted_sum(speaker.encode(obs, None), 1)
    err = gradcheck(lambda ps, tape: loss(tape, speaker.encode(obs, tape)),
                    speaker.params.subset("enc."), eps=1e-2, n_coords=6)
    assert err < 1e-3, f"gradcheck error {err}"


def test_listener_projection_gradients_match_finite_differences(world):
    ds, _, speaker, listener = world
    messages = [s.tokens for s in speaker.sample(
        ds.model_inputs()[:3], 6, 1, np.random.default_rng(4))[0]]
    loss = _weighted_sum(listener.embed_message(messages), 2)
    err = gradcheck(
        lambda ps, tape: loss(tape, listener.embed_message(messages, tape)),
        listener.params.subset("proj."), eps=1e-2, n_coords=6)
    assert err < 1e-3, f"gradcheck error {err}"


def test_speaker_refuses_observations_of_another_width(world):
    ds, cfg, speaker, _ = world
    wide = np.tile(ds.model_inputs()[:2], 3)  # three observations per row
    assert wide.shape[1] == 3 * cfg.obs_dim
    rng = np.random.default_rng(0)
    calls = [lambda: speaker.encode(wide, None),
             lambda: speaker.encode(wide[0], None),
             lambda: speaker.sample(wide[0], 4, 2, rng),
             lambda: speaker.logprobs(wide, [[3, 4], [5]])]
    for call in calls:
        with pytest.raises(ShapeError, match=f"obs_dim {cfg.obs_dim}"):
            call()


def test_embed_images_matches_per_candidate_reference(encoder_world):
    ds, speaker = encoder_world
    cfg = speaker.cfg
    listener = ListenerModel.create(cfg, 19, encoder=speaker)
    obs = ds.model_inputs()[:6]
    weights = Tensor(np.random.default_rng(3).normal(0, 1, (6, cfg.d_o)))
    out, grads = {}, {}
    for path, embed in (("batched", listener.embed_images),
                        ("reference", partial(reference.embed_images,
                                              listener))):
        speaker.params.zero_grads()
        listener.params.zero_grads()
        tape = Tape()
        v = embed(obs, tape)
        backward(tape, T.tsum(tape, T.mul(tape, v, weights)))
        out[path] = v.data.copy()
        grads[path] = {**_grads(speaker.params),
                       **{f"listener.{n}": g for n, g in
                          _grads(listener.params).items()}}
    want = out["reference"]
    assert out["batched"].shape == want.shape == (6, cfg.d_o)
    assert (np.abs(out["batched"] - want).max()
            <= 1e-6 * max(1.0, np.abs(want).max()))
    assert grads["batched"].keys() == grads["reference"].keys()
    assert "enc.l1.w" in grads["batched"]
    for name, g in grads["reference"].items():
        assert (np.abs(grads["batched"][name] - g).max()
                <= 1e-5 * np.abs(g).max()), name


def test_embed_images_tape_nodes_independent_of_k(world):
    # a per-candidate loop would record nodes in proportion to K
    ds, _, speaker, listener = world
    counts = []
    for k in (2, 33):
        tape = Tape()
        listener.embed_images(ds.model_inputs()[:k], tape)
        counts.append(len(tape))
    assert counts[0] == counts[1] > 0


def _listener_gru(listener):
    p = listener.params
    return p["gru.w"], p["gru.b"]


def test_gru_sequence_matches_reference_bitwise(world):
    _, _, _, listener = world
    emb = listener.params["emb"]
    for tokens in ([5], [4, 2, 1], [7, 7, 3, 9, 2, 5]):
        fused = gru_sequence(emb, np.array(tokens)[:, None], [len(tokens)],
                             *_listener_gru(listener), None)
        generic = reference.gru_sequence(emb, tokens,
                                         *_listener_gru(listener), None)
        assert fused.shape == generic.shape
        assert fused.data.tobytes() == generic.data.tobytes()


def test_gru_sequence_gradients_match_reference(world):
    _, _, _, listener = world
    tokens = [7, 7, 3, 9, 2, 5]
    weights = Tensor(np.random.default_rng(1).normal(
        0, 1, (1, listener.cfg.d_o)))
    grads = {}
    fused = lambda emb, toks, *args: gru_sequence(
        emb, np.array(toks)[:, None], [len(toks)], *args)
    for path, run in (("fused", fused), ("generic", reference.gru_sequence)):
        listener.params.zero_grads()
        tape = Tape()
        h = run(listener.params["emb"], tokens, *_listener_gru(listener), tape)
        backward(tape, T.tsum(tape, T.mul(tape, h, weights)))
        grads[path] = _grads(listener.params)
    _assert_grads_close(grads["fused"], grads["generic"])


def test_embed_message_block_matches_per_message_reference(world):
    # mixed lengths, so padded steps must neither move a row's state nor
    # take gradient
    ds, _, _, listener = world
    _, messages = _block_messages(ds, listener, 12)
    weights = np.random.default_rng(2).normal(
        0, 1, (len(messages), listener.cfg.d_o))
    listener.params.zero_grads()
    tape = Tape()
    block = listener.embed_message(messages, tape)
    backward(tape, T.tsum(tape, T.mul(tape, block, Tensor(weights))))
    block_grads = _grads(listener.params)
    listener.params.zero_grads()
    for row, m in enumerate(messages):
        tape = Tape()
        want = reference.embed_message(listener, m, tape)
        assert (np.abs(block.data[row] - want.data).max()
                <= BLOCK_LOGPROB_ATOL)
        backward(tape, T.tsum(tape, T.mul(tape, want,
                                          Tensor(weights[row:row + 1]))))
    per_message = _grads(listener.params)
    assert block_grads.keys() == per_message.keys()
    for name, g in per_message.items():
        assert (np.abs(block_grads[name] - g).max()
                <= BLOCK_GRAD_RTOL * np.abs(g).max()), name


def test_per_step_distribution_normalized(world):
    # exp of log-probs over the whole vocab sums to 1 at each step
    ds, cfg, speaker, _ = world
    obs = ds.model_inputs()[0]
    patches, keys, hidden = reference.start(speaker, obs, None)
    layer0 = reference.first_layer(speaker, patches, None)
    logits, hidden, alpha = reference.step(speaker, 0, hidden, keys, layer0,
                                           None)
    logp = T.log_softmax(None, logits)
    assert abs(np.exp(logp.data).sum() - 1.0) < 1e-5
    assert abs(alpha.data.sum() - 1.0) < 1e-6


def test_attention_weights_normalized_every_step(world):
    ds, cfg, speaker, _ = world
    obs = ds.model_inputs()[9]
    patches, keys, hidden = reference.start(speaker, obs, None)
    layer0 = reference.first_layer(speaker, patches, None)
    tok = 0
    for _ in range(6):
        logits, hidden, alpha = reference.step(speaker, tok, hidden, keys,
                                               layer0, None)
        assert abs(alpha.data.sum() - 1.0) < 1e-6
        tok = int(np.argmax(logits.data))


def test_listener_embed_identical_obs_bitwise(world):
    ds, _, speaker, listener = world
    obs = ds.model_inputs()[:4].copy()
    obs[2] = obs[0]
    v_m = listener.embed_message([[5, 6, 1]])
    v_imgs = listener.embed_images(obs)
    rows = v_imgs.data
    assert rows[0].tobytes() == rows[2].tobytes()
    assert np.isfinite(v_m.data).all()


def test_listener_embed_permutation_equivariant(world):
    ds, _, speaker, listener = world
    obs = ds.model_inputs()[:5]
    perm = [3, 1, 4, 0, 2]
    v1 = listener.embed_images(obs)
    v2 = listener.embed_images(obs[perm])
    assert v2.data.tobytes() == v1.data[perm].tobytes()


def test_listener_embed_rejects_empty_message(world):
    ds, _, speaker, listener = world
    with pytest.raises(ValueError, match="non-empty"):
        listener.embed_message([])
    with pytest.raises(ValueError, match="non-empty"):
        listener.embed_message([[4, 1], []])


def test_listener_probs_uniform_when_identical():
    v_m = np.ones(8, np.float32)
    vs = np.tile(np.arange(8, dtype=np.float32), (5, 1))
    p = reference.listener_probs(v_m, vs)
    assert np.allclose(p, 0.2, atol=1e-6)


def test_listener_probs_direct_value():
    # inner products [0, ln 2] -> [1/3, 2/3]
    v_m = np.array([1.0, 0.0], np.float32)
    vs = np.array([[0.0, 5.0], [np.log(2.0), -3.0]], np.float32)
    p = reference.listener_probs(v_m, vs)
    assert np.allclose(p, [1 / 3, 2 / 3], atol=1e-6)


def test_listener_probs_shift_invariant():
    rng = np.random.default_rng(0)
    v_m = rng.normal(0, 1, 6).astype(np.float32)
    vs = rng.normal(0, 1, (4, 6)).astype(np.float32)
    p1 = reference.listener_probs(v_m, vs)
    # add a constant to every inner product via a rank-one shift
    shift = np.linalg.lstsq(v_m[None, :], np.array([[2.5]]), rcond=None)[0]
    vs2 = vs + shift.T
    p2 = reference.listener_probs(v_m, vs2)
    assert np.allclose(p1, p2, atol=1e-5)


def test_log_probs_matches_reference_listener_probs():
    # the default model size and K; exp(log-softmax) and the numpy
    # softmax round differently, by at most 6.5e-7 relative over 120
    # random messages and candidate sets at initialization
    spec = WorldSpec()
    ds = generate_dataset(7, 80, spec)
    cfg = ModelConfig(vocab_size=len(ds.vocab), obs_dim=spec.input_dim,
                      d_e=128, d_o=128)
    speaker = SpeakerPolicy.create(cfg, 3)
    listener = ListenerModel.create(cfg, 4, encoder=speaker)
    rng = np.random.default_rng(0)
    for _ in range(5):
        obs = ds.model_inputs()[rng.choice(len(ds), 64, replace=False)]
        tokens = [int(t) for t in rng.integers(4, len(ds.vocab), size=6)]
        v_imgs = listener.embed_images(obs)
        v_m = listener.embed_message([tokens])
        cols = np.arange(64)[None, :]
        logp = listener.log_probs(v_m, v_imgs, cols)
        got = np.exp(logp.data)
        ref = reference.listener_probs(v_m.data, v_imgs.data)
        assert logp.shape == (1, 64)
        assert np.max(np.abs(got - ref) / ref) <= 1e-6
        taped = listener.log_probs(v_m, v_imgs, cols, Tape())
        assert taped.data.tobytes() == logp.data.tobytes()


def test_log_probs_scores_each_round_against_its_own_candidates(world):
    # three rounds of two messages and four candidates each, drawn from
    # seven distinct scenes in shuffled slots, against every (message,
    # round) pair scored alone
    ds, _, speaker, listener = world
    rng = np.random.default_rng(6)
    messages = [[int(t) for t in rng.integers(4, 20, n)]
                for n in (3, 1, 5, 2, 4, 6)]
    v_m = listener.embed_message(messages)
    v_imgs = listener.embed_images(ds.model_inputs()[:7])
    slots = np.array([[3, 0, 6, 1], [2, 5, 0, 4], [6, 4, 1, 3]])
    logp = listener.log_probs(v_m, v_imgs, np.repeat(slots, 2, axis=0))
    assert logp.shape == (6, 4)
    for row in range(6):
        alone = reference.listener_probs(v_m.data[row],
                                         v_imgs.data[slots[row // 2]])
        got = np.exp(logp.data[row])
        assert np.max(np.abs(got - alone) / alone) <= 1e-6


def test_listener_accepts_any_k(world):
    ds, _, speaker, listener = world
    for k in (2, 5, 17, 33):
        obs = ds.model_inputs()[:k]
        v_imgs = listener.embed_images(obs)
        logp = listener.log_probs(listener.embed_message([[4, 2, 1]]),
                                  v_imgs, np.arange(k)[None, :])
        assert logp.shape == (1, k)
        assert abs(np.exp(logp.data).sum() - 1.0) < 1e-6


def test_model_config_reconstruction(world):
    # the layer count is read from the gru{l}. entries, as
    # bench/harness.py's agents_from_state relies on
    _, world_cfg, _, _ = world
    for n_layers in (1, 2, 3):
        cfg = replace(world_cfg, n_layers=n_layers)
        speaker = SpeakerPolicy.create(cfg, 11)
        listener = ListenerModel.create(cfg, 13, encoder=speaker)
        rebuilt = model_config_from_params(speaker.params, listener.params)
        assert rebuilt == cfg
    # a raster checkpoint rebuilds the config its world's run trains, as
    # lewisgame eval and the harness rebuild it: n_patches is one per cell
    run = RunConfig()
    run.world.raster, run.world.raster_size, run.world.grid = True, 12, 3
    run.model.d_e, run.model.d_o = 16, 8
    cfg = run.model_config(len(world[0].vocab), run.world_spec().input_dim)
    assert (cfg.n_patches, cfg.cells) == (9, 9)
    speaker = SpeakerPolicy.create(cfg, 11)
    listener = ListenerModel.create(cfg, 13, encoder=speaker)
    assert model_config_from_params(speaker.params, listener.params,
                                    raster=True, raster_size=12,
                                    raster_grid=3) == cfg


@pytest.mark.parametrize("n_patches, cells", [(4, 16), (0, 1), (6, 4)])
def test_model_config_refuses_patches_not_a_multiple_of_cells(n_patches,
                                                              cells):
    # each cell is encoded into n_patches / cells patches, so anything
    # else would build an enc.l2 of the wrong width (0 wide at (4, 16))
    with pytest.raises(ValueError, match=f"^n_patches {n_patches} is not a "
                       f"positive multiple of cells {cells}$"):
        ModelConfig(vocab_size=8, obs_dim=48, n_patches=n_patches,
                    cells=cells)


@pytest.mark.parametrize("obs_dim", [48, 0])
def test_model_config_refuses_an_obs_dim_not_a_multiple_of_cells(obs_dim):
    # each cell is encoded from obs_dim / cells values; at 48 and 5 cells
    # enc.l1 would be 9 wide and encode would return 16 rows for 15
    with pytest.raises(ValueError, match=f"^obs_dim {obs_dim} is not a "
                       "positive multiple of cells 5$"):
        ModelConfig(vocab_size=8, obs_dim=obs_dim, d_e=8, d_o=8,
                    n_patches=5, cells=5)


@pytest.mark.parametrize("n_patches, cells", [(16, 16), (3, 1)])
def test_model_config_builds_whole_patches_per_cell(n_patches, cells):
    cfg = ModelConfig(vocab_size=8, obs_dim=48, d_e=8, d_o=8,
                      n_patches=n_patches, cells=cells)
    speaker = SpeakerPolicy.create(cfg, 1)
    assert speaker.params["enc.l2.w"].shape == (8, n_patches // cells * 8)
    assert speaker.encode(np.zeros((2, 48), np.float32),
                          Tape()).shape == (2 * n_patches, 8)
