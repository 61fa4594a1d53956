"""Op-by-op reference for the fused kernels in ``lewisgame._decode``,
and numpy reference for the listener's scores and the trainer's losses.

The observation encoder, the speaker decoder, the listener's message
GRU and its candidate embedding are built here from individual tape
ops, one node per operation and one observation or message at a time
(``softmax``, ``concat``, ``gru_cell`` and ``gru_cell_split`` are
generic ops that only these oracles use). On one-row blocks the kernels
must reproduce these forward values bitwise, and their gradients to
float32 round-off; the tests compare the two. Blocks of several rows (K
candidates, or B messages) are held to a stated tolerance instead,
because their matmuls over all rows sum in another order than one-row
products.

Every GRU reads its stored parameters, w = [W_z | W_r | W_h] with the
state rows over the input rows and b = [b_z | b_r | b_h], in the
kernels' split form, so that a one-row block makes exactly their
products: each step runs ``gru_cell_split`` on its input side x·W_x + b
with the state rows of w (``state_rows``). For the decoder's first
layer and the listener's GRU that side is built once per message from
the input rows of w (``input_rows``): a vocabulary table emb·W_x + b,
and for the decoder also a patch projection. A higher layer of the
decoder builds it each step from the new state of the layer below.
``gru_cell`` is the textbook cell on the concatenated [h, x]; a test
holds the two cells equal to float32 round-off, so the split form
computes the same function.

``listener_probs``, ``speaker_loss`` and ``listener_loss`` compute the
candidate probabilities and the two training losses in plain numpy
(the losses in float64), apart from the tape; the tests hold
``ListenerModel.log_probs`` and the trainer's loss nodes to them within
a stated tolerance.

``Episode`` is one played message as a record of its own, and
``group_advantages``, ``advantage_variance`` and ``solve_rate`` do the
trainer's and the evaluation's bookkeeping one episode or group at a
time. The package does it as arrays over a played block
(``game.RoundTrace``), which must match these bitwise; ``episodes`` and
``round_trace`` convert between the two forms.

``bleu`` clips one candidate n-gram at a time; the package's ``bleu``
clips whole count tables and must return the same scores.
``evaluate_agents`` is the evaluation loop that draws, decodes, embeds
and scores each round by hand, one message at a time, with that oracle
``bleu``; the package's ``evaluate_agents``, which plays every round as
one block, must return the same report.

``gradcheck`` holds tape gradients to central finite differences,
``generate_dataset`` is the one-split world the tests train and score
on, and ``per_gate`` rewrites a checkpoint in the per-gate GRU layout
that loading must refuse. Nothing in ``src/`` imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lewisgame import tensor as T
from lewisgame.agents import MessageSample
from lewisgame.evaluate import (BLEU_EPS, EvalReport, _closest_ref_len,
                                _ngram_counts, _strip_eos, attribute_coverage)
from lewisgame.game import RoundTrace
from lewisgame.params import ParameterSet
from lewisgame.tensor import F32, ShapeError, Tape, Tensor, backward
from lewisgame.world import (BOS, EOS, Dataset, WorldSpec, generate_splits,
                             sample_game_batch)


def softmax(tape, a: Tensor) -> Tensor:
    """Softmax of each row of a rank-2 tensor; each output row sums to 1."""
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        return (((g - (g * s).sum(axis=1, keepdims=True)) * s),)
    return T._node(tape, s, (a,), rule)


def concat(tape, parts, axis: int = 0) -> Tensor:
    """Concatenate tensors of equal rank along axis 0 or 1."""
    parts = list(parts)
    if not parts:
        raise ShapeError("concat: no inputs")
    nd = parts[0].ndim
    if axis not in (0, 1) or axis >= nd:
        raise ShapeError(f"concat: bad axis {axis} for rank {nd}")
    for p in parts[1:]:
        if p.ndim != nd:
            raise ShapeError(f"concat: rank mismatch {parts[0].shape} vs {p.shape}")
        other = 1 - axis
        if nd == 2 and p.shape[other] != parts[0].shape[other]:
            raise ShapeError(f"concat: shape mismatch {parts[0].shape} vs {p.shape}")
    ends = np.cumsum([p.shape[axis] for p in parts])[:-1]

    def rule(g):
        return [piece.copy() for piece in np.split(g, ends, axis=axis)]
    return T._node(tape, np.concatenate([p.data for p in parts], axis=axis),
                   tuple(parts), rule)


def _gates(pre: np.ndarray) -> tuple:
    """z and r from the pre-activations of both gates side by side, one
    sigmoid over the pair."""
    zr = F32(0.5) * (np.tanh(F32(0.5) * pre) + F32(1))
    d = zr.shape[1] // 2
    return zr[:, :d], zr[:, d:]


def gru_cell(tape, x: Tensor, h: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One step of a gated recurrent cell, the textbook form.

    ``w`` (d_h + d_x, 3·d_h) and ``b`` (3·d_h,) are a GRU's stored
    parameters, [W_z | W_r | W_h] with the state rows first, and [b_z |
    b_r | b_h]. Gate inputs are the concatenation [h, x], multiplied by
    [W_z | W_r] in one product; the candidate c uses [r * h, x], and the
    new state is h + z·(c − h).
    """
    if x.ndim != 2 or h.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"gru_cell: bad state shapes x={x.shape} h={h.shape}")
    dx = x.shape[1]
    dh = h.shape[1]
    if w.shape != (dh + dx, 3 * dh):
        raise ShapeError(f"gru_cell: w must be {(dh + dx, 3 * dh)}, got "
                         f"{w.shape}")
    if b.shape != (3 * dh,):
        raise ShapeError(f"gru_cell: b must be {(3 * dh,)}, got {b.shape}")
    X, H, W = x.data, h.data, w.data
    U = np.concatenate([H, X], axis=1)
    z, r = _gates(U @ W[:, :2 * dh] + b.data[:2 * dh])
    V = np.concatenate([r * H, X], axis=1)
    c = np.tanh(V @ W[:, 2 * dh:] + b.data[2 * dh:])

    def rule(G):
        dz = G * (c - H) * z * (F32(1) - z)
        dc = G * z * (F32(1) - c * c)
        dH = G * (F32(1) - z)
        dV = dc @ W[:, 2 * dh:].T
        drh = dV[:, :dh]
        dX = dV[:, dh:].copy()
        dr = drh * H * r * (F32(1) - r)
        dH = dH + drh * r
        dzr = np.concatenate([dz, dr], axis=1)
        dU = dzr @ W[:, :2 * dh].T
        dH = dH + dU[:, :dh]
        dX += dU[:, dh:]
        dW = np.concatenate([U.T @ dzr, V.T @ dc], axis=1)
        db = np.concatenate([dzr, dc], axis=1).sum(axis=0, dtype=F32)
        return dX, dH, dW, db
    return T._node(tape, H + z * (c - H), (x, h, w, b), rule)


def gru_cell_split(tape, xs: Tensor, h: Tensor, w_state: Tensor) -> Tensor:
    """One step of ``gru_cell`` given its input side.

    ``xs`` (m, 3·d_h) holds x·W_x + b for the update, reset and
    candidate gates; ``w_state`` (d_h, 3·d_h) holds the state rows of the
    GRU's weight (see ``state_rows``). Computes [z | r] = sigmoid(h·[W_z
    | W_r] + xs[:, :2·d_h]) in one product, c = tanh((r·h)·W_h +
    xs[:, 2·d_h:]), and h + z·(c − h).
    """
    if xs.ndim != 2 or h.ndim != 2 or xs.shape[0] != h.shape[0]:
        raise ShapeError(f"gru_cell_split: bad shapes xs={xs.shape} "
                         f"h={h.shape}")
    m, dh = h.shape
    if xs.shape != (m, 3 * dh):
        raise ShapeError(f"gru_cell_split: xs must be {(m, 3 * dh)}, got "
                         f"{xs.shape}")
    if w_state.shape != (dh, 3 * dh):
        raise ShapeError(f"gru_cell_split: w_state must be {(dh, 3 * dh)}, "
                         f"got {w_state.shape}")
    XS, H, W = xs.data, h.data, w_state.data
    z, r = _gates(H @ W[:, :2 * dh] + XS[:, :2 * dh])
    V = r * H
    c = np.tanh(V @ W[:, 2 * dh:] + XS[:, 2 * dh:])

    def rule(G):
        dz = G * (c - H) * z * (F32(1) - z)
        dc = G * z * (F32(1) - c * c)
        drh = dc @ W[:, 2 * dh:].T
        dr = drh * H * r * (F32(1) - r)
        dzr = np.concatenate([dz, dr], axis=1)
        dH = G * (F32(1) - z) + drh * r + dzr @ W[:, :2 * dh].T
        return (np.concatenate([dzr, dc], axis=1), dH,
                np.concatenate([H.T @ dzr, V.T @ dc], axis=1))
    return T._node(tape, H + z * (c - H), (xs, h, w_state), rule)


def state_rows(tape, w: Tensor) -> Tensor:
    """The rows of a GRU's stored weight that multiply its state, its
    first d_h, as a (d_h, 3·d_h) tensor."""
    return T.embedding(tape, w, list(range(w.shape[1] // 3)))


def input_rows(tape, w: Tensor, lo: int, hi: int) -> Tensor:
    """Rows lo to hi-1 of a GRU's stored weight, (hi - lo, 3·d_h): the
    weights of the inputs those rows multiply."""
    return T.embedding(tape, w, list(range(lo, hi)))


# ---------------------------------------------------------------------------
# observation encoder (oracle for SpeakerPolicy.encode)


def encode(speaker, obs: np.ndarray, tape) -> Tensor:
    """Observation to its (patches, d_e) rows, one observation at a
    time. ``SpeakerPolicy.encode`` runs the same ops over a whole
    stack, so the pair agrees by construction; the finite-difference
    checks in ``tests/test_agents.py`` are the independent ones."""
    cfg, p = speaker.cfg, speaker.params
    x = Tensor(obs.reshape(cfg.cells, -1))
    h = T.tanh(tape, T.add(tape, T.matmul(tape, x, p["enc.l1.w"]),
                           p["enc.l1.b"]))
    flat = T.add(tape, T.matmul(tape, h, p["enc.l2.w"]), p["enc.l2.b"])
    return T.reshape(tape, flat, (cfg.n_patches, cfg.d_e))


# ---------------------------------------------------------------------------
# listener candidate embedding (oracle for ListenerModel.embed_images)


def embed_images(listener, observations: np.ndarray, tape=None) -> Tensor:
    """``ListenerModel.embed_images`` one candidate at a time, through the
    listener's bound encoder."""
    p = listener.params
    rows = []
    for obs in observations:
        patches = encode(listener.encoder, obs, tape)
        pooled = T.mean(tape, patches, len(patches.data))
        rows.append(T.matmul(tape, pooled, p["img.w"]))
    return concat(tape, rows, axis=0)


# ---------------------------------------------------------------------------
# speaker decoder (oracle for _decode.decode_message)


def first_layer(speaker, patches: Tensor, tape):
    """What the decoder's first layer builds once per message: the
    (V, 3·d_e) vocabulary table emb·W_tok + b, the (P, 3·d_e) patch
    projection patches·W_ctx, and its weight's ``state_rows``."""
    p = speaker.params
    d = speaker.cfg.d_e
    w = p["gru0.w"]
    table = T.add(tape, T.matmul(tape, p["emb"], input_rows(tape, w, d, 2 * d)),
                  p["gru0.b"])
    proj = T.matmul(tape, patches, input_rows(tape, w, 2 * d, 3 * d))
    return table, proj, state_rows(tape, w)


def attend(speaker, query: Tensor, keys: Tensor, tape) -> Tensor:
    """Additive attention weights of ``query`` over the patches' keys,
    (1, P)."""
    p = speaker.params
    q = T.reshape(tape, T.matmul(tape, query, p["attn.wh"]),
                  (speaker.cfg.d_e,))
    e = T.tanh(tape, T.add(tape, keys, q))
    scores = T.reshape(tape, T.matmul(tape, e, p["attn.v"]),
                       (1, keys.shape[0]))
    return softmax(tape, scores)


def step(speaker, tok: int, hidden: list, keys: Tensor, layer0, tape):
    """One decoder step after token ``tok``, given ``first_layer``'s
    results: (logits, new hidden, weights). The first layer's input side
    is table[tok] + weights·proj; the attention context weights·patches
    is never formed. A higher layer's is x·W_x + b, x the new state of
    the layer below."""
    p = speaker.params
    table, proj, w_state = layer0
    alpha = attend(speaker, hidden[-1], keys, tape)
    xs = T.add(tape, T.embedding(tape, table, [tok]),
               T.matmul(tape, alpha, proj))
    x = gru_cell_split(tape, xs, hidden[0], w_state)
    new_hidden = [x]
    d = speaker.cfg.d_e
    for layer in range(1, speaker.cfg.n_layers):
        w = p[f"gru{layer}.w"]
        xs = T.add(tape, T.matmul(tape, x, input_rows(tape, w, d, 2 * d)),
                   p[f"gru{layer}.b"])
        x = gru_cell_split(tape, xs, hidden[layer], state_rows(tape, w))
        new_hidden.append(x)
    logits = T.add(tape, T.matmul(tape, x, p["head.w"]), p["head.b"])
    return logits, new_hidden, alpha


def decode(speaker, patches, keys, h0, tape, *, tokens=None, t_max=0,
           rng=None):
    """Teacher-forced when ``tokens`` is given, sampling otherwise: from
    the softmax with ``rng``, or greedily when it is None.

    Returns (tokens, (T, 1) tape node of the chosen tokens' log-probs),
    as ``decode_message`` returns a block's.
    """
    sampling = tokens is None
    steps = t_max if sampling else len(tokens)
    layer0 = first_layer(speaker, patches, tape)
    hidden = list(h0)
    prev = BOS
    out_tokens, step_nodes = [], []
    for t in range(steps):
        logits, hidden, _ = step(speaker, prev, hidden, keys, layer0, tape)
        logp = T.log_softmax(tape, logits)
        if sampling:
            if rng is None:
                tok = int(np.argmax(logits.data))
            else:
                x = logits.data[0].astype(np.float64)
                x -= x.max()
                prob = np.exp(x)
                prob /= prob.sum()
                tok = int(rng.choice(speaker.cfg.vocab_size, p=prob))
        else:
            tok = int(tokens[t])
        node = T.embedding(tape, T.reshape(tape, logp, (logp.size, 1)),
                           [tok])
        out_tokens.append(tok)
        step_nodes.append(node)
        prev = tok
        if sampling and tok == EOS:
            break
    return out_tokens, concat(tape, step_nodes, axis=0)


def start(speaker, obs, tape):
    """Patches, attention keys and decoder start states of one
    observation: (P, d_e), (P, d_e) and one (1, d_e) per layer."""
    p = speaker.params
    patches = encode(speaker, obs, tape)
    keys = T.matmul(tape, patches, p["attn.we"])
    pooled = T.mean(tape, patches, len(patches.data))
    h0 = [T.tanh(tape, T.add(tape, T.matmul(tape, pooled, p[f"init{l}.w"]),
                             p[f"init{l}.b"]))
          for l in range(speaker.cfg.n_layers)]
    return patches, keys, h0


def sample(speaker, obs: np.ndarray, t_max: int, n_samples: int, rng,
           tape=None):
    """``SpeakerPolicy.sample`` of one observation, one message at a
    time, built from individual ops; returns one (T, 1) node per
    message."""
    patches, keys, h0 = start(speaker, obs, tape)
    samples, nodes = [], []
    for _ in range(n_samples):
        tokens, node = decode(speaker, patches, keys, h0, tape,
                              t_max=t_max, rng=rng)
        samples.append(MessageSample(tuple(tokens)))
        nodes.append(node)
    return samples, nodes


def logprobs(speaker, obs: np.ndarray, tokens, tape=None):
    """``SpeakerPolicy.logprobs`` of one message, built from individual
    ops; returns its (T, 1) node."""
    patches, keys, h0 = start(speaker, obs, tape)
    return decode(speaker, patches, keys, h0, tape, tokens=list(tokens))[1]


# ---------------------------------------------------------------------------
# listener message GRU (oracle for _decode.gru_sequence)


def gru_sequence(emb: Tensor, tokens, w: Tensor, b: Tensor, tape) -> Tensor:
    """Final hidden state of a GRU run from zero over one token sequence:
    the (V, 3·d_h) vocabulary table emb·W_x + b once, then one
    ``gru_cell_split`` per token on its row of the table."""
    d = b.shape[0] // 3
    table = T.add(tape, T.matmul(tape, emb, input_rows(tape, w, d,
                                                       w.shape[0])), b)
    w_state = state_rows(tape, w)
    h = Tensor(np.zeros((1, d), F32))
    for tok in tokens:
        h = gru_cell_split(tape, T.embedding(tape, table, [tok]), h, w_state)
    return h


def embed_message(listener, tokens, tape=None) -> Tensor:
    """``ListenerModel.embed_message`` of one message: (1, d_o)."""
    p = listener.params
    h = gru_sequence(p["emb"], list(tokens), p["gru.w"], p["gru.b"], tape)
    mid = T.tanh(tape, T.add(tape, T.matmul(tape, h, p["proj.l1.w"]),
                             p["proj.l1.b"]))
    return T.add(tape, T.matmul(tape, mid, p["proj.l2.w"]), p["proj.l2.b"])


# ---------------------------------------------------------------------------
# per-episode bookkeeping (oracles for game.RoundTrace, game.solve_rate,
# training.group_advantages and training.advantage_variance)


@dataclass(frozen=True)
class Episode:
    """One message played against one candidate set."""

    target: int
    logprobs: np.ndarray  # (length,) chosen-token log-probs
    probs: np.ndarray     # (K,) listener probabilities

    @property
    def length(self) -> int:
        return self.logprobs.size

    @property
    def reward(self) -> float:
        return float(self.probs[self.target])

    @property
    def indicator(self) -> int:
        return int(int(np.argmax(self.probs)) == self.target)


def episodes(trace: RoundTrace) -> list:
    """The rows of played rounds, one ``Episode`` each."""
    lps = [row for node in trace.logprobs for row in node.data]
    return [Episode(int(t), lp[:m.length].copy(), p)
            for lp, m, t, p in zip(lps, trace.messages, trace.targets,
                                   trace.probs)]


def round_trace(episodes, generations: int, width: int = 0,
                pad: float = 0.0) -> RoundTrace:
    """A block of ``episodes``, round-major, with no listener node. Its
    (B, width) log-prob block (the longest message wide by default)
    holds ``pad`` past each row's end and requires gradients."""
    width = width or max(ep.length for ep in episodes)
    block = np.full((len(episodes), width), pad, F32)
    for row, ep in enumerate(episodes):
        block[row, :ep.length] = ep.logprobs
    return RoundTrace([MessageSample((5,) * ep.length) for ep in episodes],
                      np.array([ep.target for ep in episodes]),
                      np.stack([ep.probs for ep in episodes]), generations,
                      (Tensor(block, True),), None)


def group_advantages(episodes, standardize: bool = False) -> list:
    """One float32 advantage per episode of one group: its reward minus
    the group's mean reward (over its std when ``standardize``), for
    every token of the episode. A group of one is its own baseline: its
    advantage is 0."""
    rewards = np.array([ep.reward for ep in episodes], np.float64)
    centered = rewards - rewards.mean()
    if standardize:
        centered = centered / (rewards.std() + 1e-8)
    return [F32(c) for c in centered]


def advantage_variance(advs) -> float:
    """Second moment about zero, n-1 denominator (1 for a group of one),
    of one group's advantages."""
    values = np.array(advs, np.float64)
    return float((values ** 2).sum() / max(len(values) - 1, 1))


def solve_rate(episodes, top_n: int) -> float:
    """Fraction of episodes whose target ranks in the listener's top N;
    ties rank toward the lower index."""
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


# ---------------------------------------------------------------------------
# listener scores and training losses (oracles for ListenerModel.log_probs
# and the losses training.train_step builds with training.sequence_loss)


def listener_probs(v_m: np.ndarray, v_imgs: np.ndarray) -> np.ndarray:
    """Softmax over inner products between the message and each candidate."""
    v = np.asarray(v_m, F32).ravel()
    imgs = np.asarray(v_imgs, F32).reshape(-1, v.size)
    scores = imgs @ v
    shifted = scores - scores.max()
    e = np.exp(shifted)
    return e / e.sum()


def speaker_loss(episodes, standardize: bool = False) -> float:
    """Group surrogate loss: mean over episodes of -(A/T) sum logpi."""
    advs = group_advantages(episodes, standardize)
    total = 0.0
    for ep, a in zip(episodes, advs):
        lp = ep.logprobs.astype(np.float64)
        total += -float(a) * lp.sum() / ep.length
    return total / len(episodes)


def listener_loss(episode) -> float:
    """Negative log probability assigned to the true candidate."""
    with np.errstate(divide="ignore"):
        return float(-np.log(episode.probs[episode.target]))


# ---------------------------------------------------------------------------
# BLEU (oracle for evaluate.bleu)


def bleu(candidate, references, max_n: int = 4) -> list[float]:
    """BLEU-1..max_n, clipping each candidate n-gram in turn by its
    largest count in any one reference."""
    candidate = list(candidate)
    references = [list(r) for r in references]
    c = len(candidate)
    r = _closest_ref_len(c, references)
    bp = 1.0 if c >= r else math.exp(1.0 - r / c)
    precisions = []
    for n in range(1, max_n + 1):
        counts = _ngram_counts(candidate, n)
        total = sum(counts.values())
        if total == 0:
            precisions.append(BLEU_EPS)
            continue
        clipped = 0
        for gram, cnt in counts.items():
            best = max(_ngram_counts(ref, n)[gram] for ref in references)
            clipped += min(cnt, best)
        precisions.append(clipped / total if clipped else BLEU_EPS)
    return [bp * math.exp(sum(math.log(p) for p in precisions[:n]) / n)
            for n in range(1, max_n + 1)]


# ---------------------------------------------------------------------------
# evaluation rounds (oracle for evaluate.evaluate_agents)


def evaluate_agents(speaker, listener, dataset, k: int, n_rounds: int = 200,
                    t_max: int = 12, seed: int = 0) -> EvalReport:
    """Greedy evaluation rounds, each drawn, decoded, embedded and scored
    inline, one message at a time with the op-by-op decoder and message
    GRU."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE7A1]))
    episodes = []
    bleus, coverages, lengths = [], [], []
    for _ in range(n_rounds):
        (scenes,), (target,) = sample_game_batch(dataset, k, 1, rng)
        obs = dataset.model_inputs()[scenes]
        target_idx = int(scenes[target])
        (message,), (node,) = sample(speaker, obs[target], t_max, 1, None)
        v_imgs = listener.embed_images(obs, None)
        v_m = embed_message(listener, message.tokens)
        logp = listener.log_probs(v_m, v_imgs, np.arange(k)[None, :])
        episodes.append(Episode(int(target), node.data[:, 0].copy(),
                                np.exp(logp.data[0])))
        content = _strip_eos(message.tokens)
        lengths.append(len(content))
        if content:
            bleus.append(bleu(content, dataset.captions[target_idx], 4))
        else:
            bleus.append([0.0, 0.0, 0.0, 0.0])
        coverages.append(attribute_coverage(
            content, dataset.scenes[target_idx], dataset.vocab))
    bleus = np.asarray(bleus)
    return EvalReport(
        bleu1=float(bleus[:, 0].mean()),
        bleu2=float(bleus[:, 1].mean()),
        bleu3=float(bleus[:, 2].mean()),
        bleu4=float(bleus[:, 3].mean()),
        coverage=float(np.mean(coverages)),
        top1=solve_rate(episodes, 1),
        top10=solve_rate(episodes, min(10, k)),
        mean_length=float(np.mean(lengths)),
        n_rounds=n_rounds,
        k=k,
    )


# ---------------------------------------------------------------------------
# test worlds


def generate_dataset(seed: int, n_scenes: int, spec: WorldSpec) -> Dataset:
    """Deterministic dataset of ``n_scenes`` distinct scenes: the train
    split of ``generate_splits`` with no val or test scenes."""
    return generate_splits(seed, spec, n_scenes)["train"]


# ---------------------------------------------------------------------------
# gradient checking


def per_gate(state: ParameterSet) -> ParameterSet:
    """Checkpoint ``state`` in the layout from before each GRU was stored
    as one weight and one bias: every ``gru*.w`` and ``gru*.b`` entry,
    its optimizer moments included, split into its three gates' entries,
    ``wz``, ``wr``, ``wh`` and ``bz``, ``br``, ``bh``."""
    old = ParameterSet()
    for name, t in state.items():
        stem, _, kind = name.rpartition(".")
        if not (stem.rpartition(".")[2].startswith("gru") and kind in ("w", "b")):
            old.add(name, t)
            continue
        width = state[stem + ".b"].size  # 3·d_h, the gates side by side
        gates = np.split(t.data.reshape(-1, width), 3, axis=1)
        for gate, part in zip("zrh", gates):
            old.add(f"{stem}.{kind}{gate}", Tensor(
                np.ascontiguousarray(part) if t.ndim == 2 else part.ravel()))
    return old


class EvaluationError(RuntimeError):
    """A checked computation produced a non-finite value."""


def gradcheck(f, params, eps: float = 1e-3, n_coords: int = 4, seed: int = 0) -> float:
    """Compare tape gradients of ``f`` against central finite differences.

    ``f(params, tape)`` must build and return a scalar Tensor; with
    ``tape=None`` it must still evaluate. Returns the max over sampled
    coordinates of |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
    """
    if eps <= 0:
        raise ValueError("gradcheck: eps must be positive")
    tape = Tape()
    loss = f(params, tape)
    if loss.size != 1:
        raise ShapeError(f"gradcheck: f must return a scalar, got {loss.shape}")
    if not np.isfinite(loss.data[0]):
        raise EvaluationError("gradcheck: f evaluated to a non-finite value")
    params.zero_grads()
    backward(tape, loss)
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros(t.shape, F32))
        for name, t in params.items()
    }
    rng = np.random.default_rng(seed)
    worst = 0.0
    for name, t in params.items():
        k = min(n_coords, t.size)
        for i in rng.choice(t.size, size=k, replace=False):
            v0 = t.data.flat[i]
            t.data.flat[i] = F32(v0 + eps)
            xp = float(t.data.flat[i])
            fp = float(f(params, None).data[0])
            t.data.flat[i] = F32(v0 - eps)
            xm = float(t.data.flat[i])
            fm = float(f(params, None).data[0])
            t.data.flat[i] = v0
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise EvaluationError("gradcheck: non-finite value during perturbation")
            g_fd = (fp - fm) / (xp - xm)
            g_ad = float(analytic[name].flat[i])
            err = abs(g_ad - g_fd) / max(1.0, abs(g_ad), abs(g_fd))
            worst = max(worst, err)
    return worst
