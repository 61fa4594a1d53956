"""Hand-fused forward/backward kernels for the model's two recurrences.

The speaker decoder records one tape node per block of B messages and
the listener's message GRU one per block of B padded messages, where
their op-by-op form would record ~16 generic ops per token and message;
that is what keeps training fast on a small CPU. Every other layer, the
observation encoder included, is built from the generic ops of
``tensor``.

A GRU's weights stack the rows that multiply its state h on those that
multiply its input x, so [h, x]·W = h·W_h + x·W_x (the GRU as Cho et
al. 2014 write it). Where x is known before the step loop, its side is
built once per block: the listener projects all B·T embedded tokens in
one product, x·W_x + b, and the decoder's first layer, whose x is
[previous token, attention context], builds the (V, 3·d) vocabulary
table emb·W_tok + b and the (B, P, 3·d) patch projection
patches·W_ctx. Each step then adds its rows of these (for the decoder,
table[token] + alpha·projection, so the context is never formed) to the
products of h with the state rows of W_z and W_r and of r·h with those
of W_h. The decoder's higher layers read the layer below's new state
and keep the concatenated [h, x]·W form. In the backward, the step
loop runs only the state side and leaves each step's gate gradients
[dz | dr | dc], which are also those of x·W_x + b, in a buffer; every
input-side gradient (table, projection, patches, embeddings, W_x,
biases) and every weight gradient is then one product over the
buffers, batched over steps and rows.

``tests/reference.py`` builds both recurrences from individual tape
ops, one message at a time, in the same split form. A one-row block
makes the same products in the same order, so its forward values match
the oracle bitwise and its gradients to float32 round-off; in a block
of several rows each matmul sums over all rows at once, in another
order, so rows match the oracle within float32 round-off, as do
gradients. Sampling and teacher forcing read the same table and
projection, so a sampled block rescored teacher-forced as a block of
the same shape reproduces its log-probabilities and gradients bitwise.

A taped forward writes the rows its backward needs (each layer's h or
[h, x] and r·h or [r·h, x], and the decoder's attention activations and
weights) straight into buffers preallocated for all its steps. The
decoder's are step-major, step t at slot steps-1-t, so rows run last
step first, the order the backward visits them; when sampling ends
before ``t_max`` steps, the valid rows are their last T_len slots. The
listener's are row-major like its input. An untaped call (evaluation,
greedy decoding) allocates none of these buffers.
"""

from __future__ import annotations

import numpy as np

from .tensor import (F32, Tensor, _log_softmax_rows, _scatter_rows,
                     _transposed)

ZERO = F32(0)
ONE = F32(1)
HALF = F32(0.5)


def _sigmoid(x):
    return HALF * (np.tanh(HALF * x) + ONE)


def _softmax_rows(x, out=None):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return np.divide(e, e.sum(axis=1, keepdims=True), out=out)


def _split_weights(wz, bz, wr, br, wh, bh):
    """A GRU's weights by row block: the state rows of W_z, W_r and W_h,
    the input rows of [W_z | W_r | W_h], and [b_z | b_r | b_h]."""
    Wz, Wr, Wh = wz.nd(), wr.nd(), wh.nd()
    d = Wz.shape[1]
    return (Wz[:d], Wr[:d], Wh[:d],
            np.concatenate([Wz[d:], Wr[d:], Wh[d:]], axis=1),
            np.concatenate([bz.data, br.data, bh.data]))


def _gru_forward(x, h, Wz, bz, Wr, br, Wh, bh, U=None, V=None):
    """One GRU step on the concatenated [h, x]: the new state and the
    (z, r, c, h) its backward reads. The [h, x] and [r·h, x] rows the
    weight gradients need are written into ``U`` and ``V`` when given (a
    taped step's slots of its buffers), else into fresh arrays that are
    dropped."""
    U = np.concatenate([h, x], axis=1, out=U)
    z = _sigmoid(U @ Wz + bz)
    r = _sigmoid(U @ Wr + br)
    V = np.concatenate([r * h, x], axis=1, out=V)
    c = np.tanh(V @ Wh + bh)
    return (ONE - z) * h + z * c, (z, r, c, h)


def _gru_split_forward(xs, h, Wz, Wr, Wh, U=None, V=None):
    """One GRU step given its input side ``xs``, the (B, 3·d) rows of
    x·W_x + b for the z, r and candidate gates, and the state rows of
    its weights; returns what ``_gru_forward`` does. h and r·h are
    written into ``U`` and ``V`` when given."""
    d = h.shape[1]
    if U is not None:
        U[...] = h
    z = _sigmoid(h @ Wz + xs[:, :d])
    r = _sigmoid(h @ Wr + xs[:, d:2 * d])
    V = np.multiply(r, h, out=V)
    c = np.tanh(V @ Wh + xs[:, 2 * d:])
    return (ONE - z) * h + z * c, (z, r, c, h)


def _gru_backward(g, cache, WzrT, WhT, gates, dh_extra=None):
    """One step back through either form of step, given the
    ``_transposed_gates`` of its weights (their state rows for the split
    form). Writes the step's gate gradients [dz | dr | dc] into
    ``gates``, its (B, 3·d) slot of a buffer the weight and input-side
    gradients are read from, and returns (dx, dh_prev); dx, the gradient
    of the concatenated form's x, is empty for the split form."""
    z, r, c, h = cache
    G = g if dh_extra is None else g + dh_extra
    d = h.shape[1]
    np.multiply(G * (c - h) * z, ONE - z, out=gates[:, :d])
    np.multiply(G * z, ONE - c * c, out=gates[:, 2 * d:])
    dV = gates[:, 2 * d:] @ WhT
    drh = dV[:, :d]
    np.multiply(drh * h * r, ONE - r, out=gates[:, d:2 * d])
    dU = gates[:, :2 * d] @ WzrT
    dH = G * (ONE - z) + drh * r + dU[:, :d]
    return dV[:, d:] + dU[:, d:], dH


def _transposed_gates(Wz, Wr, Wh):
    """Contiguous transposes of [W_z | W_r] and of W_h."""
    return _transposed(np.concatenate([Wz, Wr], axis=1), Wh)


def _step_rows(buf):
    """A buffer's (steps·B, width) rows, as a view."""
    return buf.reshape(-1, buf.shape[-1])


def _gru_weight_grads(U, V, G, dWx=None):
    """A GRU's six weight and bias gradients from buffers of its stashed
    (U, V) rows and gate gradients [dz | dr | dc], batched over steps and
    rows. For the split form U holds h and V r·h, and ``dWx``, the
    gradient of the input rows of [W_z | W_r | W_h], goes under each
    weight's state rows."""
    U, V, G = map(_step_rows, (U, V, G))
    d = G.shape[1] // 3
    dW = np.concatenate([U.T @ G[:, :2 * d], V.T @ G[:, 2 * d:]], axis=1)
    if dWx is not None:
        dW = np.concatenate([dW, dWx])
    db = G.sum(axis=0, dtype=F32)
    return [part[..., k * d:(k + 1) * d] for k in range(3)
            for part in (dW, db)]


# ---------------------------------------------------------------------------
# speaker decoder: attention + stacked GRU + head, one tape node per block


def _draw(logits, temperature: float, rng) -> np.ndarray:
    """One token per row of ``logits``: the argmax at temperature 0, else
    a draw from softmax(logits / temperature).

    A draw takes one uniform per row from ``rng`` and returns the number
    of that row's CDF entries at or below it, which is the inverse-CDF
    rule ``rng.choice(V, p=...)`` applies to one row.
    """
    if temperature == 0:
        return np.argmax(logits, axis=1)
    xs = logits.astype(np.float64) / temperature
    xs -= xs.max(axis=1, keepdims=True)
    prob = np.exp(xs)
    prob /= prob.sum(axis=1, keepdims=True)
    cdf = np.cumsum(prob, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(len(cdf))
    return (cdf <= u[:, None]).sum(axis=1)


def decode_message(policy, patches: Tensor, keys: Tensor, init_hidden, tape,
                   *, tokens=None, t_max: int = 0, temperature: float = 1.0,
                   rng=None):
    """Run the decoder over a block of B messages, one per row.

    Row b attends over its own ``patches[b]`` (B, P, d_e) with its own
    ``keys[b]`` (B, P, d_e), and starts from row b of each layer's
    (B, d_e) tensor in ``init_hidden``; gradients flow back into all of
    them. Teacher-forced when ``tokens`` (B token sequences) is given,
    sampling otherwise: each step draws one uniform per live row from
    ``rng`` (see ``_draw``), and a row ends after its <eos> or at
    ``t_max``. Returns (token lists, (B, T) tape node of the chosen
    tokens' log-probs, zero past each row's end).
    Steps past a row's end are computed but masked out of its log-probs
    and its gradients.
    """
    p = policy.params
    cfg = policy.cfg
    L = cfg.n_layers
    d = cfg.d_e
    emb = p["emb"].nd()
    Wq = p["attn.wh"].nd()
    v = p["attn.v"].nd()
    Wo = p["head.w"].nd()
    bo = p["head.b"].data
    *W0, Wx, b0 = _split_weights(
        *(p[f"gru0.{n}"] for n in ("wz", "bz", "wr", "br", "wh", "bh")))
    gw = [(p[f"gru{l}.wz"].nd(), p[f"gru{l}.bz"].data,
           p[f"gru{l}.wr"].nd(), p[f"gru{l}.br"].data,
           p[f"gru{l}.wh"].nd(), p[f"gru{l}.bh"].data) for l in range(1, L)]
    Pt = patches.nd()
    K = keys.nd()
    B, P = Pt.shape[:2]
    rows = np.arange(B)
    # layer 0's input side: x·W_x + b = table[token] + alpha·proj
    table = emb @ Wx[:d] + b0
    proj = (Pt.reshape(B * P, d) @ Wx[d:]).reshape(B, P, 3 * d)

    from .world import BOS, EOS
    sampling = tokens is None
    if sampling:
        lengths = np.full(B, t_max)
        live = np.ones(B, bool)
        steps = t_max
    else:
        lengths = np.array([len(seq) for seq in tokens])
        steps = int(lengths.max())
        forced = np.full((B, steps), EOS, np.intp)
        for b, seq in enumerate(tokens):
            forced[b, :len(seq)] = seq
    hidden = [h.nd() for h in init_hidden]
    prev = np.full(B, BOS, np.intp)

    # the step-major buffers of the module docstring, taped only
    taped = tape is not None
    if taped:
        E_buf = np.empty((steps,) + K.shape, F32)
        A_buf = np.empty((steps, B, P), F32)
        U_buf = [np.empty((steps, B, d if l == 0 else 2 * d), F32)
                 for l in range(L)]
        V_buf = [np.empty_like(U) for U in U_buf]
    prev_cols, tok_cols, lp_cols = [], [], []
    stash = []
    for t in range(steps):
        s = steps - 1 - t
        hq = hidden[L - 1]
        e = np.tanh(K + (hq @ Wq)[:, None, :],
                    out=E_buf[s] if taped else None)
        alpha = _softmax_rows((e @ v)[:, :, 0],
                              out=A_buf[s] if taped else None)
        x = table[prev] + (alpha[:, None, :] @ proj)[:, 0, :]
        caches = []
        for l in range(L):
            UV = (U_buf[l][s], V_buf[l][s]) if taped else ()
            if l == 0:
                x, cache = _gru_split_forward(x, hidden[0], *W0, *UV)
            else:
                x, cache = _gru_forward(x, hidden[l], *gw[l - 1], *UV)
            caches.append(cache)
            hidden[l] = x
        logits = x @ Wo + bo
        lsm = _log_softmax_rows(logits)
        if sampling:
            tok = np.full(B, EOS, np.intp)
            tok[live] = _draw(logits[live], temperature, rng)
        else:
            tok = forced[:, t]
        prev_cols.append(prev)
        tok_cols.append(tok)
        lp_cols.append(lsm[rows, tok])
        if taped:
            stash.append((caches, x, lsm))
        prev = tok
        if sampling:
            ended = live & (tok == EOS)
            lengths[ended] = t + 1
            live &= ~ended
            if not live.any():
                break

    T_len = len(tok_cols)
    mask = np.arange(T_len)[None, :] < lengths[:, None]
    lp_arr = np.where(mask, np.stack(lp_cols, axis=1), F32(0))
    tok_arr = np.stack(tok_cols, axis=1)
    out_tokens = [tok_arr[b, :n].tolist() for b, n in enumerate(lengths)]
    out = Tensor._wrap(lp_arr.ravel(), (B, T_len), True)
    if not taped:
        out.requires_grad = False
        return out_tokens, out

    inputs = [patches, keys, p["emb"], p["attn.wh"], p["attn.v"],
              p["head.w"], p["head.b"]]
    for l in range(L):
        inputs.extend(p[f"gru{l}.{n}"] for n in
                      ("wz", "bz", "wr", "br", "wh", "bh"))
    inputs.extend(init_hidden)

    def rule(g):
        gmat = g.reshape(B, T_len) * mask
        WoT, WqT, WxT = _transposed(Wo, Wq, Wx)
        WT = [_transposed_gates(*W0)]
        WT.extend(_transposed_gates(Wz, Wr, Wh) for Wz, _, Wr, _, Wh, _ in gw)
        dK = np.zeros_like(K)
        carry = [np.zeros((B, d), F32) for _ in range(L)]
        # Step t's rows go to slot T_len-1-t here, and sit at that index
        # of the forward buffers' valid part [steps-T_len:] too.
        first = steps - T_len
        E, A = E_buf[first:], A_buf[first:]
        DL = np.empty((T_len, B, Wo.shape[1]), F32)
        DS = np.empty((T_len, B, P), F32)
        DQ = np.empty((T_len, B, d), F32)
        gates = np.empty((L, T_len, B, 3 * d), F32)
        for t in range(T_len - 1, -1, -1):
            s = T_len - 1 - t
            caches, _, lsm = stash[t]
            go = gmat[:, t:t + 1]
            dlogits = np.multiply(-go, np.exp(lsm), out=DL[s])
            dlogits[rows, tok_cols[t]] += go[:, 0]
            dx = dlogits @ WoT + carry[L - 1]
            for l in range(L - 1, -1, -1):
                extra = carry[l] if l < L - 1 else None
                dx, carry[l] = _gru_backward(dx, caches[l], *WT[l],
                                             gates[l, s], dh_extra=extra)
            # layer 0's gate gradients are those of its input side
            dalpha = (proj @ gates[0, s][:, :, None])[:, :, 0]
            alpha = A[s]
            dsrow = np.multiply(alpha, dalpha - (dalpha * alpha).sum(
                axis=1, keepdims=True), out=DS[s])
            dpre = dsrow[:, :, None] * v[:, 0] * (ONE - E[s] * E[s])
            dK += dpre
            dq = dpre.sum(axis=1, out=DQ[s])
            carry[L - 1] = carry[L - 1] + dq @ WqT

        dtable = _scatter_rows(table.shape, np.concatenate(prev_cols[::-1]),
                               _step_rows(gates[0]))
        dproj = (A.transpose(1, 2, 0) @ gates[0].transpose(1, 0, 2)
                 ).reshape(B * P, 3 * d)
        dWx = np.concatenate([emb.T @ dtable, Pt.reshape(B * P, d).T @ dproj])
        HQ = _step_rows(U_buf[L - 1][first:, :, :d])
        HT = np.concatenate([stash[t][1] for t in range(T_len - 1, -1, -1)])
        DLr = _step_rows(DL)
        grads = [(dproj @ WxT[:, d:]).reshape(Pt.shape), dK,
                 dtable @ WxT[:, :d], HQ.T @ _step_rows(DQ),
                 _step_rows(E).T @ DS.reshape(-1, 1), HT.T @ DLr,
                 DLr.sum(axis=0, dtype=F32)]
        grads.extend(_gru_weight_grads(U_buf[0][first:], V_buf[0][first:],
                                       gates[0], dWx))
        for l in range(1, L):
            grads.extend(_gru_weight_grads(U_buf[l][first:], V_buf[l][first:],
                                           gates[l]))
        grads.extend(carry)  # d loss / d initial hidden, per layer
        return grads

    tape.record(out, tuple(inputs), rule)
    return out_tokens, out


# ---------------------------------------------------------------------------
# listener message encoder: plain GRU chain over an embedding matrix


def gru_sequence(embs: Tensor, lengths, h0: np.ndarray, wz: Tensor,
                 bz: Tensor, wr: Tensor, br: Tensor, wh: Tensor, bh: Tensor,
                 tape) -> Tensor:
    """Final hidden states of a GRU run over a block of B padded sequences.

    ``embs`` holds B sequences of T rows each, row-major as (B·T, d_in),
    and ``h0`` their (B, d_h) start states. Sequence b runs for
    ``lengths[b]`` steps and its state is held after that, so row b of
    the (B, d_h) result is its state at its own length; padding rows get
    no gradient.
    """
    lengths = np.asarray(lengths)
    B = lengths.size
    d = h0.shape[1]
    *W, Wx, b = _split_weights(wz, bz, wr, br, wh, bh)
    E = embs.nd()
    T_len = E.shape[0] // B
    XS = E @ Wx
    XS += b  # in place: a second block-sized temporary costs more
    XS = XS.reshape(B, T_len, 3 * d)
    live = [(t < lengths)[:, None] for t in range(T_len)]
    # the row-major buffers of the module docstring, taped only
    taped = tape is not None
    if taped:
        U_buf = np.empty((B, T_len, d), F32)
        V_buf = np.empty_like(U_buf)
    h = h0
    caches = []
    for t in range(T_len):
        UV = (U_buf[:, t], V_buf[:, t]) if taped else ()
        h_new, cache = _gru_split_forward(XS[:, t], h, *W, *UV)
        h = np.where(live[t], h_new, h)
        if taped:
            caches.append(cache)
    out = Tensor._wrap(h.ravel().copy(), h.shape, True)
    if not taped:
        out.requires_grad = False
        return out

    def rule(g):
        dh = g.reshape(B, -1)
        WT = _transposed_gates(*W)
        gates = np.empty((B, T_len, 3 * d), F32)
        for t in range(T_len - 1, -1, -1):
            dH = _gru_backward(np.where(live[t], dh, ZERO), caches[t], *WT,
                               gates[:, t])[1]
            dh = np.where(live[t], dH, dh)
        DX = _step_rows(gates)
        return ([DX @ _transposed(Wx)[0]]
                + _gru_weight_grads(U_buf, V_buf, gates, E.T @ DX))

    tape.record(out, (embs, wz, bz, wr, br, wh, bh), rule)
    return out
