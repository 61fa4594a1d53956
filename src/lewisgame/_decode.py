"""Hand-fused forward/backward kernels for the model's two recurrences.

The speaker decoder records one tape node per block of B messages and
the listener's message GRU one per block of B padded messages, where
their op-by-op form would record ~16 generic ops per token and message;
that is what keeps training fast on a small CPU. Every other layer, the
observation encoder included, is built from the generic ops of
``tensor``.

A GRU (Cho et al. 2014) is stored as the two parameters its kernel
reads: w = [W_z | W_r | W_h], (d + d_in, 3·d), with the rows that
multiply its state h over those that multiply its input x, and
b = [b_z | b_r | b_h]; every split below is a view of them. A step adds
its input side x·W_x + b to one product h·[W_z | W_r], makes one
sigmoid for both gates, and its new state is h + z·(c − h). Where x is
known before the step loop, its side is built once per call, from the
(V, 3·d) vocabulary table emb·W_tok + b: the listener's x is a token,
so a step reads table[token]. The decoder's first layer reads [previous
token, attention context]; it also builds the (N, P, 3·d) patch
projection patches·W_ctx, so that a step adds table[token] +
alpha·projection and the context is never formed. A higher layer's x,
the new state of the layer below, takes one product per step. The
decoder takes its N observations' patches, keys and start states once
and a (B,) index of each message's observation, so an observation's G
samples share one encoding; its backward sums each observation's rows,
and both backwards scatter the table's row gradients into a (V, 3·d)
gradient before one product with W_tokᵀ.

A forward step loop keeps only the recurrence: the decoder's runs
attention, the GRU layers, the head product and, when sampling, the
draw the next step reads; the listener's runs its GRU. The decoder puts
each layer's new states, the logits and the tokens into per-call
buffers, and after its loop makes one log-softmax and one gather of the
chosen tokens; a sampled row ends at its first <eos>. A listener row
past its length gets z = 0 from a (T, B, 1) mask, which holds its state
and passes its gradient through unchanged. A taped step also fills
buffers for all steps: per GRU layer its h, r·h, z|r and c, and
attention's activations and weights. All are step-major: the decoder's
hold step t at slot steps-1-t, the order the backward visits them (when
sampling ends early, the valid rows are the last T_len slots), and the
listener's run in step order like its (T, B) token ids. An untaped step
fills none of these. Every step builds its new state as (c − h)·z + h,
bitwise equal to h + z·(c − h), and leaves c intact.

Before its step loop, a backward computes in one pass each over all
steps the factors (c−h)·z·(1−z) and z·(1−c²), in place over z and c,
which nothing reads again (a rule runs once), then h·r·(1−r) and 1−z;
the decoder also every step's dlogits and their product with W_oᵀ, and
attention's v·(1−e²). The loop keeps only the recurrent chain and
leaves each step's [dz | dr | dc], also the gradient of x·W_x + b, in a
buffer; a higher layer's step back multiplies by the transpose of its
whole w, which also yields the gradient of the layer below's state.
After the loop, every input-side gradient is one product over the
buffers, dK one sum, and each GRU's weight gradient is written once,
row block by row block, into one array. A product that uses a weight
once per call takes the strided W.T, which BLAS reads as a transposed
operand (a contiguous copy alone costs up to 60 µs for a 256×384 W_x);
the loop's few-row products use contiguous transposes, up to 5× faster.

``tests/reference.py`` builds both recurrences from individual tape
ops, one message at a time, in the same split form. A one-row block
makes the same products in the same order, so its forward values match
the oracle bitwise and its gradients to float32 round-off; in a block
of several rows each matmul sums over all rows at once, in another
order, so rows match the oracle within float32 round-off, as do
gradients. Sampling and teacher forcing read the same table and
projection and make one head product per step, so a sampled block
rescored teacher-forced as a block of the same shape reproduces its
log-probabilities and gradients bitwise.
"""

from __future__ import annotations

import numpy as np

from .tensor import F32, Tensor, _log_softmax_rows, _node, _scatter_rows
from .world import BOS, EOS

ONE = F32(1)
HALF = F32(0.5)


def _sigmoid(x):
    """The logistic function, in place."""
    np.tanh(np.multiply(x, HALF, out=x), out=x)
    return np.multiply(np.add(x, ONE, out=x), HALF, out=x)


def _softmax_rows(x, out=None):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return np.divide(e, e.sum(axis=1, keepdims=True), out=out)


def _gru_split_forward(xs, h, w, H=None, V=None, ZR=None, C=None):
    """One GRU step given its input side ``xs``, the (B, 3·d) rows of
    x·W_x + b, and its stored weight ``w``, of which it reads the state
    rows: its gates z|r and candidate c. h, r·h, z|r and c go into ``H``,
    ``V``, ``ZR`` and ``C`` when given (a taped step's buffer slots)."""
    d = h.shape[1]
    if H is not None:
        H[...] = h
    zr = np.matmul(h, w[:d, :2 * d], out=ZR)
    zr = _sigmoid(np.add(zr, xs[:, :2 * d], out=zr))
    c = np.matmul(np.multiply(zr[:, d:], h, out=V), w[:d, 2 * d:], out=C)
    c = np.add(c, xs[:, 2 * d:], out=c)
    return zr, np.tanh(c, out=c)


def _gate_factors(H, ZR, C):
    """A GRU's gate-gradient factors over all steps of its buffers:
    (c−h)·z·(1−z) over z, z·(1−c²) over c, h·r·(1−r), 1−z and r."""
    d = C.shape[-1]
    Z, R = ZR[..., :d], ZR[..., d:]
    omz = ONE - Z
    ch = C - H
    np.subtract(ONE, np.multiply(C, C, out=C), out=C)
    C *= Z
    Z *= ch
    Z *= omz
    return Z, C, H * R * (ONE - R), omz, R


def _gru_backward(G, factors, WT, gates):
    """One step back, given the gradient ``G`` of its new state, its
    slots of ``_gate_factors`` and ``WT``, a contiguous transpose of the
    GRU's weight or of its state rows, whose row blocks are the
    transposes of [W_z | W_r] and W_h. Writes [dz | dr | dc] into
    ``gates`` and returns (dx, dh_prev); dx, the gradient of x, is empty
    when ``WT`` lacks the input rows."""
    fz, fc, fr, omz, r = factors
    d = G.shape[1]
    np.multiply(G, fz, out=gates[:, :d])
    np.multiply(G, fc, out=gates[:, 2 * d:])
    dV = gates[:, 2 * d:] @ WT[2 * d:]
    drh = dV[:, :d]
    np.multiply(drh, fr, out=gates[:, d:2 * d])
    dU = gates[:, :2 * d] @ WT[:2 * d]
    dh = G * omz
    dh += np.multiply(drh, r, out=drh)
    dh += dU[:, :d]
    dx = dU[:, d:]
    dx += dV[:, d:]
    return dx, dh


def _step_rows(buf):
    """A buffer's (steps·B, width) rows, as a view."""
    return buf.reshape(-1, buf.shape[-1])


def _gru_weight_grads(H, V, G, *inputs):
    """A GRU's weight and bias gradients, batched over steps and rows,
    from buffers of its h and r·h rows and gate gradients G. The weight
    gradient is one array, written row block by row block: Hᵀ·[dz | dr]
    and Vᵀ·dc side by side in its state rows, then Xᵀ·D for each (input,
    gradient of its side x·W_x + b) pair (X, D) of ``inputs``."""
    H, V, G = map(_step_rows, (H, V, G))
    d = H.shape[1]
    dW = np.empty((d + sum(X.shape[1] for X, _ in inputs), 3 * d), F32)
    np.matmul(H.T, G[:, :2 * d], out=dW[:d, :2 * d])
    np.matmul(V.T, G[:, 2 * d:], out=dW[:d, 2 * d:])
    lo = d
    for X, D in inputs:
        np.matmul(X.T, D, out=dW[lo:lo + X.shape[1]])
        lo += X.shape[1]
    return [dW, G.sum(axis=0, dtype=F32)]


# ---------------------------------------------------------------------------
# speaker decoder: attention + stacked GRU + head, one tape node per block


def _draw(logits, rng, live) -> np.ndarray:
    """One token per row of ``logits``: <eos> if the row is not ``live``,
    else its argmax when ``rng`` is None or a draw from softmax(logits).

    A draw takes one uniform per live row from ``rng`` and returns the
    number of that row's CDF entries at or below it, which is the
    inverse-CDF rule ``rng.choice(V, p=...)`` applies to one row.
    """
    if rng is None:
        return np.where(live, np.argmax(logits, axis=1), EOS)
    xs = logits[live].astype(np.float64)
    xs -= xs.max(axis=1, keepdims=True)
    prob = np.exp(xs)
    prob /= prob.sum(axis=1, keepdims=True)
    cdf = np.cumsum(prob, axis=1)
    cdf /= cdf[:, -1:]
    u = rng.random(len(cdf))
    tok = np.full(live.size, EOS, np.intp)
    tok[live] = (cdf <= u[:, None]).sum(axis=1)
    return tok


def _blend(h, z, c, out=None):
    """A GRU's new state h + z·(c − h), into ``out`` if given."""
    out = np.subtract(c, h, out=out)
    out *= z
    out += h
    return out


def decode_message(policy, patches: Tensor, keys: Tensor, init_hidden, rows,
                   tape, *, tokens=None, t_max: int = 0, rng=None):
    """Run the decoder over a block of B messages, one per row.

    ``patches`` and ``keys`` (N·P, d_e), P rows per observation, and each
    layer's (N, d_e) start state in ``init_hidden`` describe N
    observations; ``rows`` (B,) names each message's, whose P patches and
    keys row b attends over and whose start states it takes. Gradients
    flow back into all of them, each observation's the sum over its rows.
    Teacher-forced when ``tokens`` (B token sequences) is given, sampling
    otherwise: a step draws one uniform per live row from ``rng``, or
    takes the argmax if it is None (see ``_draw``); a row ends after its
    <eos> or at ``t_max``. Returns (token lists, (B, T) tape node of the
    chosen tokens' log-probs, zero past each row's end).
    Steps past a row's end are computed but masked out of its log-probs
    and its gradients.
    """
    p = policy.params
    cfg = policy.cfg
    L = cfg.n_layers
    d = cfg.d_e
    emb = p["emb"].data
    Wq = p["attn.wh"].data
    v = p["attn.v"].data
    Wo = p["head.w"].data
    bo = p["head.b"].data
    w = [p[f"gru{l}.w"].data for l in range(L)]
    bias = [p[f"gru{l}.b"].data for l in range(L)]
    Pt = patches.data
    N, P = len(init_hidden[0].data), cfg.n_patches
    B = rows.size
    K = keys.data.reshape(N, P, d)[rows]
    # layer 0's input side: x·W_x + b = table[token] + alpha·proj
    table = emb @ w[0][d:2 * d] + bias[0]
    proj = (Pt @ w[0][2 * d:]).reshape(N, P, 3 * d)[rows]

    sampling = tokens is None
    if sampling:
        live = np.ones(B, bool)
        steps = t_max
    else:
        lengths = np.array([len(seq) for seq in tokens])
        steps = int(lengths.max())
        forced = np.full((steps, B), EOS, np.intp)
        for b, seq in enumerate(tokens):
            forced[:len(seq), b] = seq
    hidden = [h.data[rows] for h in init_hidden]
    prev = np.full(B, BOS, np.intp)

    # the step-major buffers of the module docstring
    TOK = np.empty((steps, B), np.intp)
    LSM = np.empty((steps, B, Wo.shape[1]), F32)  # logits, then log-softmax
    S = np.empty((L, steps, B, d), F32)  # each layer's new states
    taped = tape is not None
    if taped:
        E_buf = np.empty((steps,) + K.shape, F32)
        A_buf = np.empty((steps, B, P), F32)
        gru_bufs = [[np.empty((steps, B, n), F32) for n in (d, d, 2 * d, d)]
                    for _ in range(L)]
    for t in range(steps):
        s = steps - 1 - t
        hq = hidden[L - 1]
        e = np.tanh(K + (hq @ Wq)[:, None, :],
                    out=E_buf[s] if taped else None)
        alpha = _softmax_rows((e @ v)[:, :, 0],
                              out=A_buf[s] if taped else None)
        xs = table[prev] + (alpha[:, None, :] @ proj)[:, 0, :]
        for l, h in enumerate(hidden):
            if l:  # x·W_x + b, x the new state of the layer below
                xs = x @ w[l][d:] + bias[l]
            slots = [buf[s] for buf in gru_bufs[l]] if taped else ()
            zr, c = _gru_split_forward(xs, h, w[l], *slots)
            x = hidden[l] = _blend(h, zr[:, :d], c, S[l, s])
        logits = np.add(np.matmul(x, Wo, out=LSM[s]), bo, out=LSM[s])
        if sampling:
            prev = _draw(logits, rng, live)
            live &= prev != EOS
        else:
            prev = forced[t]
        TOK[s] = prev
        if sampling and not live.any():
            break

    # step t's rows sit at index T_len-1-t of each valid part [first:]
    T_len = t + 1
    first = steps - T_len
    TOK, LSM, S = TOK[first:], LSM[first:], S[:, first:]
    _log_softmax_rows(_step_rows(LSM), out=_step_rows(LSM))
    lp = np.take_along_axis(LSM, TOK[:, :, None], axis=2)[::-1, :, 0].T
    tok_arr = TOK[::-1].T
    if sampling:  # a row ends at its first <eos>, else at t_max
        ended = tok_arr == EOS
        lengths = np.where(ended.any(1), ended.argmax(1) + 1, T_len)
    mask = np.arange(T_len)[None, :] < lengths[:, None]
    lp_arr = np.where(mask, lp, F32(0))
    out_tokens = [tok_arr[b, :n].tolist() for b, n in enumerate(lengths)]
    if not taped:
        return out_tokens, Tensor(lp_arr)

    inputs = [patches, keys] + [p[n] for n in (
        "emb", "attn.wh", "attn.v", "head.w", "head.b",
        *(f"gru{l}.{n}" for l in range(L) for n in "wb"))] + list(init_hidden)

    def per_obs(G):  # per-row gradients (B, ...) summed per observation
        return _scatter_rows((N, G[0].size), rows, G)

    def rule(g):
        E, A = E_buf[first:], A_buf[first:]
        go = (g * mask).T[::-1, :, None]
        DL = np.exp(LSM)
        DL *= -go
        DL[np.arange(T_len)[:, None], np.arange(B), TOK] += go[:, :, 0]
        DLr = _step_rows(DL)
        DH = (DLr @ Wo.T).reshape(T_len, B, d)
        VE = v[:, 0] * (ONE - E * E)
        bufs = [[buf[first:] for buf in layer] for layer in gru_bufs]
        factors = [_gate_factors(H, ZR, C) for H, _, ZR, C in bufs]
        # a higher layer's transpose keeps its input rows, so that a step
        # back also gives the gradient of the layer below's new state
        WT = [np.ascontiguousarray((wl if l else wl[:d]).T)
              for l, wl in enumerate(w)]
        WqT = np.ascontiguousarray(Wq.T)
        carry = [np.zeros((B, d), F32) for _ in range(L)]
        DS = np.empty((T_len, B, P), F32)
        DQ = np.empty((T_len, B, d), F32)
        gates = np.empty((L, T_len, B, 3 * d), F32)
        for s in range(T_len):
            dx = DH[s] + carry[L - 1]
            for l in range(L - 1, -1, -1):
                G = dx if l == L - 1 else dx + carry[l]
                dx, carry[l] = _gru_backward(G, [f[s] for f in factors[l]],
                                             WT[l], gates[l, s])
            # layer 0's gate gradients are those of its input side
            dalpha = (proj @ gates[0, s][:, :, None])[:, :, 0]
            alpha = A[s]
            dsrow = np.multiply(alpha, dalpha - (dalpha * alpha).sum(
                axis=1, keepdims=True), out=DS[s])
            dpre = np.multiply(VE[s], dsrow[:, :, None], out=VE[s])
            carry[L - 1] = carry[L - 1] + dpre.sum(axis=1, out=DQ[s]) @ WqT

        # each step's previous token: the next slot's, <bos> at the last
        prev_ids = np.concatenate([TOK[1:].ravel(), np.full(B, BOS)])
        dtable = _scatter_rows(table.shape, prev_ids, _step_rows(gates[0]))
        dproj = per_obs(A.transpose(1, 2, 0) @ gates[0].transpose(1, 0, 2)
                        ).reshape(N * P, 3 * d)
        HQ = _step_rows(bufs[L - 1][0])
        grads = [dproj @ w[0][2 * d:].T,
                 per_obs(VE.sum(axis=0)), dtable @ w[0][d:2 * d].T,
                 HQ.T @ _step_rows(DQ), _step_rows(E).T @ DS.reshape(-1, 1),
                 _step_rows(S[L - 1]).T @ DLr, DLr.sum(axis=0, dtype=F32)]
        grads.extend(_gru_weight_grads(bufs[0][0], bufs[0][1], gates[0],
                                       (emb, dtable), (Pt, dproj)))
        for l in range(1, L):  # input: the layer below's new states
            grads.extend(_gru_weight_grads(bufs[l][0], bufs[l][1], gates[l],
                                           (_step_rows(S[l - 1]),
                                            _step_rows(gates[l]))))
        grads.extend(map(per_obs, carry))  # d loss / d start states
        return grads

    return out_tokens, _node(tape, lp_arr, tuple(inputs), rule)


# ---------------------------------------------------------------------------
# listener message encoder: plain GRU chain over an embedding matrix


def gru_sequence(emb: Tensor, ids, lengths, w: Tensor, b: Tensor,
                 tape) -> Tensor:
    """Final hidden states of a GRU run from zero over a block of B padded
    token sequences.

    ``ids`` holds their tokens step-major, (T, B): ``ids[t, b]`` is step
    t of sequence b, a row of the (V, d_in) embedding table ``emb``.
    Sequence b runs for ``lengths[b]`` steps and its state is held after
    that, so row b of the (B, d_h) result is its state at its own length;
    padding steps give no gradient.
    """
    T_len, B = ids.shape
    d = w.shape[1] // 3
    W = w.data
    E = emb.data
    table = E @ W[d:] + b.data
    XS = table[ids]
    # the step-major buffers of the module docstring, taped only
    taped = tape is not None
    bufs = ([np.empty((T_len, B, n), F32) for n in (d, d, 2 * d, d)]
            if taped else [])
    alive = (np.arange(T_len)[:, None] < lengths)[:, :, None].astype(F32)
    h = np.zeros((B, d), F32)
    for t in range(T_len):
        zr, c = _gru_split_forward(XS[t], h, W, *(buf[t] for buf in bufs))
        zr[:, :d] *= alive[t]  # z = 0 holds a finished row
        h = _blend(h, zr[:, :d], c)
    if not taped:
        return Tensor(h)

    def rule(dh):
        H, V, ZR, C = bufs
        factors = _gate_factors(H, ZR, C)
        WT = np.ascontiguousarray(W[:d].T)
        gates = np.empty((T_len, B, 3 * d), F32)
        for t in range(T_len - 1, -1, -1):
            dh = _gru_backward(dh, [f[t] for f in factors], WT, gates[t])[1]
        dtable = _scatter_rows(table.shape, ids.ravel(), _step_rows(gates))
        return [dtable @ W[d:].T] + _gru_weight_grads(H, V, gates, (E, dtable))

    return _node(tape, h, (emb, w, b), rule)
