"""Hand-fused forward/backward kernels for the model's two recurrences.

The speaker decoder records one tape node per block of B messages and
the listener's message GRU one per block of B padded messages, where
their op-by-op form would record ~16 generic ops per token and message;
that is what keeps training fast on a small CPU. Every other layer, the
observation encoder included, is built from the generic ops of
``tensor``.
``tests/reference.py`` builds both recurrences from individual tape
ops, one message at a time, and is the oracle. A one-row block runs the
same numpy calls in the same order, so its forward values match the
oracle bitwise; in a block of several rows each matmul sums over all
rows at once, in another order, so rows match it within float32
round-off, as do gradients. Backward passes are ordinary
backprop-through-time with the weight-gradient outer products batched
over steps and rows.

A taped forward writes the rows its backward needs (each GRU layer's
[h, x] and [r·h, x] inputs, and the decoder's attention activations)
straight into step-major buffers preallocated for all its steps, and
the backward writes each step's gate gradients (and the decoder's
logit, attention and input gradients) into buffers of the same layout;
the batched products then read reshaped views of them, with no
per-step lists to concatenate. Step t goes to slot steps-1-t of a
forward buffer and T_len-1-t of a backward one, so the rows run last
step first, the order the backward visits them. When sampling ends
before ``t_max`` steps, the valid rows are the last T_len slots of the
forward buffers. An untaped call (evaluation, greedy decoding)
allocates none of these buffers.
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


def _softmax_rows(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _gru_forward(x, h, Wz, bz, Wr, br, Wh, bh, U=None, V=None):
    """One GRU step: the new state and the (z, r, c, h) its backward
    reads. The [h, x] and [r·h, x] rows the weight gradients need are
    written into ``U`` and ``V`` when given (a taped step's slots of the
    step-major buffers), else into fresh arrays that are dropped."""
    U = np.concatenate([h, x], axis=1, out=U)
    z = _sigmoid(U @ Wz + bz)
    r = _sigmoid(U @ Wr + br)
    V = np.concatenate([r * h, x], axis=1, out=V)
    c = np.tanh(V @ Wh + bh)
    return (ONE - z) * h + z * c, (z, r, c, h)


def _gru_backward(g, cache, WzT, WrT, WhT, dz, dr, dc, dx=None,
                  dh_extra=None):
    """One step back, given the weights' ``_transposed`` copies: writes
    the step's gate gradients into ``dz``, ``dr`` and ``dc`` (its slots of
    the step-major buffers the weight gradients are read from) and its
    input gradient into ``dx`` when given; returns (dx, dh_prev)."""
    z, r, c, h = cache
    G = g if dh_extra is None else g + dh_extra
    dh_ = h.shape[1]
    np.multiply(G * (c - h) * z, ONE - z, out=dz)
    np.multiply(G * z, ONE - c * c, out=dc)
    dH = G * (ONE - z)
    dV = dc @ WhT
    drh = dV[:, :dh_]
    np.multiply(drh * h * r, ONE - r, out=dr)
    dH = dH + drh * r
    dU = dz @ WzT + dr @ WrT
    dH = dH + dU[:, :dh_]
    return np.add(dV[:, dh_:], dU[:, dh_:], out=dx), dH


def _step_rows(buf):
    """A step-major buffer's (steps·B, width) rows, as a view."""
    return buf.reshape(-1, buf.shape[-1])


def _gru_weight_grads(U, V, DZ, DR, DC):
    """A GRU's six weight and bias gradients from step-major buffers of
    its stashed (U, V) rows and gate gradients (dz, dr, dc), batched over
    steps and rows."""
    U, V, DZ, DR, DC = map(_step_rows, (U, V, DZ, DR, DC))
    return [U.T @ DZ, DZ.sum(axis=0, dtype=F32),
            U.T @ DR, DR.sum(axis=0, dtype=F32),
            V.T @ DC, DC.sum(axis=0, dtype=F32)]


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
    emb = p["emb"].nd()
    Wq = p["attn.wh"].nd()
    v = p["attn.v"].nd()
    Wo = p["head.w"].nd()
    bo = p["head.b"].data
    gw = [(p[f"gru{l}.wz"].nd(), p[f"gru{l}.bz"].data,
           p[f"gru{l}.wr"].nd(), p[f"gru{l}.br"].data,
           p[f"gru{l}.wh"].nd(), p[f"gru{l}.bh"].data) for l in range(L)]
    Pt = patches.nd()
    K = keys.nd()
    B = Pt.shape[0]
    rows = np.arange(B)

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
        U_buf = [np.empty((steps, B, w[0].shape[0]), F32) for w in gw]
        V_buf = [np.empty_like(U) for U in U_buf]
    prev_cols, tok_cols, lp_cols = [], [], []
    stash = []
    for t in range(steps):
        s = steps - 1 - t
        hq = hidden[L - 1]
        e = np.tanh(K + (hq @ Wq)[:, None, :],
                    out=E_buf[s] if taped else None)
        alpha = _softmax_rows((e @ v)[:, :, 0])
        ctx = (alpha[:, None, :] @ Pt)[:, 0, :]
        x = np.concatenate([emb[prev], ctx], axis=1)
        caches = []
        for l in range(L):
            UV = (U_buf[l][s], V_buf[l][s]) if taped else ()
            x, cache = _gru_forward(x, hidden[l], *gw[l], *UV)
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
            stash.append((alpha, caches, x, lsm))
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
        WoT, WqT = _transposed(Wo, Wq)
        gwT = [_transposed(Wz, Wr, Wh) for Wz, _, Wr, _, Wh, _ in gw]
        dPt = np.zeros_like(Pt)
        dK = np.zeros_like(K)
        carry = [np.zeros((B, cfg.d_e), F32) for _ in range(L)]
        # Step t's rows go to slot T_len-1-t here, and sit at that index
        # of the forward buffers' valid part [steps-T_len:] too.
        first = steps - T_len
        E = E_buf[first:]
        DL = np.empty((T_len, B, Wo.shape[1]), F32)
        DS = np.empty((T_len,) + K.shape[:2], F32)
        DQ = np.empty((T_len, B, cfg.d_e), F32)
        DX = np.empty((T_len, B, 2 * cfg.d_e), F32)  # layer 0's [emb, ctx]
        gates = [np.empty((3, T_len, B, cfg.d_e), F32) for _ in range(L)]
        for t in range(T_len - 1, -1, -1):
            s = T_len - 1 - t
            alpha, caches, _, lsm = stash[t]
            go = gmat[:, t:t + 1]
            dlogits = np.multiply(-go, np.exp(lsm), out=DL[s])
            dlogits[rows, tok_cols[t]] += go[:, 0]
            dx = dlogits @ WoT + carry[L - 1]
            for l in range(L - 1, -1, -1):
                extra = carry[l] if l < L - 1 else None
                dx, carry[l] = _gru_backward(
                    dx, caches[l], *gwT[l], *gates[l][:, s],
                    dx=DX[s] if l == 0 else None, dh_extra=extra)
            dctx = dx[:, cfg.d_e:]
            dalpha = (Pt @ dctx[:, :, None])[:, :, 0]
            dPt += alpha[:, :, None] * dctx[:, None, :]
            dsrow = np.multiply(alpha, dalpha - (dalpha * alpha).sum(
                axis=1, keepdims=True), out=DS[s])
            dpre = dsrow[:, :, None] * v[:, 0] * (ONE - E[s] * E[s])
            dK += dpre
            dq = dpre.sum(axis=1, out=DQ[s])
            carry[L - 1] = carry[L - 1] + dq @ WqT

        demb = _scatter_rows(p["emb"].shape, np.concatenate(prev_cols[::-1]),
                             _step_rows(DX[..., :cfg.d_e]))
        HQ = _step_rows(U_buf[L - 1][first:, :, :cfg.d_e])
        HT = np.concatenate([stash[t][2] for t in range(T_len - 1, -1, -1)])
        DLr = _step_rows(DL)
        grads = [dPt, dK, demb, HQ.T @ _step_rows(DQ),
                 _step_rows(E).T @ DS.reshape(-1, 1), HT.T @ DLr,
                 DLr.sum(axis=0, dtype=F32)]
        for l in range(L):
            grads.extend(_gru_weight_grads(U_buf[l][first:], V_buf[l][first:],
                                           *gates[l]))
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
    E = embs.nd().reshape(B, -1, embs.shape[1])
    Wz, Wr, Wh = wz.nd(), wr.nd(), wh.nd()
    bzd, brd, bhd = bz.data, br.data, bh.data
    T_len = E.shape[1]
    live = [(t < lengths)[:, None] for t in range(T_len)]
    # the step-major buffers of the module docstring, taped only
    taped = tape is not None
    if taped:
        U_buf = np.empty((T_len, B, Wz.shape[0]), F32)
        V_buf = np.empty_like(U_buf)
    h = h0
    caches = []
    for t in range(T_len):
        UV = (U_buf[T_len - 1 - t], V_buf[T_len - 1 - t]) if taped else ()
        h_new, cache = _gru_forward(E[:, t], h, Wz, bzd, Wr, brd, Wh, bhd,
                                    *UV)
        h = np.where(live[t], h_new, h)
        if taped:
            caches.append(cache)
    out = Tensor._wrap(h.ravel().copy(), h.shape, True)
    if not taped:
        out.requires_grad = False
        return out

    def rule(g):
        dh = g.reshape(B, -1)
        WT = _transposed(Wz, Wr, Wh)
        gates = np.empty((3, T_len, B, dh.shape[1]), F32)
        dE = np.empty_like(E)
        for t in range(T_len - 1, -1, -1):
            dH = _gru_backward(np.where(live[t], dh, ZERO), caches[t], *WT,
                               *gates[:, T_len - 1 - t], dx=dE[:, t])[1]
            dh = np.where(live[t], dH, dh)
        return ([dE.reshape(B * T_len, -1)]
                + _gru_weight_grads(U_buf, V_buf, *gates))

    tape.record(out, (embs, wz, bz, wr, br, wh, bh), rule)
    return out
