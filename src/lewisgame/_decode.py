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
"""

from __future__ import annotations

import numpy as np

from .tensor import F32, Tensor, _log_softmax_rows, _transposed

ZERO = F32(0)
ONE = F32(1)
HALF = F32(0.5)


def _sigmoid(x):
    return HALF * (np.tanh(HALF * x) + ONE)


def _softmax_rows(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _gru_forward(x, h, Wz, bz, Wr, br, Wh, bh):
    U = np.concatenate([h, x], axis=1)
    z = _sigmoid(U @ Wz + bz)
    r = _sigmoid(U @ Wr + br)
    V = np.concatenate([r * h, x], axis=1)
    c = np.tanh(V @ Wh + bh)
    return (ONE - z) * h + z * c, (U, z, r, V, c, h)


def _gru_backward(g, cache, WzT, WrT, WhT, dh_extra=None):
    """Returns (dx, dh_prev, dz, dr, dc) for one step, given the weights'
    ``_transposed`` copies; weight grads are assembled later from the
    stashed U/V rows and these gate grads."""
    U, z, r, V, c, h = cache
    G = g if dh_extra is None else g + dh_extra
    dh_ = h.shape[1]
    dz = G * (c - h) * z * (ONE - z)
    dc = G * z * (ONE - c * c)
    dH = G * (ONE - z)
    dV = dc @ WhT
    drh = dV[:, :dh_]
    dX = dV[:, dh_:].copy()
    dr = drh * h * r * (ONE - r)
    dH = dH + drh * r
    dU = dz @ WzT + dr @ WrT
    dH = dH + dU[:, :dh_]
    dX += dU[:, dh_:]
    return dX, dH, dz, dr, dc


def _gru_weight_grads(rows):
    """A GRU's six weight and bias gradients, batched over the steps'
    (U, V, dz, dr, dc) rows from ``_gru_forward`` and ``_gru_backward``."""
    U, V, DZ, DR, DC = (np.concatenate(col, axis=0) for col in zip(*rows))
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

    prev_cols, tok_cols, lp_cols = [], [], []
    stash = []
    for t in range(steps):
        hq = hidden[L - 1]
        e = np.tanh(K + (hq @ Wq)[:, None, :])
        alpha = _softmax_rows((e @ v)[:, :, 0])
        ctx = (alpha[:, None, :] @ Pt)[:, 0, :]
        x = np.concatenate([emb[prev], ctx], axis=1)
        caches = []
        for l in range(L):
            Wz, bz, Wr, br, Wh, bh = gw[l]
            x, cache = _gru_forward(x, hidden[l], Wz, bz, Wr, br, Wh, bh)
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
        if tape is not None:
            stash.append((hq, e, alpha, caches, x, lsm))
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
    if tape is None:
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
        h_tops, dlog_rows, hq_rows, dq_rows = [], [], [], []
        e_rows, ds_rows, demb_rows = [], [], []
        gru_rows = [[] for _ in range(L)]
        for t in range(T_len - 1, -1, -1):
            hq, e, alpha, caches, h_top, lsm = stash[t]
            go = gmat[:, t:t + 1]
            dlogits = -go * np.exp(lsm)
            dlogits[rows, tok_cols[t]] += go[:, 0]
            h_tops.append(h_top)
            dlog_rows.append(dlogits)
            dx = dlogits @ WoT + carry[L - 1]
            for l in range(L - 1, -1, -1):
                cache = caches[l]
                extra = carry[l] if l < L - 1 else None
                dX, dH, dz, dr, dc = _gru_backward(dx, cache, *gwT[l],
                                                   dh_extra=extra)
                gru_rows[l].append((cache[0], cache[3], dz, dr, dc))
                carry[l] = dH
                dx = dX
            demb_rows.append(dx[:, :cfg.d_e])
            dctx = dx[:, cfg.d_e:]
            dalpha = (Pt @ dctx[:, :, None])[:, :, 0]
            dPt += alpha[:, :, None] * dctx[:, None, :]
            dsrow = alpha * (dalpha - (dalpha * alpha).sum(axis=1,
                                                           keepdims=True))
            e_rows.append(e.reshape(-1, e.shape[2]))
            ds_rows.append(dsrow.reshape(-1, 1))
            dpre = dsrow[:, :, None] * v[:, 0] * (ONE - e * e)
            dK += dpre
            dq = dpre.sum(axis=1)
            hq_rows.append(hq)
            dq_rows.append(dq)
            carry[L - 1] = carry[L - 1] + dq @ WqT

        demb = np.zeros(p["emb"].shape, F32)
        np.add.at(demb, np.concatenate(prev_cols[::-1]),
                  np.concatenate(demb_rows, axis=0))
        HQ = np.concatenate(hq_rows, axis=0)
        DQ = np.concatenate(dq_rows, axis=0)
        HT = np.concatenate(h_tops, axis=0)
        DL = np.concatenate(dlog_rows, axis=0)
        E = np.concatenate(e_rows, axis=0)
        DS = np.concatenate(ds_rows, axis=0)
        grads = [dPt, dK, demb, HQ.T @ DQ, E.T @ DS, HT.T @ DL,
                 DL.sum(axis=0, dtype=F32)]
        for l in range(L):
            grads.extend(_gru_weight_grads(gru_rows[l]))
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
    h = h0
    caches = []
    for t in range(T_len):
        h_new, cache = _gru_forward(E[:, t], h, Wz, bzd, Wr, brd, Wh, bhd)
        h = np.where(live[t], h_new, h)
        if tape is not None:
            caches.append(cache)
    out = Tensor._wrap(h.ravel().copy(), h.shape, True)
    if tape is None:
        out.requires_grad = False
        return out

    def rule(g):
        dh = g.reshape(B, -1)
        WT = _transposed(Wz, Wr, Wh)
        dx_rows, gru_rows = [], []
        for t in range(T_len - 1, -1, -1):
            dX, dH, dz, dr, dc = _gru_backward(np.where(live[t], dh, ZERO),
                                               caches[t], *WT)
            dh = np.where(live[t], dH, dh)
            dx_rows.append(dX)
            gru_rows.append((caches[t][0], caches[t][3], dz, dr, dc))
        dE = np.stack(dx_rows[::-1], axis=1).reshape(B * T_len, -1)
        return [dE] + _gru_weight_grads(gru_rows)

    tape.record(out, (embs, wz, bz, wr, br, wh, bh), rule)
    return out
