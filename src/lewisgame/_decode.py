"""Hand-fused forward/backward kernels: the model's only code path.

The observation encoder records one tape node per batch of
observations (a round's K candidates share one), and the speaker
decoder and the listener's message GRU one per message, instead of ~16
generic ops per token; that is what keeps training fast on a small
CPU. ``tests/reference.py`` builds the same computations from individual
tape ops and is the oracle: forward values must match it bitwise (same
numpy calls in the same order), gradients to float32 round-off. Backward
passes are ordinary backprop-through-time with the weight-gradient outer
products batched over steps.
"""

from __future__ import annotations

import numpy as np

from .tensor import F32, Tensor

ONE = F32(1)
HALF = F32(0.5)


def _sigmoid(x):
    return HALF * (np.tanh(HALF * x) + ONE)


def _softmax_rows(x):
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax_rows(x):
    shifted = x - x.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def _gru_forward(x, h, Wz, bz, Wr, br, Wh, bh):
    U = np.concatenate([h, x], axis=1)
    z = _sigmoid(U @ Wz + bz)
    r = _sigmoid(U @ Wr + br)
    V = np.concatenate([r * h, x], axis=1)
    c = np.tanh(V @ Wh + bh)
    return (ONE - z) * h + z * c, (U, z, r, V, c, h)


def _gru_backward(g, cache, Wz, Wr, Wh, dh_extra=None):
    """Returns (dx, dh_prev, dz, dr, dc) for one step; weight grads are
    assembled later from the stashed U/V rows and these gate grads."""
    U, z, r, V, c, h = cache
    G = g if dh_extra is None else g + dh_extra
    dh_ = h.shape[1]
    dz = G * (c - h) * z * (ONE - z)
    dc = G * z * (ONE - c * c)
    dH = G * (ONE - z)
    dV = dc @ Wh.T
    drh = dV[:, :dh_]
    dX = dV[:, dh_:].copy()
    dr = drh * h * r * (ONE - r)
    dH = dH + drh * r
    dU = dz @ Wz.T + dr @ Wr.T
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
# speaker decoder: attention + stacked GRU + head, one tape node per message


def decode_message(policy, patches: Tensor, keys: Tensor, init_hidden, tape,
                   *, tokens=None, t_max: int = 0, temperature: float = 1.0,
                   rng=None):
    """Run the decoder over one message.

    Teacher-forced when ``tokens`` is given, sampling otherwise.
    ``init_hidden`` holds one start-state tensor per layer; gradients
    flow back into them. Returns (tokens, per-step log-probs, (T,1)
    tape node).
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

    from .world import BOS, EOS
    sampling = tokens is None
    steps = t_max if sampling else len(tokens)
    hidden = [h.nd() for h in init_hidden]
    prev = BOS

    prev_ids, out_tokens, lps = [], [], []
    stash = []
    for t in range(steps):
        hq = hidden[L - 1]
        q = hq @ Wq
        e = np.tanh(K + q.ravel())
        srow = (e @ v).reshape(1, K.shape[0])
        alpha = _softmax_rows(srow)
        ctx = alpha @ Pt
        emb_x = emb[np.asarray([prev], dtype=np.intp)]
        x = np.concatenate([emb_x, ctx], axis=1)
        caches = []
        for l in range(L):
            Wz, bz, Wr, br, Wh, bh = gw[l]
            x, cache = _gru_forward(x, hidden[l], Wz, bz, Wr, br, Wh, bh)
            caches.append(cache)
            hidden[l] = x
        logits = x @ Wo + bo
        lsm = _log_softmax_rows(logits)
        if sampling:
            if temperature == 0:
                tok = int(np.argmax(logits.ravel()))
            else:
                xs = logits.ravel().astype(np.float64) / temperature
                xs -= xs.max()
                prob = np.exp(xs)
                prob /= prob.sum()
                tok = int(rng.choice(cfg.vocab_size, p=prob))
        else:
            tok = int(tokens[t])
        prev_ids.append(prev)
        out_tokens.append(tok)
        lps.append(lsm[0, tok])
        stash.append((hq, e, alpha, ctx, caches, hidden[L - 1], lsm))
        prev = tok
        if sampling and tok == EOS:
            break

    T_len = len(out_tokens)
    lp_arr = np.array(lps, F32)
    out = Tensor._wrap(lp_arr.copy(), (T_len, 1), True)
    if tape is None:
        out.requires_grad = False
        return out_tokens, lp_arr, out

    inputs = [patches, keys, p["emb"], p["attn.wh"], p["attn.v"],
              p["head.w"], p["head.b"]]
    for l in range(L):
        inputs.extend(p[f"gru{l}.{n}"] for n in
                      ("wz", "bz", "wr", "br", "wh", "bh"))
    inputs.extend(init_hidden)

    def rule(g):
        gvec = g.reshape(T_len)
        dPt = np.zeros_like(Pt)
        dK = np.zeros_like(K)
        dv = np.zeros_like(v)
        carry = [np.zeros((1, cfg.d_e), F32) for _ in range(L)]
        h_tops, dlog_rows, hq_rows, dq_rows = [], [], [], []
        gru_rows = [[] for _ in range(L)]
        demb_rows = []
        for t in range(T_len - 1, -1, -1):
            hq, e, alpha, ctx, caches, h_top, lsm = stash[t]
            go = gvec[t]
            soft = np.exp(lsm)
            dlogits = -go * soft
            dlogits[0, out_tokens[t]] += go
            h_tops.append(h_top)
            dlog_rows.append(dlogits)
            dx = dlogits @ Wo.T + carry[L - 1]
            for l in range(L - 1, -1, -1):
                Wz, _, Wr, _, Wh, _ = gw[l]
                cache = caches[l]
                extra = carry[l] if l < L - 1 else None
                dX, dH, dz, dr, dc = _gru_backward(dx, cache, Wz, Wr, Wh,
                                                   dh_extra=extra)
                gru_rows[l].append((cache[0], cache[3], dz, dr, dc))
                carry[l] = dH
                dx = dX
            demb_rows.append(dx[:, :cfg.d_e])
            dctx = dx[:, cfg.d_e:]
            dalpha = dctx @ Pt.T
            dPt += alpha.T @ dctx
            dsrow = alpha * (dalpha - (dalpha * alpha).sum(axis=1,
                                                           keepdims=True))
            dsc = dsrow.reshape(-1, 1)
            dv += e.T @ dsc
            de = dsc @ v.T
            dpre = de * (ONE - e * e)
            dK += dpre
            dq = dpre.sum(axis=0, keepdims=True)
            hq_rows.append(hq)
            dq_rows.append(dq)
            carry[L - 1] = carry[L - 1] + dq @ Wq.T

        demb = np.zeros(p["emb"].shape, F32)
        np.add.at(demb, np.asarray(prev_ids[::-1], dtype=np.intp),
                  np.concatenate(demb_rows, axis=0))
        HQ = np.concatenate(hq_rows, axis=0)
        DQ = np.concatenate(dq_rows, axis=0)
        HT = np.concatenate(h_tops, axis=0)
        DL = np.concatenate(dlog_rows, axis=0)
        grads = [dPt, dK, demb, HQ.T @ DQ, dv, HT.T @ DL,
                 DL.sum(axis=0, dtype=F32)]
        for l in range(L):
            grads.extend(_gru_weight_grads(gru_rows[l]))
        grads.extend(carry)  # d loss / d initial hidden, per layer
        return grads

    tape.record(out, tuple(inputs), rule)
    return out_tokens, lp_arr, out


# ---------------------------------------------------------------------------
# listener message encoder: plain GRU chain over an embedding matrix


def gru_sequence(embs: Tensor, h0: np.ndarray, wz: Tensor, bz: Tensor,
                 wr: Tensor, br: Tensor, wh: Tensor, bh: Tensor,
                 tape) -> Tensor:
    """Final hidden state of a GRU run over the rows of ``embs``."""
    E = embs.nd()
    Wz, Wr, Wh = wz.nd(), wr.nd(), wh.nd()
    bzd, brd, bhd = bz.data, br.data, bh.data
    T_len = E.shape[0]
    h = h0
    caches = []
    for t in range(T_len):
        h, cache = _gru_forward(E[t:t + 1], h, Wz, bzd, Wr, brd, Wh, bhd)
        caches.append(cache)
    out = Tensor._wrap(h.ravel().copy(), (1, h.shape[1]), True)
    if tape is None:
        out.requires_grad = False
        return out

    def rule(g):
        dh = g.reshape(1, -1)
        dx_rows, gru_rows = [], []
        for t in range(T_len - 1, -1, -1):
            dX, dh, dz, dr, dc = _gru_backward(dh, caches[t], Wz, Wr, Wh)
            dx_rows.append(dX)
            gru_rows.append((caches[t][0], caches[t][3], dz, dr, dc))
        dE = np.concatenate(dx_rows[::-1], axis=0)
        return [dE] + _gru_weight_grads(gru_rows)

    tape.record(out, (embs, wz, bz, wr, br, wh, bh), rule)
    return out


# ---------------------------------------------------------------------------
# observation encoder: linear-tanh-linear, one node per batch


def encode_observation(obs_rows: np.ndarray, w1: Tensor, b1: Tensor,
                       w2: Tensor, b2: Tensor, out_shape, tape) -> Tensor:
    """Fused two-layer MLP over every row of ``obs_rows`` (constant
    input), which may hold any number of observations' rows; the
    row-major result is laid out as ``out_shape``."""
    X = obs_rows
    W1, W2 = w1.nd(), w2.nd()
    pre = X @ W1 + b1.data
    hid = np.tanh(pre)
    out_nd = hid @ W2 + b2.data
    out = Tensor._wrap(out_nd.ravel().copy(), tuple(out_shape), True)
    if tape is None:
        out.requires_grad = False
        return out

    def rule(g):
        G = g.reshape(hid.shape[0], -1)
        dhid = (G @ W2.T) * (ONE - hid * hid)
        return (None, X.T @ dhid, dhid.sum(axis=0, dtype=F32),
                hid.T @ G, G.sum(axis=0, dtype=F32))

    tape.record(out, (Tensor(obs_rows), w1, b1, w2, b2), rule)
    return out
