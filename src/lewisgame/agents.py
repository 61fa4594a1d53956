"""Speaker and Listener models built on the tape-based tensor core.

The Speaker encodes an observation into a small set of "patch" vectors
and decodes a token sequence with a stacked gated-recurrent cell using
additive attention over those patches. An observation is ``cells``
equal runs of values (an image's grid cells, or one attribute vector),
and one MLP encodes each run into ``n_patches // cells`` patches. The
Listener summarizes a message with its own recurrent encoder, projects
the summary into the image-embedding space with a two-layer MLP, and
scores candidates by inner product. The Listener reuses the Speaker's
observation encoder, and its loss gradient flows back into that encoder.

Messages are decoded, rescored and embedded in blocks, one message per
row. The speaker encodes each run of equal consecutive observation rows
once, so the G samples of an observation share its encoding, and the
listener's GRU reads its input side from a vocabulary table built once
per block. Forward passes are pure functions of (parameters, inputs, rng
state, block shape). Greedy decoding (no rng) is fully deterministic;
sampling from the logits' softmax is deterministic given the rng.
Teacher-forced rescoring of a sampled block, as a block of the same
shape, reproduces the recorded log-probabilities bitwise, because both
execute the identical op sequence. Rescoring its messages in a block of
another shape, one at a time say, matches them within float32
round-off, since matmuls over a different number of rows sum in another
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from ._decode import decode_message, gru_sequence
from .params import FormatError, ParameterSet
from .tensor import F32, ShapeError, Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions shared by both agents; attention is ``d_e`` wide."""

    vocab_size: int
    obs_dim: int
    d_e: int = 128
    d_o: int = 128
    n_layers: int = 2
    n_patches: int = 4
    cells: int = 1

    def __post_init__(self):
        for name in ("vocab_size", "d_e", "d_o", "n_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} {getattr(self, name)} is below 1")
        for name in ("n_patches", "obs_dim"):  # each cell gets a whole share
            size = getattr(self, name)
            if self.cells < 1 or size < 1 or size % self.cells:
                raise ValueError(f"{name} {size} is not a positive multiple "
                                 f"of cells {self.cells}")


@dataclass(frozen=True)
class MessageSample:
    """The token ids of one decoded message, one row of a decoded block.

    Tokens start after the implicit <bos>, end at <eos> (included when
    emitted) or at the length cap. Their log-probabilities are the row's
    entries of the block's (B, T) node, zero past ``length``.
    """

    tokens: tuple

    @property
    def length(self) -> int:
        return len(self.tokens)


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(F32)


def _add_linear(params, rng, name, fan_in, fan_out):
    params.add(f"{name}.w", Tensor(_glorot(rng, fan_in, fan_out), True))
    params.add(f"{name}.b", Tensor(np.zeros(fan_out, F32), True))


def _add_gru(params, rng, name, d_in, d_h):
    """A GRU as ``_decode`` reads it: ``{name}.w``, [W_z | W_r | W_h] with
    its d_h state rows over its d_in input rows, and ``{name}.b``, [b_z |
    b_r | b_h]. Each gate's weight is its own Glorot draw, z first."""
    w = np.concatenate([_glorot(rng, d_in + d_h, d_h) for _ in "zrh"],
                       axis=1)
    params.add(f"{name}.w", Tensor(w, True))
    params.add(f"{name}.b", Tensor(np.zeros(3 * d_h, F32), True))


def _mlp(tape, x: Tensor, params: ParameterSet, name: str) -> Tensor:
    """Linear, tanh, linear over the rows of ``x``, with the weights
    ``{name}.l1.*`` and ``{name}.l2.*`` of ``params``."""
    mid = T.tanh(tape, T.add(tape, T.matmul(tape, x, params[f"{name}.l1.w"]),
                             params[f"{name}.l1.b"]))
    return T.add(tape, T.matmul(tape, mid, params[f"{name}.l2.w"]),
                 params[f"{name}.l2.b"])


class SpeakerPolicy:
    """Observation encoder plus attentional recurrent token decoder.

    The encoder is an ``_mlp`` over each observation's cell rows, built
    from generic tape ops; the decoder is the kernel of ``_decode``,
    which records one tape node per decoded block of messages.
    """

    def __init__(self, cfg: ModelConfig, params: ParameterSet):
        self.cfg = cfg
        self.params = params

    @classmethod
    def create(cls, cfg: ModelConfig, seed: int) -> "SpeakerPolicy":
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x59]))
        p = ParameterSet()
        _add_linear(p, rng, "enc.l1", cfg.obs_dim // cfg.cells, cfg.d_e)
        _add_linear(p, rng, "enc.l2", cfg.d_e,
                    cfg.n_patches // cfg.cells * cfg.d_e)
        p.add("emb", Tensor(rng.normal(0, 0.1, (cfg.vocab_size, cfg.d_e))
                            .astype(F32), True))
        d_in = 2 * cfg.d_e
        for layer in range(cfg.n_layers):
            _add_gru(p, rng, f"gru{layer}", d_in, cfg.d_e)
            _add_linear(p, rng, f"init{layer}", cfg.d_e, cfg.d_e)
            d_in = cfg.d_e
        p.add("attn.we", Tensor(_glorot(rng, cfg.d_e, cfg.d_e), True))
        p.add("attn.wh", Tensor(_glorot(rng, cfg.d_e, cfg.d_e), True))
        p.add("attn.v", Tensor(_glorot(rng, cfg.d_e, 1), True))
        _add_linear(p, rng, "head", cfg.d_e, cfg.vocab_size)
        return cls(cfg, p)

    def copy(self) -> "SpeakerPolicy":
        return SpeakerPolicy(self.cfg, self.params.copy())

    # -- forward pieces ----------------------------------------------------

    def _stack(self, obs: np.ndarray) -> np.ndarray:
        """``obs`` as an (N, obs_dim) stack; other widths are refused."""
        if obs.shape[-1:] != (self.cfg.obs_dim,):
            raise ShapeError(f"observations {obs.shape} do not end in "
                             f"obs_dim {self.cfg.obs_dim}")
        return obs.reshape(-1, self.cfg.obs_dim)

    def encode(self, obs: np.ndarray, tape) -> Tensor:
        """Observations to patch vectors, all rows through one ``_mlp``.

        One (obs_dim,) observation or an (N, obs_dim) stack gives its
        (N·P, d_e) rows, P = ``cfg.n_patches`` consecutive per observation,
        each of its ``cfg.cells`` runs encoded into P / cells of them.
        """
        cfg = self.cfg
        rows = self._stack(obs).reshape(-1, cfg.obs_dim // cfg.cells)
        flat = _mlp(tape, Tensor(rows), self.params, "enc")
        return T.reshape(tape, flat, (flat.size // cfg.d_e, cfg.d_e))

    def initial_hidden(self, patches: Tensor, tape) -> list[Tensor]:
        """Decoder start states, (N, d_e) per layer, each row conditioned
        on its observation's pooled patches, from ``encode``'s rows.

        Seeding the recurrent state from the encoder makes messages
        observation-dependent from the first step, which is what lets
        the retrieval game bootstrap from random weights.
        """
        pooled = T.mean(tape, patches, self.cfg.n_patches)
        states = []
        for layer in range(self.cfg.n_layers):
            p = self.params
            states.append(T.tanh(tape, T.add(
                tape, T.matmul(tape, pooled, p[f"init{layer}.w"]),
                p[f"init{layer}.b"])))
        return states

    # -- decoding ----------------------------------------------------------

    def _decode(self, obs: np.ndarray, tape, **kwargs):
        """Decode one message per row of an (N, obs_dim) stack, encoding
        each run of equal consecutive rows once (``sample``'s n_samples
        copies of an observation are one run)."""
        first = np.concatenate(([True], (obs[1:] != obs[:-1]).any(axis=1)))
        patches = self.encode(obs[first], tape)
        keys = T.matmul(tape, patches, self.params["attn.we"])
        h0 = self.initial_hidden(patches, tape)
        return decode_message(self, patches, keys, h0, np.cumsum(first) - 1,
                              tape, **kwargs)

    def sample(self, obs: np.ndarray, t_max: int, n_samples: int, rng,
               tape=None):
        """Draw ``n_samples`` messages per observation as one block.

        ``obs`` is one (obs_dim,) observation or an (N, obs_dim) stack.
        Returns (samples, node): a flat list of N·n_samples messages,
        observation-major (the first observation's n_samples, then the
        next one's), and the block's (N·n_samples, T) tensor of the chosen
        tokens' log-probs, zero past each message's end (untaped when
        ``tape`` is None). Each observation is encoded once for its
        n_samples messages, and its encoder takes the sum of their
        gradients. Each token is drawn from softmax(logits) with
        ``rng``, or is the argmax when ``rng`` is None (greedy).
        """
        if t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {t_max}")
        rows = np.repeat(self._stack(obs), n_samples, axis=0)
        tokens, node = self._decode(rows, tape, t_max=t_max, rng=rng)
        return [MessageSample(tuple(t)) for t in tokens], node

    def logprobs(self, obs: np.ndarray, messages, tape=None):
        """Teacher-forced per-step log-probabilities of fixed messages.

        ``obs`` is an (N, obs_dim) stack and ``messages`` holds one token
        sequence per row, decoded as one block, equal consecutive rows
        encoded once as in ``sample``. Returns the block's (N, T) node,
        zero past each message's end. A token id outside the vocabulary
        raises ``IndexError``.
        """
        messages = [list(m) for m in messages]
        if not messages or not all(messages):
            raise ValueError("logprobs: every message must contain at "
                             "least one token")
        T.check_index("logprobs", np.concatenate(messages),
                      self.cfg.vocab_size)
        _, node = self._decode(self._stack(obs), tape, tokens=messages)
        return node


class ListenerModel:
    """Message encoder, projection MLP, and shared image encoder head.

    Candidates are embedded as one batch of generic ops
    (``embed_images``) and messages as one padded GRU block
    (``embed_message``), so the tape holds the same few nodes for them
    whatever their number.
    """

    def __init__(self, cfg: ModelConfig, params: ParameterSet, encoder=None):
        self.cfg = cfg
        self.params = params
        self.encoder = encoder

    @classmethod
    def create(cls, cfg: ModelConfig, seed: int, encoder=None) -> "ListenerModel":
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x11]))
        p = ParameterSet()
        p.add("emb", Tensor(rng.normal(0, 0.1, (cfg.vocab_size, cfg.d_e))
                            .astype(F32), True))
        _add_gru(p, rng, "gru", cfg.d_e, cfg.d_o)
        _add_linear(p, rng, "proj.l1", cfg.d_o, 2 * cfg.d_o)
        _add_linear(p, rng, "proj.l2", 2 * cfg.d_o, cfg.d_o)
        # no bias: the softmax cancels v_m·b, the same in all K scores
        p.add("img.w", Tensor(_glorot(rng, cfg.d_e, cfg.d_o), True))
        return cls(cfg, p, encoder)

    def embed_message(self, messages, tape=None) -> Tensor:
        """(B, d_o) summary vectors of B messages, from each one's final
        recurrent state; the messages run through the GRU as one padded
        block of token ids. A token id outside the vocabulary raises
        ``IndexError`` before anything is recorded."""
        lengths = [len(m) for m in messages]
        if not lengths or min(lengths) == 0:
            raise ValueError("embed_message: messages must be non-empty")
        # step-major, as gru_sequence reads them; 0 pads
        ids = np.zeros((max(lengths), len(lengths)), np.intp)
        for b, m in enumerate(messages):
            ids[:len(m), b] = m
        T.check_index("embed_message", ids, self.cfg.vocab_size)
        p = self.params
        h = gru_sequence(p["emb"], ids, lengths, p["gru.w"], p["gru.b"],
                         tape)
        return _mlp(tape, h, p, "proj")

    def embed_images(self, observations: np.ndarray, tape=None,
                     encoder=None) -> Tensor:
        """(N, d_o) embeddings of N candidate observations, one per row.

        All candidates go through the shared encoder as one batch, one
        node per op for the whole set; each candidate's patches are then
        mean-pooled and projected the same way.
        """
        enc = encoder or self.encoder
        if enc is None:
            raise ValueError("listener has no bound image encoder")
        pooled = T.mean(tape, enc.encode(observations, tape),
                        enc.cfg.n_patches)
        return T.matmul(tape, pooled, self.params["img.w"])

    def log_probs(self, v_msgs: Tensor, v_imgs: Tensor, cols,
                  tape=None) -> Tensor:
        """(N, K) log-probabilities of each message's K candidates.

        ``v_msgs`` (N, d_o) holds N message summaries (from
        ``embed_message``), ``v_imgs`` (M, d_o) M distinct candidates'
        embeddings (from ``embed_images``), and row n of ``cols`` (N, K)
        message n's K distinct candidates among them. Each message is
        scored once against all M by inner product; row n is the
        log-softmax of its K scores, the listener's loss term and,
        through ``exp``, the shared reward and the evaluation ranking.
        """
        scores = T.inner(tape, v_msgs, v_imgs)
        return T.log_softmax(tape, T.take_cols(tape, scores, cols))


def model_config_from_params(speaker_params: ParameterSet,
                             listener_params: ParameterSet,
                             raster: bool = False, raster_size: int = 16,
                             raster_grid: int = 4) -> ModelConfig:
    """Reconstruct dimensions from checkpointed parameter shapes.

    Raises ``FormatError`` if an entry the sizes are read from is not a
    matrix or is empty, and ``KeyError`` if one is missing.
    """
    for prefix, params, name in (("speaker", speaker_params, "emb"),
                                 ("speaker", speaker_params, "enc.l1.w"),
                                 ("speaker", speaker_params, "enc.l2.w"),
                                 ("listener", listener_params, "img.w")):
        shape = params[name].shape
        if len(shape) != 2 or 0 in shape:
            what = "not rank 2" if len(shape) != 2 else "which is empty"
            raise FormatError(f"checkpoint entry {prefix}.{name} has shape "
                              f"{shape}, {what}")
    vocab, d_e = speaker_params["emb"].shape
    d_o = listener_params["img.w"].shape[1]
    n_layers = len({n.split(".")[0] for n in speaker_params.names()
                    if n.startswith("gru")})
    in_dim = speaker_params["enc.l1.w"].shape[0]
    out_dim = speaker_params["enc.l2.w"].shape[1]
    cells = raster_grid ** 2 if raster else 1
    return ModelConfig(vocab_size=vocab,
                       obs_dim=raster_size ** 2 * 3 if raster else in_dim,
                       d_e=d_e, d_o=d_o, n_layers=n_layers,
                       n_patches=cells * (out_dim // d_e), cells=cells)
