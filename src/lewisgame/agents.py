"""Speaker and Listener models built on the tape-based tensor core.

The Speaker encodes an observation into a small set of "patch" vectors
and decodes a token sequence with a stacked gated-recurrent cell using
additive attention over those patches. The Listener summarizes a
message with its own recurrent encoder, projects the summary into the
image-embedding space with a two-layer MLP, and scores candidates by
inner product. By default the Listener reuses the Speaker's observation
encoder; a stop-gradient flag detaches that path.

Forward passes are pure functions of (parameters, inputs, rng state).
Greedy decoding (temperature 0) is fully deterministic; sampled
decoding is deterministic given the rng. Teacher-forced re-scoring of a
sampled message reproduces the recorded log-probabilities bitwise
because both paths execute the identical op sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from ._decode import decode_message, encode_observation, gru_sequence
from .params import ParameterSet
from .tensor import F32, Tensor


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and switches shared by both agents."""

    vocab_size: int
    obs_dim: int
    d_e: int = 128
    d_o: int = 128
    n_layers: int = 2
    n_patches: int = 4
    d_att: int = 0          # 0 means "same as d_e"
    raster: bool = False
    raster_size: int = 16
    raster_grid: int = 4
    listener_stop_gradient: bool = False

    @property
    def att_dim(self) -> int:
        return self.d_att or self.d_e

    @property
    def patch_dim(self) -> int:
        if not self.raster:
            return self.obs_dim
        cell = self.raster_size // self.raster_grid
        return cell * cell * 3

    @property
    def patch_count(self) -> int:
        return self.raster_grid ** 2 if self.raster else self.n_patches


@dataclass(frozen=True)
class MessageSample:
    """A decoded message: token ids and their per-step log-probabilities.

    Tokens start after the implicit <bos>, end at <eos> (included when
    emitted) or at the length cap. Log-probabilities are evaluated on
    the temperature-free distribution.
    """

    tokens: tuple
    logprobs: np.ndarray

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
    for gate in ("z", "r", "h"):
        params.add(f"{name}.w{gate}",
                   Tensor(_glorot(rng, d_in + d_h, d_h), True))
        params.add(f"{name}.b{gate}", Tensor(np.zeros(d_h, F32), True))


def _raster_patches(obs: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Grid cells of one or more flat rasters as patch rows.

    ``obs`` is (obs_dim,) or (N, obs_dim); the result holds grid² rows
    per observation, cells in row-major grid order, each cell flattened
    as (row, column, channel).
    """
    size, grid = cfg.raster_size, cfg.raster_grid
    cell = size // grid
    img = obs.reshape(-1, grid, cell, grid, cell, 3)
    return img.transpose(0, 1, 3, 2, 4, 5).reshape(-1, cfg.patch_dim)


class SpeakerPolicy:
    """Observation encoder plus attentional recurrent token decoder.

    The encoder and the decoder are the kernels of ``_decode``, which
    record one tape node per encoded batch of observations and one per
    message.
    """

    def __init__(self, cfg: ModelConfig, params: ParameterSet):
        self.cfg = cfg
        self.params = params

    @classmethod
    def create(cls, cfg: ModelConfig, seed: int) -> "SpeakerPolicy":
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x59]))
        p = ParameterSet()
        if cfg.raster:
            _add_linear(p, rng, "enc.l1", cfg.patch_dim, cfg.d_e)
            _add_linear(p, rng, "enc.l2", cfg.d_e, cfg.d_e)
        else:
            _add_linear(p, rng, "enc.l1", cfg.obs_dim, cfg.d_e)
            _add_linear(p, rng, "enc.l2", cfg.d_e, cfg.n_patches * cfg.d_e)
        p.add("emb", Tensor(rng.normal(0, 0.1, (cfg.vocab_size, cfg.d_e))
                            .astype(F32), True))
        d_in = 2 * cfg.d_e
        for layer in range(cfg.n_layers):
            _add_gru(p, rng, f"gru{layer}", d_in, cfg.d_e)
            _add_linear(p, rng, f"init{layer}", cfg.d_e, cfg.d_e)
            d_in = cfg.d_e
        p.add("attn.we", Tensor(_glorot(rng, cfg.d_e, cfg.att_dim), True))
        p.add("attn.wh", Tensor(_glorot(rng, cfg.d_e, cfg.att_dim), True))
        p.add("attn.v", Tensor(_glorot(rng, cfg.att_dim, 1), True))
        _add_linear(p, rng, "head", cfg.d_e, cfg.vocab_size)
        return cls(cfg, p)

    def copy(self) -> "SpeakerPolicy":
        return SpeakerPolicy(self.cfg, self.params.copy())

    # -- forward pieces ----------------------------------------------------

    def encode(self, obs: np.ndarray, tape) -> Tensor:
        """Observations to patch vectors in one tape node.

        One (obs_dim,) observation gives a (patches, d_e) tensor; a
        (N, obs_dim) stack gives (N, patches, d_e).
        """
        p, cfg = self.params, self.cfg
        rows = (_raster_patches(obs, cfg) if cfg.raster
                else obs.reshape(-1, cfg.obs_dim))
        return encode_observation(rows, p["enc.l1.w"], p["enc.l1.b"],
                                  p["enc.l2.w"], p["enc.l2.b"],
                                  obs.shape[:-1] + (cfg.patch_count, cfg.d_e),
                                  tape)

    def attention_keys(self, patches: Tensor, tape) -> Tensor:
        return T.matmul(tape, patches, self.params["attn.we"])

    def initial_hidden(self, patches: Tensor, tape) -> list[Tensor]:
        """Decoder start states, conditioned on the pooled observation.

        Seeding the recurrent state from the encoder makes messages
        observation-dependent from the first step, which is what lets
        the retrieval game bootstrap from random weights.
        """
        pooled = T.mean(tape, patches, axis=0)
        states = []
        for layer in range(self.cfg.n_layers):
            p = self.params
            states.append(T.tanh(tape, T.add(
                tape, T.matmul(tape, pooled, p[f"init{layer}.w"]),
                p[f"init{layer}.b"])))
        return states

    # -- decoding ----------------------------------------------------------

    def sample(self, obs: np.ndarray, t_max: int, temperature: float,
               n_samples: int, rng, tape=None):
        """Draw ``n_samples`` messages; returns (samples, logprob nodes).

        Sampling draws from softmax(logits / temperature); temperature 0
        means greedy. Recorded log-probabilities always come from the
        temperature-free log-softmax. Each returned node is a (T, 1)
        tensor of the chosen tokens' log-probs (None when untaped).
        """
        if temperature < 0:
            raise ValueError("temperature must be >= 0")
        patches = self.encode(obs, tape)
        keys = self.attention_keys(patches, tape)
        h0 = self.initial_hidden(patches, tape)
        samples, nodes = [], []
        for _ in range(n_samples):
            tokens, lps, node = decode_message(
                self, patches, keys, h0, tape, t_max=t_max,
                temperature=temperature, rng=rng)
            samples.append(MessageSample(tuple(tokens), lps))
            nodes.append(node)
        return samples, nodes

    def logprobs(self, obs: np.ndarray, tokens, tape=None):
        """Teacher-forced per-step log-probabilities of a fixed message."""
        tokens = list(tokens)
        if not tokens:
            raise ValueError("logprobs: message must contain at least one token")
        patches = self.encode(obs, tape)
        keys = self.attention_keys(patches, tape)
        h0 = self.initial_hidden(patches, tape)
        _, lps, node = decode_message(self, patches, keys, h0, tape,
                                      tokens=tokens)
        return lps, node


class ListenerModel:
    """Message encoder, projection MLP, and shared image encoder head.

    A round's K candidates are embedded as one batch (``embed_images``),
    so the tape holds the same few nodes for them whatever K is.
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
        _add_linear(p, rng, "img", cfg.d_e, cfg.d_o)
        return cls(cfg, p, encoder)

    def embed_message(self, tokens, tape=None) -> Tensor:
        """Summary vector of a message, from the final recurrent state."""
        tokens = list(tokens)
        if not tokens:
            raise ValueError("embed_message: message must be non-empty")
        p = self.params
        embs = T.embedding(tape, p["emb"], tokens)
        h = gru_sequence(embs, np.zeros((1, self.cfg.d_o), F32),
                         p["gru.wz"], p["gru.bz"], p["gru.wr"], p["gru.br"],
                         p["gru.wh"], p["gru.bh"], tape)
        mid = T.tanh(tape, T.add(tape, T.matmul(tape, h, p["proj.l1.w"]),
                                 p["proj.l1.b"]))
        return T.add(tape, T.matmul(tape, mid, p["proj.l2.w"]), p["proj.l2.b"])

    def embed_images(self, observations: np.ndarray, tape=None,
                     encoder=None) -> Tensor:
        """(K, d_o) embeddings of K candidate observations, one per row.

        All candidates go through the shared encoder in one node; each
        candidate's patches are then mean-pooled and projected, again one
        node per op for the whole set.
        """
        enc = encoder or self.encoder
        if enc is None:
            raise ValueError("listener has no bound image encoder")
        p = self.params
        if self.cfg.listener_stop_gradient:
            patches = enc.encode(observations, None).detached()
        else:
            patches = enc.encode(observations, tape)
        pooled = T.mean(tape, patches, axis=1)
        return T.add(tape, T.matmul(tape, pooled, p["img.w"]), p["img.b"])

    def log_probs(self, tokens, v_imgs: Tensor, tape=None) -> Tensor:
        """(1, K) log-probabilities of the candidates given a message.

        Scores are inner products between the message summary and each
        row of ``v_imgs`` (from ``embed_images``); their log-softmax is
        both the listener's loss term and, through ``exp``, the shared
        reward and the evaluation ranking.
        """
        v_m = self.embed_message(tokens, tape)
        scores = T.matmul(tape, v_imgs,
                          T.reshape(tape, v_m, (v_m.shape[1], 1)))
        return T.log_softmax(
            tape, T.reshape(tape, scores, (1, v_imgs.shape[0])))


def model_config_from_params(speaker_params: ParameterSet,
                             listener_params: ParameterSet,
                             raster: bool = False, raster_size: int = 16,
                             raster_grid: int = 4) -> ModelConfig:
    """Reconstruct dimensions from checkpointed parameter shapes."""
    vocab, d_e = speaker_params["emb"].shape
    d_o = listener_params["img.w"].shape[1]
    n_layers = len({n.split(".")[0] for n in speaker_params.names()
                    if n.startswith("gru")})
    in_dim = speaker_params["enc.l1.w"].shape[0]
    out_dim = speaker_params["enc.l2.w"].shape[1]
    if raster:
        return ModelConfig(vocab_size=vocab, obs_dim=raster_size ** 2 * 3,
                           d_e=d_e, d_o=d_o, n_layers=n_layers,
                           d_att=speaker_params["attn.we"].shape[1],
                           raster=True, raster_size=raster_size,
                           raster_grid=raster_grid)
    return ModelConfig(vocab_size=vocab, obs_dim=in_dim, d_e=d_e, d_o=d_o,
                       n_layers=n_layers, n_patches=out_dim // d_e,
                       d_att=speaker_params["attn.we"].shape[1])
