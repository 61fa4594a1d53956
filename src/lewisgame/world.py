"""Deterministic synthetic shape world.

Scenes hold one to three attributed objects on a small grid. Each scene
gets a fixed-length attribute-vector observation (optionally a tiny
raster), plus templated reference captions used only for evaluation and
supervised warm starts. All randomness is keyed by explicit seeds;
regenerating with the same seed and spec is bitwise identical.

World file layout (all integers little-endian): magic ``LGW1``, u16
version 2, then ``_HEADER``: u8 grid, u8 min objects, u8 max objects,
u8 raster flag, u16 raster size, f32 noise, u64 seed, u8 split code
(0 train, 1 val, 2 test) and u32 scene count, 29 bytes in all. Each
scene follows as ``_SCENE``, a u64 id and a u8 object count, and per
object (in cell order) ``_OBJECT``, five u8: shape, color, size, row,
col. Observations, rasters and captions are functions of the header
and the scenes, so the file does not hold them: loading rebuilds them
through ``Dataset``'s constructor, as generating the split built them,
and a change to how they are drawn moves no file byte and no version.
A raster reaches the agents as its grid cells, in row-major order.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .params import (FormatError, UnsupportedVersionError, _Reader,
                     write_atomic)
from .tensor import F32

SHAPES = ("circle", "square", "triangle", "star", "cross")
COLORS = ("red", "green", "blue", "yellow", "purple", "orange")
SIZES = ("small", "big")
GLUE = ("a", "and", "left", "right", "above", "below", "of")
SPECIALS = ("<bos>", "<eos>", "<pad>", "<unk>")

BOS, EOS, PAD, UNK = 0, 1, 2, 3

DATASET_MAGIC = b"LGW1"
DATASET_VERSION = 2
# the LGW1 records that follow the magic and the version, as ``struct``
# formats that both save_dataset and load_dataset use
_HEADER, _SCENE, _OBJECT = "<BBBBHfQBI", "<QB", "<5B"

_N_ATTR = len(SHAPES) * len(COLORS) * len(SIZES)  # 60 attribute combos
_SPLIT_CODES = {"train": 0, "val": 1, "test": 2}
_SPLIT_NAMES = {v: k for k, v in _SPLIT_CODES.items()}
# byte offset in an LGW1 file of each header field load_dataset checks
_HEADER_OFFSETS = {"grid": 6, "min_objects": 7, "max_objects": 8,
                   "raster": 9, "raster_size": 10, "noise": 12, "split": 24}


class CapacityError(ValueError):
    """More distinct scenes requested than the world spec can hold."""


class SamplingError(ValueError):
    """A game batch request the dataset cannot satisfy."""


class SpecError(ValueError):
    """A ``WorldSpec`` value it refuses; ``field`` names the field at fault."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class Vocabulary:
    """Fixed token list: specials at ids 0-3, then attribute and glue words."""

    def __init__(self):
        self.tokens = SPECIALS + SIZES + COLORS + SHAPES + GLUE
        self.token_to_id = {w: i for i, w in enumerate(self.tokens)}

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, words) -> list[int]:
        return [self.token_to_id.get(w, UNK) for w in words]

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]


VOCAB = Vocabulary()


@dataclass(frozen=True)
class ObjectSpec:
    """One object: attribute indices into SHAPES/COLORS/SIZES plus a cell."""

    shape: int
    color: int
    size: int
    row: int
    col: int

    def words(self) -> tuple[str, str, str]:
        return SIZES[self.size], COLORS[self.color], SHAPES[self.shape]

    def code(self, grid: int) -> int:
        pos = self.row * grid + self.col
        return pos * _N_ATTR + self.shape * (len(COLORS) * len(SIZES)) \
            + self.color * len(SIZES) + self.size


@dataclass(frozen=True)
class Scene:
    """An ordered (row-major by cell) tuple of objects plus a stable id."""

    objects: tuple
    scene_id: int

    @classmethod
    def from_objects(cls, objects, grid: int) -> "Scene":
        objs = tuple(sorted(objects, key=lambda o: (o.row, o.col)))
        cells = {(o.row, o.col) for o in objs}
        if len(cells) != len(objs):
            raise ValueError("scene objects must occupy distinct cells")
        for o in objs:
            if not (o.shape < len(SHAPES) and o.color < len(COLORS)
                    and o.size < len(SIZES) and max(o.row, o.col) < grid):
                raise ValueError(f"object {o} is out of range")
        base = grid * grid * _N_ATTR + 1
        sid = 0
        for i, o in enumerate(objs):
            sid += (o.code(grid) + 1) * base ** i
        return cls(objs, sid)

    def attribute_words(self) -> set[str]:
        out = set()
        for o in self.objects:
            out.update(o.words())
        return out


@dataclass
class WorldSpec:
    """Shape-world parameters; capacity and observation size derive from it."""

    grid: int = 4
    min_objects: int = 1
    max_objects: int = 3
    noise: float = 0.05
    raster: bool = False
    raster_size: int = 16

    def __post_init__(self):
        if not (1 <= self.min_objects <= self.max_objects <= 3):
            raise SpecError(
                "max_objects" if self.max_objects > 3 else "min_objects",
                "object counts must satisfy 1 <= min <= max <= 3")
        if not 2 <= self.grid <= 255:  # LGW1 stores it in one byte
            raise SpecError("grid", "grid must lie in [2, 255]")
        if self.raster:
            # LGW1 stores raster_size as a u16
            if not self.grid <= self.raster_size <= 65535:
                raise SpecError("raster_size", "raster_size must lie in "
                                f"[{self.grid}, 65535]")
            if self.raster_size % self.grid:
                raise SpecError("raster_size",
                                "raster_size must be a multiple of grid")
        # noise is serialized as f32; canonicalize so round-trips compare
        # equal, and check after, so a value past the f32 range is refused
        with np.errstate(over="ignore"):
            self.noise = float(F32(self.noise))
        if not 0 <= self.noise < math.inf:
            raise SpecError("noise", "noise must be finite and non-negative")
        if (self.grid ** 2 * _N_ATTR + 1) ** self.max_objects > 2 ** 64:
            raise SpecError("grid", f"grid {self.grid} gives "
                            f"{self.max_objects}-object scene ids past "
                            f"LGW1's u64")

    @property
    def block_dim(self) -> int:
        return len(SHAPES) + len(COLORS) + len(SIZES) + 2 * self.grid

    @property
    def obs_dim(self) -> int:
        return self.max_objects * self.block_dim

    @property
    def input_dim(self) -> int:
        """Width of the vector the agents actually consume."""
        return self.raster_size ** 2 * 3 if self.raster else self.obs_dim

    @property
    def cells(self) -> int:
        """Grid cells per model input: grid² in a raster world, else 1."""
        return self.grid ** 2 if self.raster else 1

    def check_read_by(self, obs_dim: int, cells: int) -> None:
        """``FormatError`` unless a model's (obs_dim, cells) is this layout."""
        want, have = (self.input_dim, self.cells), (obs_dim, cells)
        if have != want:
            raise FormatError(f"dataset observations (width, cells) {want} "
                              f"do not fit the model's {have}")

    def capacity(self) -> int:
        cells = self.grid * self.grid
        total = 0
        for c in range(self.min_objects, self.max_objects + 1):
            total += math.comb(cells, c) * _N_ATTR ** c
        return total


def _random_scene(rng, spec: WorldSpec) -> Scene:
    count = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    cells = rng.choice(spec.grid * spec.grid, size=count, replace=False)
    objs = []
    for cell in cells:
        objs.append(ObjectSpec(
            shape=int(rng.integers(len(SHAPES))),
            color=int(rng.integers(len(COLORS))),
            size=int(rng.integers(len(SIZES))),
            row=int(cell) // spec.grid,
            col=int(cell) % spec.grid,
        ))
    return Scene.from_objects(objs, spec.grid)


def _enumerate_scenes(spec: WorldSpec):
    cells = range(spec.grid * spec.grid)
    for count in range(spec.min_objects, spec.max_objects + 1):
        for cell_combo in itertools.combinations(cells, count):
            for attrs in itertools.product(range(_N_ATTR), repeat=count):
                objs = []
                for cell, a in zip(cell_combo, attrs):
                    shape, rest = divmod(a, len(COLORS) * len(SIZES))
                    color, size = divmod(rest, len(SIZES))
                    objs.append(ObjectSpec(shape, color, size,
                                           cell // spec.grid, cell % spec.grid))
                yield Scene.from_objects(objs, spec.grid)


def draw_scenes(seed: int, n: int, spec: WorldSpec) -> list[Scene]:
    """Draw ``n`` distinct scenes, deterministically in ``seed``."""
    cap = spec.capacity()
    if n > cap:
        raise CapacityError(
            f"requested {n} scenes but the spec holds only {cap} distinct ones")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5C3E]))
    if cap <= 200_000:
        all_scenes = list(_enumerate_scenes(spec))
        order = rng.permutation(len(all_scenes))
        return [all_scenes[i] for i in order[:n]]
    seen = set()
    out = []
    while len(out) < n:
        s = _random_scene(rng, spec)
        if s.scene_id not in seen:
            seen.add(s.scene_id)
            out.append(s)
    return out


def observation_vectors(scenes, spec: WorldSpec, rng) -> np.ndarray:
    """(N, obs_dim) rows of one-hot attribute blocks per object slot, zero
    padded, plus noise drawn row after row."""
    starts = tuple(itertools.accumulate(
        (0, len(SHAPES), len(COLORS), len(SIZES), spec.grid)))
    bd = spec.block_dim
    rows, cols = [], []
    for n, scene in enumerate(scenes):
        for i, o in enumerate(scene.objects):
            rows += [n] * len(starts)
            cols += [i * bd + start + value for start, value
                     in zip(starts, (o.shape, o.color, o.size, o.row, o.col))]
    obs = np.zeros((len(scenes), spec.obs_dim), F32)
    obs[rows, cols] = 1
    if spec.noise > 0:
        obs += rng.normal(0.0, spec.noise, size=obs.shape).astype(F32)
    return obs


# glyph masks on a 4x4 cell; small ones, each its own, in the 2x2 center
_GLYPHS_BIG = {
    "circle": [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)],
    "square": [(r, c) for r in range(4) for c in range(4)
               if r in (0, 3) or c in (0, 3)],
    "triangle": [(0, 1), (0, 2), (1, 1), (1, 2), (2, 0), (2, 3), (3, 0), (3, 3)],
    "star": [(0, 0), (0, 3), (1, 1), (1, 2), (2, 1), (2, 2), (3, 0), (3, 3)],
    "cross": [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2),
              (1, 0), (1, 3), (2, 0), (2, 3)],
}
_GLYPHS_SMALL = {
    "circle": [(1, 2), (2, 1)],
    "square": [(1, 1), (1, 2), (2, 1), (2, 2)],
    "triangle": [(1, 1), (2, 1), (2, 2)],
    "star": [(1, 1), (2, 2)],
    "cross": [(1, 1), (1, 2), (2, 1)],
}
_COLOR_RGB = {
    "red": (1.0, 0.0, 0.0),
    "green": (0.0, 1.0, 0.0),
    "blue": (0.0, 0.0, 1.0),
    "yellow": (1.0, 1.0, 0.0),
    "purple": (0.6, 0.0, 0.8),
    "orange": (1.0, 0.55, 0.0),
}


def render_raster(scene: Scene, spec: WorldSpec) -> np.ndarray:
    """Draw each object's glyph in its color on a black raster."""
    size = spec.raster_size
    cell = size // spec.grid
    img = np.zeros((size, size, 3), F32)
    for o in scene.objects:
        shape_word = SHAPES[o.shape]
        mask = _GLYPHS_BIG[shape_word] if SIZES[o.size] == "big" \
            else _GLYPHS_SMALL[shape_word]
        rgb = np.array(_COLOR_RGB[COLORS[o.color]], F32)
        r0, c0 = o.row * cell, o.col * cell
        scale = cell / 4.0
        for (gr, gc) in mask:
            rr = r0 + int(gr * scale)
            cc = c0 + int(gc * scale)
            span = max(1, int(scale))
            img[rr:rr + span, cc:cc + span] = rgb
    return img


def _relation(a: ObjectSpec, b: ObjectSpec) -> list[str]:
    if a.col < b.col:
        return ["left", "of"]
    if a.col > b.col:
        return ["right", "of"]
    return ["above"] if a.row < b.row else ["below"]


def build_captions(scene: Scene, vocab: Vocabulary) -> list[list[int]]:
    """Templated reference captions (1-3 per scene) as token-id lists."""
    def describe(o):
        return ["a", *o.words()]

    objs = list(scene.objects)
    orders = [objs]
    if len(objs) >= 2:
        orders.append(objs[::-1])
    if len(objs) == 3:
        orders.append(objs[1:] + objs[:1])
    captions = []
    for order in orders:
        words = describe(order[0])
        if len(order) >= 2:
            words += _relation(order[0], order[1]) + describe(order[1])
        for extra in order[2:]:
            words += ["and"] + describe(extra)
        ids = vocab.encode(words)
        if ids not in captions:
            captions.append(ids)
    return captions


@dataclass
class Dataset:
    """One split: the four fields an LGW1 file stores, all that ``==``
    compares. The constructor builds ``observations`` (noise keyed by
    ``seed`` and the split), ``rasters`` (None but in a raster world), the
    agents' inputs and ``captions`` in ``vocab``, which all datasets share."""

    spec: WorldSpec
    seed: int
    split: str
    scenes: list
    vocab = VOCAB  # a class attribute, not a field

    def __post_init__(self):
        self.scenes = list(self.scenes)
        spec, size = self.spec, self.spec.raster_size
        obs_rng = np.random.default_rng(np.random.SeedSequence(
            [int(self.seed), 0x0B5, _SPLIT_CODES[self.split]]))
        self.observations = observation_vectors(self.scenes, spec, obs_rng)
        self.rasters = np.array(
            [render_raster(s, spec) for s in self.scenes], F32
        ).reshape(-1, size, size, 3) if spec.raster else None
        # each raster's grid cells in row-major order, as (row, col, channel)
        g, c = spec.grid, size // spec.grid
        self._inputs = (self.rasters.reshape(-1, g, c, g, c, 3).transpose(
            0, 1, 3, 2, 4, 5).reshape(-1, spec.input_dim) if spec.raster
            else self.observations)
        self.captions = [build_captions(s, self.vocab) for s in self.scenes]

    def __len__(self) -> int:
        return len(self.scenes)

    def model_inputs(self) -> np.ndarray:
        """What the agents see: attribute vectors, or raster grid cells."""
        return self._inputs


def generate_splits(seed: int, spec: WorldSpec, n_train: int, n_val: int = 0,
                    n_test: int = 0) -> dict[str, Dataset]:
    """Disjoint train/val/test datasets drawn from one scene pool."""
    total = n_train + n_val + n_test
    scenes = draw_scenes(seed, total, spec)
    out = {}
    start = 0
    for split, n in (("train", n_train), ("val", n_val), ("test", n_test)):
        if n == 0 and split != "train":
            continue
        out[split] = Dataset(spec, seed, split, scenes[start:start + n])
        start += n
    return out


def check_candidate_count(dataset: Dataset, k: int) -> None:
    """Raise ``SamplingError`` unless K distinct scenes can be drawn from
    ``dataset`` for a round."""
    if k < 2:
        raise SamplingError(f"need at least 2 candidates, got K={k}")
    if k > len(dataset):
        raise SamplingError(
            f"K={k} exceeds dataset size {len(dataset)}")


def sample_game_batch(dataset: Dataset, k: int, n: int,
                      rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` rounds, each K distinct uniform scenes and a uniform
    target position. Returns (n, K) scene indices and (n,) targets."""
    check_candidate_count(dataset, k)
    scenes = np.empty((n, k), np.intp)
    targets = np.empty(n, np.intp)
    for i in range(n):
        scenes[i] = rng.choice(len(dataset), size=k, replace=False)
        targets[i] = rng.integers(k)
    return scenes, targets


# ---------------------------------------------------------------------------
# serialization (LGW1)


def save_dataset(dataset: Dataset, path: str) -> None:
    spec = dataset.spec
    chunks = [
        DATASET_MAGIC + struct.pack("<H", DATASET_VERSION),
        struct.pack(_HEADER, spec.grid, spec.min_objects, spec.max_objects,
                    spec.raster, spec.raster_size, spec.noise, dataset.seed,
                    _SPLIT_CODES[dataset.split], len(dataset)),
    ]
    for scene in dataset.scenes:
        chunks.append(struct.pack(_SCENE, scene.scene_id, len(scene.objects)))
        for o in scene.objects:
            chunks.append(struct.pack(_OBJECT, o.shape, o.color, o.size,
                                      o.row, o.col))
    # one join costs less than a write per chunk of a few bytes
    write_atomic(path, [b"".join(chunks)])


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    magic = r.take(4)
    if magic != DATASET_MAGIC:
        raise FormatError(f"bad magic {magic!r}", 0)
    (version,) = r.unpack("<H")
    if version != DATASET_VERSION:
        raise UnsupportedVersionError(
            f"unsupported dataset version {version}", 4)
    (grid, min_obj, max_obj, raster_flag, raster_size, noise, seed,
     split_code, n_scenes) = r.unpack(_HEADER)
    if raster_flag > 1:
        raise FormatError(f"raster flag must be 0 or 1, not {raster_flag}",
                          _HEADER_OFFSETS["raster"])
    split = _SPLIT_NAMES.get(split_code)
    if split is None:
        raise FormatError("bad split tag", _HEADER_OFFSETS["split"])
    try:
        spec = WorldSpec(grid=grid, min_objects=min_obj, max_objects=max_obj,
                         noise=noise, raster=bool(raster_flag),
                         raster_size=raster_size)
    except SpecError as exc:
        raise FormatError(f"bad world header: {exc}",
                          _HEADER_OFFSETS[exc.field]) from None
    scenes, seen = [], set()
    for _ in range(n_scenes):
        start = r.off
        sid, count = r.unpack(_SCENE)
        if not min_obj <= count <= max_obj:
            raise FormatError(f"scene {sid} holds {count} objects, outside "
                              f"[{min_obj}, {max_obj}]", start)
        objs = [ObjectSpec(*r.unpack(_OBJECT)) for _ in range(count)]
        try:
            scene = Scene.from_objects(objs, grid)
        except ValueError as exc:
            raise FormatError(f"scene {sid}: {exc}", start) from None
        if scene.scene_id != sid:
            raise FormatError(f"scene id mismatch for {sid}", r.off)
        if sid in seen:
            raise FormatError(f"repeated scene {sid}", start)
        seen.add(sid)
        scenes.append(scene)
    if r.off != len(blob):
        raise FormatError(f"{len(blob) - r.off} trailing bytes", r.off)
    return Dataset(spec, seed, split, scenes)
