"""Deterministic synthetic shape world.

Scenes hold one to three attributed objects on a small grid. Each scene
gets a fixed-length attribute-vector observation (optionally a tiny
raster), plus templated reference captions used only for evaluation and
supervised warm starts. All randomness is keyed by explicit seeds;
regenerating with the same seed and spec is bitwise identical.

A split is built in whole-split array passes over ``_Scenes``: its
object counts, one (shape, color, size, row, col) row per object (scene
after scene, each in cell order) and its u64 ids. A draw decodes only
the enumeration indices it keeps, or draws scenes one at a time and
dedupes their ids after. ``_scene_ids`` numbers the scenes of a draw,
and ``_faults`` with it checks those of a file or of
``Scene.from_objects``, all at once. The ``Scene`` list, observations,
captions (made when first read) and attribute ids are each one pass
over those arrays.

World file layout (all integers little-endian): magic ``LGW1``, u16
version 2, then ``_HEADER``: u8 grid, u8 min objects, u8 max objects,
u8 raster flag, u16 raster size, f32 noise, u64 seed, u8 split code
(0 train, 1 val, 2 test) and u32 scene count, 29 bytes in all. Each
scene follows as ``_SCENE``, a u64 id and a u8 object count, and per
object (in cell order) ``_OBJECT``, five u8: shape, color, size, row,
col. Both directions go through one table with a row per record: the
reader finds each record's offset from the object counts, and refuses
the first scene any check fails at that scene's first byte.
Observations, rasters and captions are functions of the header and the
scenes, so the file does not hold them: loading rebuilds them as
generating the split built them, and a change to how they are drawn
moves no file byte and no version. A raster reaches the agents as its
grid cells, in row-major order.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

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
_ID_BYTES, _SCENE_BYTES, _OBJECT_BYTES = 8, 9, 5  # of an id, _SCENE, _OBJECT

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
        # ``_scene_ids`` calls this on an ObjectSpec of whole columns
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
        arrays = _Scenes.of([cls(objs, 0)])
        faults = _faults(arrays.counts, arrays.objects, grid)[0]
        if faults.any():
            raise ValueError(_fault_message(faults.argmax(), arrays.objects,
                                            grid))
        return cls(objs, int(_scene_ids(arrays.counts, arrays.objects,
                                        grid)[0]))

    def attribute_words(self) -> set[str]:
        out = set()
        for o in self.objects:
            out.update(o.words())
        return out


class _Scenes(NamedTuple):
    """Scenes as arrays: ``counts`` (N,) objects per scene, ``objects``
    (counts.sum(), 5) each object's shape, color, size, row and col,
    scene after scene and each scene's in cell order, and ``ids`` (N,)
    their u64 scene ids."""

    counts: np.ndarray
    objects: np.ndarray
    ids: np.ndarray

    @classmethod
    def of(cls, scenes) -> "_Scenes":
        objects = [v for s in scenes for o in s.objects
                   for v in (o.shape, o.color, o.size, o.row, o.col)]
        return cls(np.array([len(s.objects) for s in scenes], np.intp),
                   np.array(objects, np.intp).reshape(-1, 5),
                   np.array([s.scene_id for s in scenes], np.uint64))

    def take(self, index) -> "_Scenes":
        """The scenes at positions ``index``, in the order it gives."""
        counts = self.counts[index]
        first = np.cumsum(self.counts) - self.counts
        _, slot = _slots(counts)
        return _Scenes(counts, self.objects[np.repeat(first[index], counts)
                                            + slot], self.ids[index])

    def scenes(self) -> list:
        objects = [ObjectSpec(*o) for o in self.objects.tolist()]
        return [Scene(tuple(objs), sid) for objs, sid in zip(
            _split(objects, self.counts), self.ids.tolist())]


def _split(values: list, sizes: np.ndarray) -> list:
    """``values`` cut into consecutive lists of ``sizes`` items."""
    ends = np.cumsum(sizes).tolist()
    return [values[start:end] for start, end in zip([0, *ends], ends)]


def _slots(counts: np.ndarray) -> tuple:
    """Each object's scene and its slot, its place in the scene's cell
    order, for scenes of ``counts`` objects laid out one after another."""
    scene = np.repeat(np.arange(len(counts)), counts)
    return scene, np.arange(len(scene)) - (np.cumsum(counts) - counts)[scene]


def _scene_ids(counts: np.ndarray, objects: np.ndarray,
               grid: int) -> np.ndarray:
    """Each scene's id, as LGW1's u64: the sum over its objects of
    (code + 1) * (grid² · 60 + 1) ** slot."""
    scene, slot = _slots(counts)
    codes = ObjectSpec(*objects.T.astype(np.uint64)).code(grid)
    table = np.zeros((len(counts), counts.max(initial=0)), np.uint64)
    table[scene, slot] = (codes + np.uint64(1)) * np.uint64(
        grid * grid * _N_ATTR + 1) ** slot.astype(np.uint64)
    return table.sum(axis=1, dtype=np.uint64)


def _out_of_range(objects: np.ndarray, grid: int) -> np.ndarray:
    limits = (len(SHAPES), len(COLORS), len(SIZES), grid, grid)
    return (objects >= limits).any(axis=1)


# what ``_faults`` finds in a scene, in the order a scene's faults are
# reported; an out-of-range object is named where the {} stands
_FAULTS = ("scene objects must occupy distinct cells",
           "scene objects must be in cell order",
           "object {} is out of range")


def _faults(counts: np.ndarray, objects: np.ndarray, grid: int) -> np.ndarray:
    """(N, 3) bools: whether scene n's objects share a cell, stand out of
    cell order (row, then column) or hold a value out of range."""
    scene, _ = _slots(counts)
    row, col = objects[:, 3], objects[:, 4]
    out = np.zeros((len(counts), len(_FAULTS)), bool)
    by = np.lexsort((col, row, scene))
    twin = ((np.diff(scene[by]) == 0) & (np.diff(row[by]) == 0)
            & (np.diff(col[by]) == 0))
    out[scene[by][1:][twin], 0] = True
    down = (scene[1:] == scene[:-1]) & (
        (row[1:] < row[:-1]) | (row[1:] == row[:-1]) & (col[1:] < col[:-1]))
    out[scene[1:][down], 1] = True
    out[scene[_out_of_range(objects, grid)], 2] = True
    return out


def _fault_message(fault: int, objects: np.ndarray, grid: int) -> str:
    """``_FAULTS[fault]`` for a scene of ``objects``, naming its first
    object out of range."""
    bad = objects[_out_of_range(objects, grid)]
    return _FAULTS[fault].format(bad.size and ObjectSpec(*bad[0].tolist()))


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
        return sum(self._block_sizes())

    def _block_sizes(self) -> list[int]:
        """How many scenes hold each object count, min_objects first."""
        return [math.comb(self.grid ** 2, c) * _N_ATTR ** c
                for c in range(self.min_objects, self.max_objects + 1)]


def _objects(shape, color, size, cell, grid: int) -> np.ndarray:
    return np.stack([shape, color, size, cell // grid, cell % grid], axis=1)


def _enumerated(spec: WorldSpec, index: np.ndarray) -> _Scenes:
    """The scenes at positions ``index`` of the enumeration: by object
    count, then by cell combination (lexicographic), then by attribute
    combination (the first object's most significant), each object's
    attributes numbered shape, then color, then size."""
    sizes = spec._block_sizes()
    ends = np.cumsum(sizes)
    block = np.searchsorted(ends, index, side="right")
    counts = spec.min_objects + block
    local = index - (ends - sizes)[block]
    scene, slot = _slots(counts)
    count, local = counts[scene], local[scene]
    attrs = local // _N_ATTR ** (count - 1 - slot) % _N_ATTR
    combo = local // _N_ATTR ** count
    cells = np.empty(len(scene), np.intp)
    for c in range(spec.min_objects, spec.max_objects + 1):
        combos = np.array(list(itertools.combinations(range(spec.grid ** 2),
                                                      c)), np.intp)
        mine = count == c
        cells[mine] = combos.reshape(-1, c)[combo[mine], slot[mine]]
    shape, rest = np.divmod(attrs, len(COLORS) * len(SIZES))
    objects = _objects(shape, *np.divmod(rest, len(SIZES)), cells, spec.grid)
    return _Scenes(counts, objects, _scene_ids(counts, objects, spec.grid))


def _random_scenes(rng, spec: WorldSpec, n: int) -> _Scenes:
    """Scenes drawn one at a time, each an object count, its cells and,
    cell by cell, a shape, a color and a size, kept in the order drawn
    unless an earlier one holds the same objects, until ``n`` are kept."""
    seen, counts, drawn = set(), [], []
    while len(counts) < n:
        count = int(rng.integers(spec.min_objects, spec.max_objects + 1))
        scene = tuple(sorted(
            (cell, int(rng.integers(len(SHAPES))),
             int(rng.integers(len(COLORS))), int(rng.integers(len(SIZES))))
            for cell in rng.choice(spec.grid ** 2, size=count,
                                   replace=False).tolist()))
        if scene not in seen:
            seen.add(scene)
            counts.append(count)
            drawn += scene
    cell, shape, color, size = np.array(drawn, np.intp).reshape(-1, 4).T
    counts = np.array(counts, np.intp)
    objects = _objects(shape, color, size, cell, spec.grid)
    return _Scenes(counts, objects, _scene_ids(counts, objects, spec.grid))


def _draw_scenes(seed: int, n: int, spec: WorldSpec) -> _Scenes:
    """Draw ``n`` distinct scenes, deterministically in ``seed``."""
    cap = spec.capacity()
    if n > cap:
        raise CapacityError(
            f"requested {n} scenes but the spec holds only {cap} distinct ones")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5C3E]))
    if cap <= 200_000:
        return _enumerated(spec, rng.permutation(cap)[:n])
    return _random_scenes(rng, spec, n)


def _observations(arrays: _Scenes, spec: WorldSpec, rng) -> np.ndarray:
    """(N, obs_dim) rows of one-hot attribute blocks per object slot, zero
    padded, plus noise drawn row after row."""
    scene, slot = _slots(arrays.counts)
    starts = np.cumsum((0, len(SHAPES), len(COLORS), len(SIZES), spec.grid))
    obs = np.zeros((len(arrays.counts), spec.obs_dim), F32)
    obs[scene[:, None],
        (slot * spec.block_dim)[:, None] + starts + arrays.objects] = 1
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


_ATTRIBUTE_WORDS = SIZES + COLORS + SHAPES


def _attribute_words(objects: np.ndarray) -> np.ndarray:
    """(M, 3) each object's size, color and shape, as indices into
    ``_ATTRIBUTE_WORDS``: its words in the order a caption says them."""
    return objects[:, [2, 1, 0]] + (0, len(SIZES), len(SIZES) + len(COLORS))


# the objects each caption of a scene describes in turn, by the scene's
# object count, as slots (-1 for none): in cell order, reversed, and
# rotated left by one
_ORDERS = np.array([[[-1] * 3] * 3,
                    [[0, -1, -1], [-1] * 3, [-1] * 3],
                    [[0, 1, -1], [1, 0, -1], [-1] * 3],
                    [[0, 1, 2], [2, 1, 0], [1, 2, 0]]])
# which of a caption's objects each of its 15 token places describes
_PLACES = np.repeat([0, 1, 2], [4, 6, 5])


def _captions(arrays: _Scenes, vocab: Vocabulary) -> list:
    """Each scene's templated captions, one per order of ``_ORDERS`` that
    gives a caption no earlier order gave, as token-id lists in
    ``vocab``: "a <size> <color> <shape>" of the first object, then its
    relation to the second ("left of", "right of", "above" or "below")
    and "a <size> <color> <shape>" of the second, then "and" and the
    third's description."""
    a, and_, left, right, above, below, of = vocab.encode(GLUE)
    words = np.array(vocab.encode(_ATTRIBUTE_WORDS))[
        _attribute_words(arrays.objects)]
    row, col = arrays.objects[:, 3], arrays.objects[:, 4]
    order = _ORDERS[arrays.counts]
    obj = np.where(order >= 0, (np.cumsum(arrays.counts)
                                - arrays.counts)[:, None, None] + order, -1)
    one, two = obj[..., 0], obj[..., 1]
    caption = np.empty(order.shape[:2] + _PLACES.shape, np.intp)
    caption[..., [0, 6, 11]], caption[..., 10] = a, and_
    caption[..., 1:4], caption[..., 7:10], caption[..., 12:] = (
        words[obj].transpose(2, 0, 1, 3))
    caption[..., 4] = np.where(col[one] < col[two], left, np.where(
        col[one] > col[two], right, np.where(row[one] < row[two], above,
                                             below)))
    caption[..., 5] = np.where(col[one] != col[two], of, -1)
    caption[obj[..., _PLACES] < 0] = -1  # holes
    keep = obj[..., 0] >= 0
    for k in (1, 2):
        for earlier in range(k):
            keep[:, k] &= (caption[:, k] != caption[:, earlier]).any(axis=1)
    caption = caption[keep]
    return _split(_split(caption[caption >= 0].tolist(),
                         (caption >= 0).sum(axis=1)), keep.sum(axis=1))


def build_captions(scene: Scene, vocab: Vocabulary) -> list[list[int]]:
    """Templated reference captions (1-3 per scene) as token-id lists."""
    return _captions(_Scenes.of([scene]), vocab)[0]


@dataclass
class Dataset:
    """One split: the four fields an LGW1 file stores, all that ``==``
    compares. The constructor builds ``observations`` (noise keyed by
    ``seed`` and the split), ``rasters`` (None but in a raster world) and
    the agents' inputs; ``captions``, in ``vocab``, which all datasets
    share, are made when first read."""

    spec: WorldSpec
    seed: int
    split: str
    scenes: list
    vocab = VOCAB  # a class attribute, not a field

    def __post_init__(self):
        self.scenes = list(self.scenes)
        self._build(_Scenes.of(self.scenes))

    @classmethod
    def _from_arrays(cls, spec: WorldSpec, seed: int, split: str,
                     arrays: _Scenes) -> "Dataset":
        """The dataset of the scenes ``arrays`` holds, its ``Scene`` list
        made from them."""
        dataset = cls.__new__(cls)
        dataset.spec, dataset.seed, dataset.split = spec, seed, split
        dataset.scenes = arrays.scenes()
        dataset._build(arrays)
        return dataset

    def _build(self, arrays: _Scenes) -> None:
        self._arrays = arrays
        spec, size = self.spec, self.spec.raster_size
        obs_rng = np.random.default_rng(np.random.SeedSequence(
            [int(self.seed), 0x0B5, _SPLIT_CODES[self.split]]))
        self.observations = _observations(arrays, spec, obs_rng)
        self.rasters = np.array(
            [render_raster(s, spec) for s in self.scenes], F32
        ).reshape(-1, size, size, 3) if spec.raster else None
        # each raster's grid cells in row-major order, as (row, col, channel)
        g, c = spec.grid, size // spec.grid
        self._inputs = (self.rasters.reshape(-1, g, c, g, c, 3).transpose(
            0, 1, 3, 2, 4, 5).reshape(-1, spec.input_dim) if spec.raster
            else self.observations)

    @functools.cached_property
    def captions(self) -> list:
        return _captions(self._arrays, self.vocab)

    def __len__(self) -> int:
        return len(self.scenes)

    def model_inputs(self) -> np.ndarray:
        """What the agents see: attribute vectors, or raster grid cells."""
        return self._inputs

    def attribute_ids(self) -> list[list[int]]:
        """Each scene's distinct attribute-word ids in ``vocab``."""
        scene, _ = _slots(self._arrays.counts)
        said = np.zeros((len(self), len(_ATTRIBUTE_WORDS)), bool)
        said[scene[:, None], _attribute_words(self._arrays.objects)] = True
        ids = np.array(self.vocab.encode(_ATTRIBUTE_WORDS))
        return _split(ids[np.nonzero(said)[1]].tolist(), said.sum(axis=1))


def generate_splits(seed: int, spec: WorldSpec, n_train: int, n_val: int = 0,
                    n_test: int = 0) -> dict[str, Dataset]:
    """Disjoint train/val/test datasets drawn from one scene pool."""
    total = n_train + n_val + n_test
    scenes = _draw_scenes(seed, total, spec)
    out = {}
    start = 0
    for split, n in (("train", n_train), ("val", n_val), ("test", n_test)):
        if n == 0 and split != "train":
            continue
        out[split] = Dataset._from_arrays(
            spec, seed, split, scenes.take(np.arange(start, start + n)))
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


def _records(counts: np.ndarray) -> tuple:
    """A zeroed table for the LGW1 records of scenes of ``counts``
    objects, one (N, width) u8 row per record from its first byte, the
    mask of the bytes each record holds (in the file's order when read
    row after row), and each object's (scene, slot) in the table's
    (N, most objects, 5) view of its objects."""
    most = counts.max(initial=0)
    width = _SCENE_BYTES + _OBJECT_BYTES * most
    table = np.zeros((len(counts), width), np.uint8)
    held = np.arange(width) < (_SCENE_BYTES + _OBJECT_BYTES * counts)[:, None]
    return table, held, table[:, _SCENE_BYTES:].reshape(
        len(counts), most, _OBJECT_BYTES), _slots(counts)


def save_dataset(dataset: Dataset, path: str) -> None:
    spec = dataset.spec
    counts, objects, ids = _Scenes.of(dataset.scenes)
    table, held, per_slot, at = _records(counts)
    table[:, :_ID_BYTES] = ids.astype("<u8").view(np.uint8).reshape(
        -1, _ID_BYTES)
    table[:, _ID_BYTES] = counts
    per_slot[at] = objects
    write_atomic(path, [
        DATASET_MAGIC + struct.pack("<H", DATASET_VERSION),
        struct.pack(_HEADER, spec.grid, spec.min_objects, spec.max_objects,
                    spec.raster, spec.raster_size, spec.noise, dataset.seed,
                    _SPLIT_CODES[dataset.split], len(dataset)),
        table[held]])


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
    # each record's object count, up to the first record whose count is
    # refused or which the file cuts short
    counts, off = [], r.off
    for _ in range(n_scenes):
        if off + _SCENE_BYTES > len(blob):
            break
        count = blob[off + _ID_BYTES]
        end = off + _SCENE_BYTES + _OBJECT_BYTES * count
        if not min_obj <= count <= max_obj or end > len(blob):
            break
        counts.append(count)
        off = end
    counts = np.array(counts, np.intp)
    table, held, per_slot, at = _records(counts)
    table[held] = np.frombuffer(blob, np.uint8, off - r.off, r.off)
    ids = np.ascontiguousarray(table[:, :_ID_BYTES]).view("<u8").ravel()
    objects = per_slot[at]
    _, first = np.unique(ids, return_index=True)
    repeated = np.ones(len(ids), bool)
    repeated[first] = False
    faults = np.column_stack([_faults(counts, objects, grid),
                              _scene_ids(counts, objects, grid) != ids,
                              repeated])
    bad = np.flatnonzero(faults.any(axis=1))
    if len(bad):
        n, fault = bad[0], faults[bad[0]].argmax()
        sid = int(ids[n])
        if fault < len(_FAULTS):
            mine = objects[at[0] == n]
            message = f"scene {sid}: {_fault_message(fault, mine, grid)}"
        else:
            message = (f"scene id mismatch for {sid}", f"repeated scene {sid}"
                       )[fault - len(_FAULTS)]
        raise FormatError(message, r.off + int(held[:n].sum()))
    if len(counts) < n_scenes:
        # the record the counts stopped at, read as far as it goes
        r.off = off
        sid, count = r.unpack(_SCENE)
        if not min_obj <= count <= max_obj:
            raise FormatError(f"scene {sid} holds {count} objects, outside "
                              f"[{min_obj}, {max_obj}]", off)
        for _ in range(count):
            r.unpack(_OBJECT)
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes", off)
    return Dataset._from_arrays(spec, seed, split,
                                _Scenes(counts, objects, ids))
