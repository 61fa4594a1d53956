import itertools
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import reference
from reference import generate_dataset

from lewisgame import evaluate
from lewisgame.params import FormatError, UnsupportedVersionError
from lewisgame.world import (BOS, EOS, PAD, SHAPES, SIZES, UNK,
                             CapacityError, Dataset, ObjectSpec,
                             SamplingError, Scene, Vocabulary, WorldSpec,
                             build_captions, generate_splits, load_dataset,
                             render_raster, sample_game_batch, save_dataset)


def _derived(ds):
    """The arrays a Dataset's constructor builds from its four fields,
    as bytes, so two datasets' can be compared bit for bit."""
    rasters = None if ds.rasters is None else ds.rasters.tobytes()
    return (ds.observations.tobytes(), rasters, ds.captions,
            ds.model_inputs().tobytes())


def test_vocab_specials_reserved_and_small():
    v = Vocabulary()
    assert v.tokens[:4] == ("<bos>", "<eos>", "<pad>", "<unk>")
    assert (BOS, EOS, PAD, UNK) == (0, 1, 2, 3)
    assert len(v) <= 64
    assert len(set(v.tokens)) == len(v.tokens)


def test_vocab_roundtrip_and_unk():
    v = Vocabulary()
    words = ["a", "big", "red", "circle"]
    assert v.decode(v.encode(words)) == words
    assert v.encode(["zebra"]) == [UNK]


def test_capacity_single_object_world():
    spec = WorldSpec(min_objects=1, max_objects=1)
    # 5 shapes x 6 colors x 2 sizes x 16 cells
    assert spec.capacity() == 960


def test_generate_dataset_deterministic():
    spec = WorldSpec()
    a = generate_dataset(11, 40, spec)
    b = generate_dataset(11, 40, spec)
    assert a == b and _derived(a) == _derived(b)
    c = generate_dataset(12, 40, spec)
    assert c != a


def test_generate_over_capacity_raises():
    spec = WorldSpec(min_objects=1, max_objects=1)
    with pytest.raises(CapacityError):
        generate_dataset(0, 961, spec)


def test_scene_ids_distinct_and_positions_unique():
    ds = generate_dataset(5, 200, WorldSpec())
    ids = [s.scene_id for s in ds.scenes]
    assert len(set(ids)) == len(ids)
    for s in ds.scenes:
        cells = [(o.row, o.col) for o in s.objects]
        assert len(set(cells)) == len(cells)


def test_single_object_caption_contains_attributes():
    spec = WorldSpec(min_objects=1, max_objects=1)
    ds = generate_dataset(3, 20, spec)
    for scene, caps in zip(ds.scenes, ds.captions):
        words = set(ds.vocab.decode(caps[0]))
        assert scene.attribute_words() <= words


def test_captions_tokenize_roundtrip_exactly():
    ds = generate_dataset(9, 60, WorldSpec())
    for caps in ds.captions:
        assert 1 <= len(caps) <= 3
        for cap in caps:
            words = ds.vocab.decode(cap)
            assert ds.vocab.encode(words) == cap
            assert UNK not in cap


def test_multi_object_captions_use_relations():
    spec = WorldSpec(min_objects=2, max_objects=2)
    ds = generate_dataset(4, 10, spec)
    rel_words = {"left", "right", "above", "below"}
    for caps in ds.captions:
        words = set(ds.vocab.decode(caps[0]))
        assert words & rel_words


def test_observation_shape_and_noise():
    spec = WorldSpec(noise=0.0)
    ds = generate_dataset(2, 10, spec)
    assert ds.observations.shape == (10, spec.obs_dim)
    # noiseless vectors are exact one-hot blocks
    assert set(np.unique(ds.observations)) <= {0.0, 1.0}
    noisy = generate_dataset(2, 10, WorldSpec(noise=0.05))
    assert not np.array_equal(noisy.observations, ds.observations)


def test_splits_disjoint_by_scene_id():
    splits = generate_splits(21, WorldSpec(), 50, 20, 10)
    train, val, test = splits["train"], splits["val"], splits["test"]
    assert len(train) == 50 and len(val) == 20 and len(test) == 10
    train_ids, val_ids, test_ids = ({s.scene_id for s in ds.scenes}
                                    for ds in (train, val, test))
    assert not (train_ids & val_ids)
    assert not (train_ids & test_ids)
    assert not (val_ids & test_ids)


def test_raster_renders_colors_in_place():
    spec = WorldSpec(min_objects=1, max_objects=1, raster=True)
    red_circle = Scene.from_objects(
        [ObjectSpec(shape=0, color=0, size=1, row=1, col=2)], spec.grid)
    img = render_raster(red_circle, spec)
    assert img.shape == (16, 16, 3)
    cell = img[4:8, 8:12]
    assert cell[..., 0].max() == 1.0      # red channel lit inside the glyph
    assert cell[..., 1].max() == 0.0
    outside = img.copy()
    outside[4:8, 8:12] = 0
    assert outside.max() == 0.0           # empty cells stay black


def test_every_shape_and_size_renders_its_own_pixels():
    # one object at a time, in one color and cell, at the default raster
    spec = WorldSpec(min_objects=1, max_objects=1, raster=True)
    images = {render_raster(Scene.from_objects(
        [ObjectSpec(shape, 0, size, 1, 2)], spec.grid), spec).tobytes()
        for shape in range(len(SHAPES)) for size in range(len(SIZES))}
    assert len(images) == len(SHAPES) * len(SIZES)


def test_raster_deterministic():
    spec = WorldSpec(raster=True)
    ds1 = generate_dataset(13, 12, spec)
    ds2 = generate_dataset(13, 12, spec)
    assert ds1.rasters.tobytes() == ds2.rasters.tobytes()
    assert ds1.model_inputs().shape == (12, 16 * 16 * 3)


def _cell_loop(raster, grid):
    # a raster's grid cells one at a time, row-major, each flattened as
    # (row, column, channel): the oracle of a raster world's model inputs
    cell = len(raster) // grid
    return np.concatenate([raster[r * cell:(r + 1) * cell,
                                  c * cell:(c + 1) * cell].ravel()
                           for r in range(grid) for c in range(grid)])


def test_raster_model_inputs_match_cell_loop():
    spec = WorldSpec(raster=True, raster_size=12, grid=3)
    ds = generate_dataset(5, 6, spec)
    assert spec.cells == 9 and WorldSpec().cells == 1
    looped = np.stack([_cell_loop(img, spec.grid) for img in ds.rasters])
    assert ds.model_inputs().shape == looped.shape == (6, spec.input_dim)
    assert ds.model_inputs().tobytes() == looped.tobytes()
    assert ds.rasters.shape == (6, 12, 12, 3)


def test_sample_game_batch_contract():
    ds = generate_dataset(31, 50, WorldSpec())
    rng = np.random.default_rng(0)
    scenes, targets = sample_game_batch(ds, 8, 200, rng)
    assert scenes.shape == (200, 8) and targets.shape == (200,)
    for row, target in zip(scenes, targets):
        assert len(set(row.tolist())) == 8
        assert 0 <= target < 8


def test_sample_game_batch_draws_as_one_round_at_a_time():
    # a block draws exactly the per-round choice-then-integers stream
    ds = generate_dataset(31, 50, WorldSpec())
    scenes, targets = sample_game_batch(ds, 8, 30, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    for row, target in zip(scenes, targets):
        assert row.tolist() == rng.choice(50, size=8, replace=False).tolist()
        assert target == rng.integers(8)


def test_sample_game_batch_k2_exhaustive():
    ds = generate_dataset(31, 2, WorldSpec())
    rng = np.random.default_rng(1)
    scenes, targets = sample_game_batch(ds, 2, 50, rng)
    assert all(set(row.tolist()) == {0, 1} for row in scenes)
    assert set(targets.tolist()) == {0, 1}


def test_sample_game_batch_target_uniform():
    ds = generate_dataset(31, 50, WorldSpec())
    rng = np.random.default_rng(7)
    _, targets = sample_game_batch(ds, 4, 10_000, rng)
    assert abs((targets == 0).mean() - 0.25) < 0.02


def test_sample_game_batch_errors():
    ds = generate_dataset(31, 5, WorldSpec())
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingError):
        sample_game_batch(ds, 6, 1, rng)
    with pytest.raises(SamplingError):
        sample_game_batch(ds, 1, 1, rng)


def test_dataset_file_roundtrip(tmp_path):
    # each split's observation noise is keyed by its split code, so every
    # split has to come back from the file bit for bit
    for spec in (WorldSpec(), WorldSpec(raster=True, min_objects=1,
                                        max_objects=2)):
        splits = generate_splits(17, spec, 25, 10, 5)
        assert sorted(splits) == ["test", "train", "val"]
        for ds in splits.values():
            path = str(tmp_path / "w.lgw")
            save_dataset(ds, path)
            blob = Path(path).read_bytes()
            loaded = load_dataset(path)
            assert loaded == ds and _derived(loaded) == _derived(ds)
            # and saving what was loaded writes the same bytes again
            save_dataset(loaded, path)
            assert Path(path).read_bytes() == blob
    # a Dataset is its four fields: rebuilt from them, the raster train
    # split comes back arrays and all, and a change to any one of the
    # seed, the split or a scene makes another dataset
    train = splits["train"]
    rebuilt = Dataset(train.spec, train.seed, train.split, train.scenes)
    assert rebuilt == train and _derived(rebuilt) == _derived(train)
    assert rebuilt.rasters is not None
    other_scene = [splits["val"].scenes[0]] + train.scenes[1:]
    for seed, split, scenes in ((train.seed + 1, "train", train.scenes),
                                (train.seed, "val", train.scenes),
                                (train.seed, "train", other_scene)):
        assert Dataset(train.spec, seed, split, scenes) != train


@pytest.mark.parametrize("raster", [False, True],
                         ids=["attributes", "raster"])
def test_empty_split_has_no_model_inputs(tmp_path, raster):
    # an LGW1 file may hold no scenes; its split still has inputs of the
    # world's width, none of them
    spec = WorldSpec(raster=raster)
    path = str(tmp_path / "w.lgw")
    save_dataset(Dataset(spec, 3, "val", []), path)
    assert load_dataset(path).model_inputs().shape == (0, spec.input_dim)


def test_world_file_holds_only_header_and_scenes(tmp_path):
    ds = generate_dataset(17, 25, WorldSpec(raster=True))
    path = str(tmp_path / "w.lgw")
    save_dataset(ds, path)
    blob = Path(path).read_bytes()
    assert len(blob) == 29 + sum(9 + 5 * len(s.objects) for s in ds.scenes)
    # observations, rasters and captions are rebuilt on load, not stored
    ds.observations = ds.observations + 1
    ds.rasters = ds.rasters * 0
    ds.captions = [[] for _ in ds.scenes]
    save_dataset(ds, path)
    assert Path(path).read_bytes() == blob


def test_dataset_file_bytes_deterministic(tmp_path):
    ds = generate_dataset(17, 25, WorldSpec())
    p1, p2 = str(tmp_path / "a.lgw"), str(tmp_path / "b.lgw")
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_dataset_truncation_reports_offset(tmp_path):
    # every proper prefix of an attribute and of a raster world is
    # refused as truncated, at a byte inside the prefix
    path = str(tmp_path / "w.lgw")
    for spec in (WorldSpec(), WorldSpec(raster=True)):
        save_dataset(generate_dataset(17, 25, spec), path)
        blob = Path(path).read_bytes()
        for n in range(len(blob)):
            Path(path).write_bytes(blob[:n])
            with pytest.raises(FormatError, match="^truncated file") as err:
                load_dataset(path)
            assert err.value.offset <= n
        Path(path).write_bytes(blob + b"\0")
        with pytest.raises(FormatError) as err:
            load_dataset(path)
        assert str(err.value) == f"1 trailing bytes (at byte {len(blob)})"


@pytest.mark.parametrize("version", [1, 99])
def test_dataset_version_mismatch(tmp_path, version):
    ds = generate_dataset(17, 5, WorldSpec())
    path = str(tmp_path / "w.lgw")
    save_dataset(ds, path)
    blob = bytearray(Path(path).read_bytes())
    blob[4] = version  # version u16 low byte
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(UnsupportedVersionError,
                       match=f"unsupported dataset version {version} "):
        load_dataset(path)



# (byte patched, bytes written there, byte of the field at fault, message)
HEADER_FAULTS = [
    (6, b"\x01", 6, "grid must lie in [2, 255]"),
    (6, b"\xd2", 6, "grid 210 gives 3-object scene ids past LGW1's u64"),
    (7, b"\x00", 7, "object counts must satisfy 1 <= min <= max <= 3"),
    (8, b"\x04", 8, "object counts must satisfy 1 <= min <= max <= 3"),
    (9, b"\x07", 9, "raster flag must be 0 or 1, not 7"),
    # raster flag on, raster_size 6 on a grid of 4
    (9, b"\x01" + struct.pack("<H", 6), 10,
     "raster_size must be a multiple of grid"),
    (12, struct.pack("<f", math.nan), 12,
     "noise must be finite and non-negative"),
    (12, struct.pack("<f", -0.5), 12,
     "noise must be finite and non-negative"),
    (24, b"\x03", 24, "bad split tag"),
]


@pytest.mark.parametrize("at, patch, offset, message", HEADER_FAULTS,
                         ids=["grid", "grid-past-u64-ids", "min-objects",
                              "max-objects", "raster-flag", "raster-size",
                              "noise-nan", "noise-negative", "split"])
def test_bad_header_field_reports_its_own_offset(tmp_path, at, patch, offset,
                                                 message):
    ds = generate_dataset(17, 5, WorldSpec())
    path = str(tmp_path / "w.lgw")
    save_dataset(ds, path)
    blob = bytearray(Path(path).read_bytes())
    blob[at:at + len(patch)] = patch
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert err.value.offset == offset
    assert str(err.value).endswith(f"{message} (at byte {offset})")


# (grid, min objects, max objects, noise, raster size or 0 for none,
# seed, train, val and test scenes): enumerated worlds (capacity up to
# 200,000) and drawn ones, on either side of that switch
ORACLE_WORLDS = [
    (2, 1, 2, 0.0, 0, 0, 200, 50, 20),  # enumerated, 21,840 scenes
    (3, 1, 1, 0.05, 12, 1, 300, 100, 0),  # enumerated, 540
    (3, 1, 2, 0.05, 0, 2, 300, 60, 30),  # enumerated, 130,140
    (4, 1, 1, 0.05, 0, 3, 900, 60, 0),  # enumerated, every one of 960
    (5, 1, 1, 0.0, 20, 4, 400, 50, 0),  # enumerated, 1,500
    (4, 1, 2, 0.0, 0, 5, 300, 60, 0),  # drawn, 432,960
    (4, 1, 3, 0.05, 0, 6, 300, 60, 0),  # drawn, the default world
    (2, 1, 3, 0.05, 0, 7, 300, 60, 20),  # drawn, with many repeats
    (3, 2, 3, 0.0, 12, 8, 100, 20, 0),  # drawn
    (5, 2, 3, 0.05, 0, 9, 200, 40, 0),  # drawn
]


@pytest.mark.parametrize(
    "grid, lo, hi, noise, raster, seed, n_train, n_val, n_test",
    ORACLE_WORLDS, ids=[f"grid{w[0]}-{w[1]}to{w[2]}-noise{w[3]}-raster{w[4]}"
                        for w in ORACLE_WORLDS])
def test_array_world_matches_per_object_oracles(tmp_path, grid, lo, hi, noise,
                                                raster, seed, n_train, n_val,
                                                n_test):
    # the scenes, ids, observations, captions, reference attribute rows
    # and LGW1 bytes each split builds in array passes, against the
    # per-object and per-record oracles
    spec = WorldSpec(grid=grid, min_objects=lo, max_objects=hi, noise=noise,
                     raster=bool(raster), raster_size=raster or 16)
    splits = generate_splits(seed, spec, n_train, n_val, n_test)
    drawn = reference.draw_scenes(seed, n_train + n_val + n_test, spec)
    assert [s for ds in splits.values() for s in ds.scenes] == drawn
    assert len({s.scene_id for s in drawn}) == len(drawn)
    assert [Scene.from_objects(s.objects[::-1], grid) for s in drawn[:50]] \
        == drawn[:50]
    path = str(tmp_path / "w.lgw")
    for split, ds in splits.items():
        assert ds.observations.tobytes() == reference.observation_vectors(
            ds.scenes, spec, reference.observation_rng(seed, split)).tobytes()
        assert ds.captions == [reference.build_captions(s, ds.vocab)
                               for s in ds.scenes]
        assert build_captions(ds.scenes[0], ds.vocab) == ds.captions[0]
        rows = evaluate.references(ds).attributes
        assert [set(row[row >= 0].tolist()) for row in rows] == [
            set(ds.vocab.encode(s.attribute_words())) for s in ds.scenes]
        save_dataset(ds, path)
        assert Path(path).read_bytes() == reference.save_bytes(ds)
        for loaded in (load_dataset(path), reference.load_dataset(path)):
            assert loaded == ds and _derived(loaded) == _derived(ds)


def _record_offsets(ds):
    """Each scene record's first byte in ``ds``'s LGW1 file."""
    return list(itertools.accumulate(
        (9 + 5 * len(s.objects) for s in ds.scenes[:-1]), initial=29))


def _corruptions(blob, offsets, rng):
    """Files made from the LGW1 file ``blob`` whose scene records start
    at ``offsets``: one to three record bytes changed at a time, cuts
    inside the records, a trailing byte, and the first record written
    over the second (the same size in a world of one object count)."""
    for _ in range(300):
        bad = bytearray(blob)
        for at in rng.integers(offsets[0], len(blob), size=rng.integers(1, 4)):
            bad[at] = rng.choice([rng.integers(256), bad[at] ^ 1,
                                  (bad[at] + 1) % 256])
        yield bytes(bad)
    for n in rng.integers(offsets[0], len(blob), size=20):
        yield blob[:n]
    yield blob + b"\0"
    first, second, third = offsets[:3]
    if second - first == third - second:
        yield blob[:second] + blob[first:second] + blob[third:]


@pytest.mark.parametrize("grid, lo, hi", [(4, 1, 3), (2, 1, 3), (3, 2, 2)],
                         ids=["default", "grid2", "two-objects"])
def test_loader_refuses_as_the_per_record_parse(tmp_path, grid, lo, hi):
    # the array reader must refuse each corrupt file with the per-record
    # parse's message and byte, or load the same dataset
    ds = generate_dataset(3, 40, WorldSpec(grid=grid, min_objects=lo,
                                           max_objects=hi))
    path = str(tmp_path / "w.lgw")
    save_dataset(ds, path)
    refusals = set()
    for blob in _corruptions(Path(path).read_bytes(), _record_offsets(ds),
                             np.random.default_rng(grid)):
        Path(path).write_bytes(blob)
        outcomes = []
        for load in (load_dataset, reference.load_dataset):
            try:
                outcomes.append(load(path))
            except FormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if isinstance(outcomes[0], str):
            refusals.add(re.sub(r"\d+|ObjectSpec\(.*\)", "N", outcomes[0]))
    # the files reach most of the refusals: a count out of range, objects
    # in one cell, out of cell order or out of range, an id mismatch, a
    # repeated scene, a truncated file and a trailing byte
    assert len(refusals) >= 7, refusals


def _swap_first_two_objects(blob, at):
    # the scene record at byte ``at`` with its first two objects swapped
    bad = bytearray(blob)
    bad[at + 9:at + 19] = blob[at + 14:at + 19] + blob[at + 9:at + 14]
    return bytes(bad)


def test_objects_out_of_cell_order_are_refused(tmp_path):
    # a scene whose objects are stored out of cell order is refused at
    # its first byte, not sorted on load into a scene that saves to other
    # bytes
    ds = generate_dataset(17, 25, WorldSpec())
    path = str(tmp_path / "w.lgw")
    save_dataset(ds, path)
    i = next(i for i, s in enumerate(ds.scenes) if len(s.objects) > 1)
    at = _record_offsets(ds)[i]
    Path(path).write_bytes(_swap_first_two_objects(Path(path).read_bytes(),
                                                   at))
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert str(err.value) == (f"scene {ds.scenes[i].scene_id}: scene objects "
                              f"must be in cell order (at byte {at})")
    assert err.value.offset == at


def test_scene_id_mismatch_names_the_scenes_first_byte(tmp_path):
    ds = generate_dataset(17, 25, WorldSpec())
    path = str(tmp_path / "w.lgw")
    save_dataset(ds, path)
    i = next(i for i, s in enumerate(ds.scenes) if len(s.objects) > 1)
    at = _record_offsets(ds)[i]
    sid = ds.scenes[i].scene_id + 1
    blob = bytearray(Path(path).read_bytes())
    blob[at:at + 8] = struct.pack("<Q", sid)
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        load_dataset(path)
    assert str(err.value) == f"scene id mismatch for {sid} (at byte {at})"
    assert err.value.offset == at
