from pathlib import Path

import numpy as np
import pytest

from lewisgame.params import (FormatError, ParameterSet,
                              UnsupportedVersionError, load_checkpoint,
                              save_checkpoint)
from lewisgame.tensor import Tensor


def _sample_set():
    rng = np.random.default_rng(0)
    ps = ParameterSet()
    ps.add("z.last", Tensor(rng.normal(0, 1, (3, 4)).astype(np.float32), True))
    ps.add("a.first", Tensor(rng.normal(0, 1, 7).astype(np.float32), True))
    ps.add("m.mid", Tensor(rng.normal(0, 1, (2, 2, 2)).astype(np.float32),
                           True))
    return ps


def test_iteration_is_lexicographic():
    ps = _sample_set()
    assert ps.names() == ["a.first", "m.mid", "z.last"]
    assert [n for n, _ in ps.items()] == ps.names()


def test_duplicate_name_rejected():
    ps = ParameterSet()
    ps.add("w", Tensor([1.0]))
    with pytest.raises(ValueError, match="duplicate"):
        ps.add("w", Tensor([2.0]))


def test_equality_is_bitwise():
    a = _sample_set()
    b = a.copy()
    assert a.equal(b)
    b["a.first"].data[0] = np.nextafter(b["a.first"].data[0],
                                         np.float32(np.inf), dtype=np.float32)
    assert not a.equal(b)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    ps = _sample_set()
    path = str(tmp_path / "state.lgc")
    save_checkpoint(ps, path)
    loaded = load_checkpoint(path)
    assert loaded.equal(ps)
    for name, t in ps.items():
        assert loaded[name].shape == t.shape
        assert loaded[name].data.tobytes() == t.data.tobytes()


def test_checkpoint_file_bytes_deterministic(tmp_path):
    ps = _sample_set()
    p1, p2 = str(tmp_path / "a.lgc"), str(tmp_path / "b.lgc")
    save_checkpoint(ps, p1)
    save_checkpoint(ps, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_truncated_checkpoint_reports_offset(tmp_path):
    # every proper prefix is refused as truncated, at a byte inside it
    ps = _sample_set()
    path = str(tmp_path / "state.lgc")
    save_checkpoint(ps, path)
    blob = Path(path).read_bytes()
    for n in range(len(blob)):
        Path(path).write_bytes(blob[:n])
        with pytest.raises(FormatError, match="^truncated file") as err:
            load_checkpoint(path)
        assert err.value.offset <= n
    Path(path).write_bytes(blob + b"\0")
    with pytest.raises(FormatError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"1 trailing bytes (at byte {len(blob)})"


def test_bad_magic_is_format_error(tmp_path):
    path = str(tmp_path / "junk.lgc")
    Path(path).write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_version_mismatch_distinct_error(tmp_path):
    path = str(tmp_path / "future.lgc")
    Path(path).write_bytes(b"LGC9" + b"\x00" * 16)
    with pytest.raises(UnsupportedVersionError):
        load_checkpoint(path)


def test_subset_and_merged_roundtrip():
    ps = _sample_set()
    packed = ParameterSet().merged("agent.", ps)
    assert packed.names() == ["agent." + n for n in ps.names()]
    sub = packed.subset("agent.")
    assert sub.equal(ps)


def test_atomic_write_leaves_no_tmp(tmp_path):
    ps = _sample_set()
    path = str(tmp_path / "state.lgc")
    save_checkpoint(ps, path)
    assert not (tmp_path / "state.lgc.tmp").exists()
