"""The pinned run against its checked-in hashes,
``tests/data/pinned_hashes.txt``."""

import pytest

import pinned_run


def test_pinned_file_holds_a_header_and_nine_lines():
    header, hashes = pinned_run.read_pinned()
    assert header.keys() == pinned_run.environment().keys()
    assert len(hashes) == 9
    assert all(len(value) == 64 for value in hashes.values())


def test_differences_name_each_moved_line():
    want = {"a": "1", "b": "2", "c": "3"}
    got = {"a": "1", "b": "5", "d": "4"}
    assert pinned_run.differences(want, got) == [
        "b: 2 -> 5", "c: 3 -> None", "d: None -> 4"]
    assert pinned_run.differences(want, dict(want)) == []


@pytest.mark.slow
def test_pinned_run_matches_the_checked_in_hashes(capsys):
    # float32 round-off may differ under another numpy or BLAS build, so
    # the comparison holds only in the environment the file was taken in
    header, _ = pinned_run.read_pinned()
    changed = pinned_run.differences(header, pinned_run.environment())
    if changed:
        pytest.skip("environment differs from the pinned file's: "
                    + "; ".join(changed))
    status = pinned_run.main(["--check"])
    assert status == 0, capsys.readouterr().out
