"""Fuzzing the snapshot loader: a damaged file raises a SnapshotError.

Truncations and single-bit flips of a real snapshot file go through
:meth:`MinedSnapshot.load`. Each must either raise a
:class:`SnapshotError` subclass or load to exactly the original content
(a flip can be a no-op, e.g. the case of a hex digit in a ``\\u``
escape, and cutting the trailing newline leaves valid JSON). No other
exception may escape, so ``python -m repro.serve`` always reaches its
"cannot load snapshot" exit.
"""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.serve import MinedSnapshot, SnapshotError
from repro.serve.__main__ import main

FUZZ = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Bit offsets are drawn below this bound and wrapped onto the file.
_BITS = 1 << 40


@pytest.fixture(scope="module")
def original(snapshot_path):
    return Path(snapshot_path).read_bytes()


@pytest.fixture(scope="module")
def damaged_path(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged") / "snapshot.json"


def assert_loads_or_refuses(path, data, original):
    path.write_bytes(data)
    try:
        loaded = MinedSnapshot.load(str(path))
    except SnapshotError:
        return
    assert loaded.to_json() + "\n" == original.decode("utf-8")


@FUZZ
@given(cut=st.integers(min_value=0, max_value=_BITS))
@example(cut=0)
@example(cut=1)
def test_truncated_file_raises_only_snapshot_errors(
    damaged_path, original, cut
):
    assert_loads_or_refuses(damaged_path, original[: cut % len(original)], original)


@FUZZ
@given(bit=st.integers(min_value=0, max_value=_BITS))
@example(bit=7)  # the first byte's high bit: invalid UTF-8
@example(bit=8 * 10 + 1)
def test_bit_flipped_file_raises_only_snapshot_errors(
    damaged_path, original, bit
):
    bit %= 8 * len(original)
    data = bytearray(original)
    data[bit // 8] ^= 1 << (bit % 8)
    assert_loads_or_refuses(damaged_path, bytes(data), original)


def test_invalid_utf8_is_a_snapshot_error(tmp_path):
    path = tmp_path / "snapshot.json"
    path.write_bytes(b"\xe9")
    with pytest.raises(SnapshotError, match="not valid UTF-8"):
        MinedSnapshot.load(str(path))


def test_cli_refuses_an_undecodable_snapshot(tmp_path, capsys):
    path = tmp_path / "snapshot.json"
    path.write_bytes(b"\xe9")
    assert main(["--snapshot", str(path), "stats"]) == 2
    assert "cannot load snapshot" in capsys.readouterr().err
