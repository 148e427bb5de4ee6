"""HLF1 round-trips, header layout and period, version check, fuzzed input."""

import contextlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hessianlab import (
    DomainError,
    HermitianField,
    ScalarField,
    TorusGrid,
    read_field,
    write_field,
)
from hessianlab.cli import main


@pytest.fixture
def grid():
    return TorusGrid(n=2, points_per_axis=6, period=2.0)


def test_scalar_roundtrip(grid, tmp_path, rng):
    field = ScalarField(grid, rng.standard_normal(grid.shape))
    path = tmp_path / "phi.hlf1"
    write_field(path, field)
    back = read_field(path)
    assert isinstance(back, ScalarField)
    assert back.grid == grid
    assert np.array_equal(back.data, field.data)


def test_hermitian_roundtrip(grid, tmp_path, rng):
    data = rng.standard_normal(grid.shape + (2, 2)) + 1j * rng.standard_normal(
        grid.shape + (2, 2)
    )
    field = HermitianField.from_matrices(grid, data)
    path = tmp_path / "chi.hlf1"
    write_field(path, field)
    back = read_field(path)
    assert isinstance(back, HermitianField)
    assert np.array_equal(back.data, field.data)


def test_header_layout(grid, tmp_path):
    path = tmp_path / "f.hlf1"
    write_field(path, ScalarField.constant(grid, 1.0))
    raw = path.read_bytes()
    assert raw[:4] == b"HLF1"
    assert struct.unpack_from("<I", raw, 4)[0] == 2
    assert struct.unpack_from("<d", raw, 8)[0] == 2.0
    n, N, kind, reserved = struct.unpack_from("<4I", raw, 16)
    assert (n, N, kind, reserved) == (2, 6, 0, 0)
    payload = np.frombuffer(raw, dtype="<f8", offset=32)
    assert payload.size == 6**4


def test_sidecar_contents(grid, tmp_path):
    # what version 1 kept in a JSON sidecar now lives in the one file
    path = tmp_path / "f.hlf1"
    field = ScalarField(grid, np.arange(6**4, dtype=float).reshape(grid.shape))
    write_field(path, field)
    assert [p.name for p in tmp_path.iterdir()] == ["f.hlf1"]
    raw = path.read_bytes()
    assert raw[:4] == b"HLF1"
    period, n, N, kind, _ = struct.unpack_from("<d4I", raw, 8)
    assert (period, n, N, kind) == (2.0, 2, 6, 0)
    # axis order x1, y1, x2, y2: the payload is the row-major flattening
    payload = np.frombuffer(raw, dtype="<f8", offset=32)
    assert np.array_equal(payload, np.arange(6**4, dtype=float))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["scalar", "hermitian"])
def test_roundtrip_keeps_period(tmp_path, rng, n, kind):
    grid = TorusGrid(n=n, points_per_axis=4, period=1.3)
    if kind == "scalar":
        field = ScalarField(grid, rng.standard_normal(grid.shape))
    else:
        shape = grid.shape + (n, n)
        field = HermitianField.from_matrices(grid, rng.standard_normal(shape)
                                             + 1j * rng.standard_normal(shape))
    path = tmp_path / "f.hlf1"
    write_field(path, field)
    back = read_field(path)
    assert type(back) is type(field)
    assert back.grid == grid
    assert np.array_equal(back.data, field.data)
    write_field(tmp_path / "g.hlf1", back)
    assert (tmp_path / "g.hlf1").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("period", [0.0, -1.0, float("nan"), float("inf"), -float("inf")])
def test_bad_header_period_names_file(grid, tmp_path, period):
    path = tmp_path / "f.hlf1"
    write_field(path, ScalarField.constant(grid, 1.0))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, 8, period)
    path.write_bytes(bytes(raw))
    with pytest.raises(DomainError, match="period") as err:
        read_field(path)
    assert "f.hlf1" in str(err.value)


def test_version_1_rejected(grid, tmp_path, capsys):
    # the version-1 layout: reserved zero bytes where the period now sits
    path = tmp_path / "f.hlf1"
    write_field(path, HermitianField.constant(grid, np.eye(grid.n)))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, 1)
    raw[8:16] = b"\x00" * 8
    path.write_bytes(bytes(raw))
    with pytest.raises(DomainError, match="unsupported HLF1 version 1") as err:
        read_field(path)
    assert "f.hlf1" in str(err.value)
    assert main(["conecheck", "--field", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_write_deterministic(grid, tmp_path, rng):
    field = ScalarField(grid, rng.standard_normal(grid.shape))
    write_field(tmp_path / "a.hlf1", field)
    write_field(tmp_path / "b.hlf1", field)
    assert (tmp_path / "a.hlf1").read_bytes() == (tmp_path / "b.hlf1").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.hlf1", "b.hlf1"]


def test_rejects_garbage(tmp_path):
    bad = tmp_path / "x.hlf1"
    bad.write_bytes(b"not a field file at all, sorry")
    with pytest.raises(DomainError):
        read_field(bad)


@pytest.mark.parametrize("trim", [8, 3])
@pytest.mark.parametrize("kind", ["scalar", "hermitian"])
def test_truncated_payload_names_byte_counts(grid, tmp_path, trim, kind):
    field = (ScalarField.constant(grid, 1.0) if kind == "scalar"
             else HermitianField.constant(grid, np.eye(grid.n)))
    path = tmp_path / "f.hlf1"
    write_field(path, field)
    raw = path.read_bytes()
    path.write_bytes(raw[:-trim])
    actual, expected = len(raw) - 32 - trim, len(raw) - 32
    with pytest.raises(DomainError, match=f"{actual} bytes.*needs {expected}"):
        read_field(path)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("kind", ["scalar", "hermitian"])
def test_non_finite_payload_names_file(grid, tmp_path, kind, value):
    field = (ScalarField.constant(grid, 1.0) if kind == "scalar"
             else HermitianField.constant(grid, np.eye(grid.n)))
    path = tmp_path / "f.hlf1"
    write_field(path, field)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, 32 + 8 * 5, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(DomainError, match="non-finite") as err:
        read_field(path)
    assert "f.hlf1" in str(err.value)


def _write_patched(path, grid, point, entries):
    """A Hermitian HLF1 file with entries ``(i, j, part) -> value`` set at one point."""
    write_field(path, HermitianField.constant(grid, np.diag([0.4, 0.0])))
    raw = bytearray(path.read_bytes())
    flat = int(np.ravel_multi_index(point, grid.shape))
    for (i, j, part), value in entries.items():
        struct.pack_into("<d", raw, 32 + 8 * (8 * flat + 2 * (2 * i + j) + part), value)
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("entries", [
    {(0, 1, 0): 5.0, (1, 0, 0): 0.0, (0, 0, 1): 3.0},  # read back once as X_01 = 2.5
    {(0, 1, 0): 5.0},  # X_01 != conj(X_10) in the real part
    {(1, 0, 1): 0.5},  # and in the imaginary part
])
def test_non_hermitian_payload_names_file_and_point(grid, tmp_path, capsys, entries):
    # the reader rejects such a payload instead of symmetrizing it
    path, point = tmp_path / "chi.hlf1", (1, 2, 3, 4)
    _write_patched(path, grid, point, entries)
    with pytest.raises(DomainError, match="not Hermitian") as err:
        read_field(path)
    assert "chi.hlf1" in str(err.value) and str(point) in str(err.value)
    assert main(["conecheck", "--field", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "chi.hlf1" in err


def test_signed_zero_imaginary_diagonal_is_hermitian(grid, tmp_path):
    path = tmp_path / "chi.hlf1"
    _write_patched(path, grid, (1, 2, 3, 4), {(1, 1, 1): -0.0, (0, 1, 1): -0.0})
    assert isinstance(read_field(path), HermitianField)


def test_subnormal_hermitian_entries_read_back_exactly(grid, tmp_path):
    # a Hermitian payload is taken as it is: halving 3 * 2^-1074 to symmetrize
    # it once read back as 4 * 2^-1074
    path, again = tmp_path / "chi.hlf1", tmp_path / "again.hlf1"
    tiny = 3 * 5e-324
    _write_patched(path, grid, (0, 1, 2, 3), {(0, 1, 0): tiny, (1, 0, 0): tiny,
                                              (0, 1, 1): -tiny, (1, 0, 1): tiny})
    write_field(again, read_field(path))
    assert again.read_bytes() == path.read_bytes()


def test_bad_header_kind(grid, tmp_path):
    path = tmp_path / "f.hlf1"
    write_field(path, ScalarField.constant(grid, 1.0))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 24, 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(DomainError, match="kind=7"):
        read_field(path)


# ---------------------------------------------------------------------------
# fuzzing the HLF1 input route: every mutated file ends in exit 0, or in
# exit 1 with a named "config error:", never in a traceback

# byte offset, format and candidate values of each mutated header field
HEADER_FIELDS = {
    "version": (4, "<I", [0, 1, 3, 2**32 - 1]),
    "period": (8, "<d", [0.0, -1.0, float("nan"), float("inf"), 1e308, 5e-324]),
    "n": (16, "<I", [0, 1, 2, 3, 17, 2**32 - 1]),
    "N": (20, "<I", [0, 1, 3, 4, 2**31]),
    "kind": (24, "<I", [0, 1, 2]),
}


@st.composite
def mutated_hlf1(draw):
    n = draw(st.sampled_from([1, 2]))
    grid = TorusGrid(n=n, points_per_axis=draw(st.sampled_from([2, 4])), period=1.3)
    values = draw(st.lists(st.floats(-1.79e308, 1.79e308), min_size=1, max_size=3))
    # a diagonal mask gives the constant margins of scaled identity fields
    mask = draw(st.sampled_from([np.eye(n), np.ones((n, n))]))
    data = np.resize(np.array(values), grid.shape + (n, n)) * mask
    hermitian = draw(st.booleans())
    field = (HermitianField.from_matrices(grid, data) if hermitian
             else ScalarField(grid, data[..., 0, 0]))
    # at most two header fields change, so many files stay readable
    names = draw(st.sets(st.sampled_from(sorted(HEADER_FIELDS)), max_size=2))
    mutations = {name: draw(st.sampled_from(HEADER_FIELDS[name][2])) for name in names}
    trim = draw(st.one_of(st.just(0), st.integers(1, 40)))
    return field, mutations, trim, draw(st.sampled_from([1, 2]))


def _write_mutated(path, field, mutations, trim):
    write_field(path, field)
    raw = bytearray(path.read_bytes())
    for name, value in mutations.items():
        offset, fmt, _ = HEADER_FIELDS[name]
        struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw[:len(raw) - trim]))


@settings(max_examples=150, deadline=None)
@given(mutated_hlf1())
def test_mutated_files_end_in_named_errors(tmp_path_factory, example):
    field, mutations, trim, m = example
    path = tmp_path_factory.mktemp("fuzz") / "f.hlf1"
    _write_mutated(path, field, mutations, trim)
    try:
        read_field(path)
    except DomainError as err:
        assert "f.hlf1" in str(err)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["conecheck", "--field", str(path), "--m", str(m)])
    assert code in (0, 1)
    assert code == 0 or err.getvalue().startswith("config error:")


@pytest.mark.parametrize("diagonal, code", [(1e308, 1), (-1e308, 1), (1e200, 0)])
def test_conecheck_near_float_limit(tmp_path, capsys, diagonal, code):
    # S_1 = 2e308 overflows: a named error; S_1 = 2e200 is finite and every
    # margin equals 1e200, a range too narrow for ten bins, so one bin prints
    path = tmp_path / "x.hlf1"
    write_field(path, HermitianField.constant(TorusGrid(n=2, points_per_axis=4),
                                           diagonal * np.eye(2)))
    assert main(["conecheck", "--field", str(path), "--m", "2"]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert "worst_margin: 1e+200" in out and "): 256" in out
    else:
        assert err.startswith("config error:") and "x.hlf1" in err and "overflow" in err
