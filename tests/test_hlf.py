"""HLF1 round-trips, header layout, sidecar metadata, CSV slices."""

import json
import struct

import numpy as np
import pytest

from hessianlab import (
    DomainError,
    HermitianField,
    ScalarField,
    TorusGrid,
    csv_slice,
    read_field,
    write_field,
)


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
    field = HermitianField(grid, data)
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
    assert struct.unpack_from("<I", raw, 4)[0] == 1
    assert raw[8:16] == b"\x00" * 8
    n, N, kind, reserved = struct.unpack_from("<4I", raw, 16)
    assert (n, N, kind, reserved) == (2, 6, 0, 0)
    payload = np.frombuffer(raw, dtype="<f8", offset=32)
    assert payload.size == 6**4


def test_sidecar_contents(grid, tmp_path):
    path = tmp_path / "f.hlf1"
    write_field(path, ScalarField.constant(grid, 0.0))
    meta = json.loads((tmp_path / "f.hlf1.json").read_text())
    assert meta["format"] == "HLF1"
    assert meta["n"] == 2
    assert meta["points_per_axis"] == 6
    assert meta["period"] == 2.0
    assert meta["kind"] == "scalar"
    assert meta["axis_order"] == ["x1", "y1", "x2", "y2"]


def test_missing_sidecar_needs_period(grid, tmp_path):
    path = tmp_path / "f.hlf1"
    write_field(path, ScalarField.constant(grid, 0.0))
    (tmp_path / "f.hlf1.json").unlink()
    with pytest.raises(DomainError):
        read_field(path)
    back = read_field(path, period=2.0)
    assert back.grid == grid


def test_write_deterministic(grid, tmp_path, rng):
    field = ScalarField(grid, rng.standard_normal(grid.shape))
    write_field(tmp_path / "a.hlf1", field)
    write_field(tmp_path / "b.hlf1", field)
    assert (tmp_path / "a.hlf1").read_bytes() == (tmp_path / "b.hlf1").read_bytes()
    assert (tmp_path / "a.hlf1.json").read_text() == (tmp_path / "b.hlf1.json").read_text()


def test_rejects_garbage(tmp_path):
    bad = tmp_path / "x.hlf1"
    bad.write_bytes(b"not a field file at all, sorry")
    with pytest.raises(DomainError):
        read_field(bad)


@pytest.mark.parametrize("trim", [8, 3])
@pytest.mark.parametrize("kind", ["scalar", "hermitian"])
def test_truncated_payload_names_byte_counts(grid, tmp_path, trim, kind):
    field = (ScalarField.constant(grid, 1.0) if kind == "scalar"
             else HermitianField.identity(grid))
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
             else HermitianField.identity(grid))
    path = tmp_path / "f.hlf1"
    write_field(path, field)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, 32 + 8 * 5, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(DomainError, match="non-finite") as err:
        read_field(path)
    assert "f.hlf1" in str(err.value)


def test_bad_header_kind(grid, tmp_path):
    path = tmp_path / "f.hlf1"
    write_field(path, ScalarField.constant(grid, 1.0))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 24, 7)
    path.write_bytes(bytes(raw))
    with pytest.raises(DomainError, match="kind=7"):
        read_field(path)


@pytest.mark.parametrize("sidecar, message", [
    ("{not json", "unreadable sidecar"),
    (json.dumps({"n": 2, "points_per_axis": 6}), "unreadable sidecar"),
    (json.dumps({"n": 2, "points_per_axis": 8, "period": 2.0}), "disagrees"),
    (json.dumps({"n": 3, "points_per_axis": 6, "period": 2.0}), "disagrees"),
    (json.dumps({"n": 2, "points_per_axis": 6, "period": float("nan")}), "period"),
])
def test_bad_sidecar_names_file(grid, tmp_path, sidecar, message):
    path = tmp_path / "f.hlf1"
    write_field(path, ScalarField.constant(grid, 1.0))
    (tmp_path / "f.hlf1.json").write_text(sidecar)
    with pytest.raises(DomainError, match=message) as err:
        read_field(path)
    assert "f.hlf1" in str(err.value)


def test_csv_slice_2d(grid, tmp_path):
    data = np.zeros(grid.shape)
    data[3, 4, 0, 0] = 1.25
    csv_path = tmp_path / "slice.csv"
    csv_slice(ScalarField(grid, data), csv_path, axes=(0, 1))
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "x1,y1,value"
    assert len(lines) == 1 + 36
    hit = [ln for ln in lines if ln.endswith("1.25")]
    assert len(hit) == 1
    x, y, _ = hit[0].split(",")
    assert float(x) == pytest.approx(3 * grid.spacing)
    assert float(y) == pytest.approx(4 * grid.spacing)


def test_csv_slice_1d(grid, tmp_path):
    field = ScalarField(grid, np.ones(grid.shape))
    csv_path = tmp_path / "line.csv"
    csv_slice(field, csv_path, axes=(2,))
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "x2,value"
    assert len(lines) == 1 + 6
