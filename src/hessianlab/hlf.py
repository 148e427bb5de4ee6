"""HLF1 field files: binary payload plus JSON sidecar, and CSV slice export.

Layout of an HLF1 file:

* 16 header bytes: the magic ``b"HLF1"``, a little-endian u32 format
  version (currently 1), and 8 reserved zero bytes;
* a little-endian u32 quadruple ``(n, N, kind, reserved)`` where ``kind``
  is 0 for scalar and 1 for Hermitian-matrix fields;
* the float64 payload in row-major axis order (x_1, y_1, ..., x_n, y_n).
  Hermitian fields append two trailing axes (n, n) followed by an axis of
  length 2 holding the real and imaginary parts.

The grid period does not fit the integer header, so it travels in the JSON
sidecar ``<path>.json`` together with the rest of the grid metadata.  All
writes are deterministic: identical fields produce bit-identical files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import DomainError
from .grid import HermitianField, ScalarField, TorusGrid

MAGIC = b"HLF1"
VERSION = 1
KIND_SCALAR = 0
KIND_HERMITIAN = 1
MAX_HEADER_DIM = 16


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def _axis_order(n: int) -> list:
    out = []
    for i in range(1, n + 1):
        out += [f"x{i}", f"y{i}"]
    return out


def _write(path, grid: TorusGrid, kind: int, payload: np.ndarray) -> None:
    header = MAGIC + struct.pack("<I", VERSION) + b"\x00" * 8
    quad = struct.pack("<4I", grid.n, grid.points_per_axis, kind, 0)
    body = np.ascontiguousarray(payload, dtype="<f8").tobytes()
    Path(path).write_bytes(header + quad + body)
    sidecar = {
        "format": "HLF1",
        "version": VERSION,
        "n": grid.n,
        "points_per_axis": grid.points_per_axis,
        "period": grid.period,
        "kind": "hermitian" if kind == KIND_HERMITIAN else "scalar",
        "dtype": "float64",
        "axis_order": _axis_order(grid.n),
    }
    _sidecar_path(path).write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")


def _read_raw(path):
    raw = Path(path).read_bytes()
    if len(raw) < 32 or raw[:4] != MAGIC:
        raise DomainError(f"{path}: not an HLF1 file")
    version = struct.unpack_from("<I", raw, 4)[0]
    if version != VERSION:
        raise DomainError(f"{path}: unsupported HLF1 version {version}")
    n, N, kind, _ = struct.unpack_from("<4I", raw, 16)
    # n is bounded before N^(2n) is formed, so a corrupt header stays cheap
    if kind not in (KIND_SCALAR, KIND_HERMITIAN) or not 1 <= n <= MAX_HEADER_DIM:
        raise DomainError(f"{path}: bad HLF1 header (n={n}, N={N}, kind={kind})")
    expected = 8 * N ** (2 * n) * (1 if kind == KIND_SCALAR else 2 * n * n)
    if len(raw) - 32 != expected:
        raise DomainError(
            f"{path}: payload holds {len(raw) - 32} bytes, header "
            f"(n={n}, N={N}, kind={kind}) needs {expected}"
        )
    payload = np.frombuffer(raw, dtype="<f8", offset=32)
    if not np.all(np.isfinite(payload)):
        raise DomainError(f"{path}: payload holds non-finite values")
    return n, N, kind, payload


def _grid_from_sidecar(path, n: int, N: int, period: float | None) -> TorusGrid:
    sidecar = _sidecar_path(path)
    if period is None:
        if not sidecar.exists():
            raise DomainError(f"{path}: missing sidecar and no period given")
        try:
            meta = json.loads(sidecar.read_text())
            period = float(meta["period"])
            header = (meta["n"], meta["points_per_axis"])
        except (ValueError, KeyError, TypeError) as err:
            raise DomainError(f"{sidecar}: unreadable sidecar ({err!r})") from err
        if header != (n, N):
            raise DomainError(
                f"{sidecar}: (n, points_per_axis) = {header} disagrees with "
                f"the binary header {(n, N)}"
            )
    try:
        return TorusGrid(n=n, points_per_axis=N, period=period)
    except DomainError as err:
        raise DomainError(f"{path}: {err}") from err


def write_field(path, field) -> None:
    """Write a ScalarField or HermitianField plus its JSON sidecar."""
    if isinstance(field, ScalarField):
        _write(path, field.grid, KIND_SCALAR, field.data)
    elif isinstance(field, HermitianField):
        stacked = np.stack([field.data.real, field.data.imag], axis=-1)
        _write(path, field.grid, KIND_HERMITIAN, stacked)
    else:
        raise DomainError(f"cannot serialize {type(field).__name__}")


def read_field(path, period: float | None = None):
    """Read an HLF1 file back into the matching field type."""
    n, N, kind, payload = _read_raw(path)
    grid = _grid_from_sidecar(path, n, N, period)
    if kind == KIND_SCALAR:
        return ScalarField(grid, payload.reshape(grid.shape).copy())
    shaped = payload.reshape(grid.shape + (n, n, 2))
    return HermitianField(grid, shaped[..., 0] + 1j * shaped[..., 1])


def csv_slice(field: ScalarField, path, axes=(0, 1), index=None) -> None:
    """Export a 1-D or 2-D slice of a scalar field as CSV.

    ``axes`` names the free axes; every other axis is pinned at ``index``
    (default 0).  Columns are the free-axis coordinates followed by the
    value.
    """
    if len(axes) not in (1, 2):
        raise DomainError("csv_slice supports 1-D and 2-D slices only")
    grid = field.grid
    names = _axis_order(grid.n)
    sel = [index or 0] * (2 * grid.n)
    for a in axes:
        sel[a] = slice(None)
    block = field.data[tuple(sel)]
    coords = np.arange(grid.points_per_axis) * grid.spacing
    lines = [",".join(names[a] for a in axes) + ",value"]
    if len(axes) == 1:
        for i, v in enumerate(block):
            lines.append(f"{float(coords[i])!r},{float(v)!r}")
    else:
        for i in range(block.shape[0]):
            for j in range(block.shape[1]):
                lines.append(
                    f"{float(coords[i])!r},{float(coords[j])!r},{float(block[i, j])!r}"
                )
    Path(path).write_text("\n".join(lines) + "\n")
