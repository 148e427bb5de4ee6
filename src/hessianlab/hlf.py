"""HLF1 field files: one self-describing binary file per field.

Layout of an HLF1 file, all little-endian:

* the magic ``b"HLF1"`` and a u32 format version (currently 2);
* the grid period as a float64;
* a u32 quadruple ``(n, N, kind, reserved)`` where ``kind`` is 0 for
  scalar and 1 for Hermitian-matrix fields;
* the float64 payload in row-major axis order (x_1, y_1, ..., x_n, y_n).
  Hermitian fields append two trailing axes (n, n) followed by an axis of
  length 2 holding the real and imaginary parts of the full matrices.

A version-1 file (period kept in a separate JSON file) is rejected; it is
regenerated by re-running the config that wrote it.  All writes are
deterministic: identical fields produce bit-identical files.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DomainError
from .grid import HermitianField, ScalarField, TorusGrid
from .symfunc import hermitian_to_planes, planes_to_hermitian

MAGIC = b"HLF1"
VERSION = 2
KIND_SCALAR = 0
KIND_HERMITIAN = 1
MAX_HEADER_DIM = 16


def write_field(path, field) -> None:
    """Write a ScalarField or HermitianField as one HLF1 file."""
    if isinstance(field, ScalarField):
        kind, payload = KIND_SCALAR, field.data
    elif isinstance(field, HermitianField):
        # the float view of complex matrices interleaves real and imaginary parts
        kind, payload = KIND_HERMITIAN, planes_to_hermitian(field.data).view(float)
    else:
        raise DomainError(f"cannot serialize {type(field).__name__}")
    grid = field.grid
    header = MAGIC + struct.pack("<Id4I", VERSION, grid.period, grid.n,
                                 grid.points_per_axis, kind, 0)
    Path(path).write_bytes(header + np.ascontiguousarray(payload, dtype="<f8").tobytes())


def read_field(path):
    """Read an HLF1 file back into the matching field type."""
    raw = Path(path).read_bytes()
    if len(raw) < 32 or raw[:4] != MAGIC:
        raise DomainError(f"{path}: not an HLF1 file")
    version = struct.unpack_from("<I", raw, 4)[0]
    if version != VERSION:
        raise DomainError(f"{path}: unsupported HLF1 version {version}")
    period, n, N, kind, _ = struct.unpack_from("<d4I", raw, 8)
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
    try:
        grid = TorusGrid(n=n, points_per_axis=N, period=period)
    except DomainError as err:
        raise DomainError(f"{path}: {err}") from err
    if kind == KIND_SCALAR:
        return ScalarField(grid, payload.reshape(grid.shape).copy())
    shaped = payload.reshape(grid.shape + (n, n, 2))
    a = shaped[..., 0] + 1j * shaped[..., 1]
    # exact, as write_field writes exactly Hermitian matrices: no arithmetic to
    # overflow, and the planes are then read off a with no symmetrizing to round
    bad = np.any(a != np.conj(np.swapaxes(a, -1, -2)), axis=(-2, -1))
    if bad.any():
        point = tuple(int(k) for k in np.argwhere(bad)[0])
        raise DomainError(f"{path}: the matrix at grid point {point} is not Hermitian")
    return HermitianField(grid, hermitian_to_planes(a))
