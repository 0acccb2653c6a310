"""Volume file format: raw little-endian payload plus a JSON sidecar.

A volume at ``path`` consists of two files:

* ``path`` - the raw voxel payload, little-endian, linearized x-fastest
  (index = ix + nx * (iy + ny * iz)),
* ``path.json`` - a JSON sidecar with the keys ``dims`` (three ints),
  ``spacing_um`` (a number in ``SPACING_RANGE_UM``, 1e-20 to 1e20),
  ``depth`` (int or the string "continuous"), ``dtype`` ("u8", "u16" or
  "f32") and ``order`` (always "x-fastest").

Integer payloads map linearly onto [0, 1] by value / (2^bits - 1), bit-exact
under store/load round trips; f32 payloads hold single-precision values.  A
depth-p payload must hold colors of the depth-p set or, in f32, their float32
images, which load as the colors' indices; others are format errors.
"""

from __future__ import annotations

import json
import math
import os
import stat
from pathlib import Path

import numpy as np

from .errors import VolumeFormatError
from .voxelgrid import ValueCheck, VoxelGrid, check_spacing, color_steps

__all__ = ["load_volume", "store_volume"]

_DTYPES = {
    "u8": np.dtype("<u1"),
    "u16": np.dtype("<u2"),
    "f32": np.dtype("<f4"),
}
_SIDECAR_KEYS = {"dims", "spacing_um", "depth", "dtype", "order"}
_TOPS = {"u8": 255, "u16": 65535}  # integer payloads hold rint(value * top)
# store and load stream the payload in z-slabs of _SLAB layers through one buffer;
# a load's indices go into the grid's C array by one transposed copy a slab, other
# values in blocks of 8 y-rows, each cast in its source's memory order first: numpy
# buffers a cast across orders, 2-3x slower at 256^3
_SLAB = 64


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def _regular_size(path) -> int:
    """Size of ``path`` in bytes; a FIFO, a device or a directory is refused unread."""
    st = os.stat(path)
    if not stat.S_ISREG(st.st_mode):
        raise VolumeFormatError(f"{path} is not a regular file")
    return st.st_size


def store_volume(grid: VoxelGrid, path, dtype: str | None = None) -> None:
    """Write a grid to ``path`` (payload) and ``path.json`` (sidecar).

    ``dtype`` defaults to "u8" for binary grids and "f32" otherwise.  Integer
    dtypes are refused unless every gray value is exactly representable, so
    that load(store(grid)) never silently loses information.  A depth-p grid's
    values are read as k/m of its index block by block, no grid of them.
    """
    if dtype is None:
        dtype = "u8" if grid.depth == 1 else "f32"
    if dtype not in _DTYPES:
        raise VolumeFormatError(f"unknown dtype {dtype!r}, expected one of {sorted(_DTYPES)}")

    top, m, k = _TOPS.get(dtype), grid.depth and color_steps(grid.depth), grid.index
    read = (lambda s: k[s] / m) if m else grid.values.__getitem__  # a block's values
    # every x-layer is checked before the file is opened
    layers = map(read, range(grid.dims[0]))
    if top is not None and not all(np.array_equal(np.rint(v * top) / top, v) for v in layers):
        raise VolumeFormatError(f"gray values are not exactly representable as {dtype}; use f32")

    sidecar = {
        "dims": list(grid.dims),
        "spacing_um": grid.spacing,
        "depth": "continuous" if grid.depth is None else grid.depth,
        "dtype": dtype,
        "order": "x-fastest",
    }
    # a depth-p block is new, k/m, and scaled in place; a continuous one is a view
    scale = lambda s: np.rint(r := np.multiply(s, top, out=s if m else None), out=r)
    cast = lambda s: (s if top is None else scale(s)).astype(_DTYPES[dtype])
    nx, ny, nz = grid.dims
    buf = np.empty((min(_SLAB, nz), ny, nx), _DTYPES[dtype])
    with open(path, "wb") as fh:
        for z0 in range(0, nz, _SLAB):
            slab = buf[: nz - z0]
            for y0 in range(0, ny, 8):
                slab.T[:, y0 : y0 + 8] = cast(read(np.s_[:, y0 : y0 + 8, z0 : z0 + _SLAB]))
            fh.write(slab)
    _sidecar_path(path).write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def load_volume(path) -> VoxelGrid:
    """Read a grid from ``path`` / ``path.json``; inverse of store_volume.

    A load peaks at the grid, one payload z-slab and a slab of indices or a block.
    """
    sidecar_file = _sidecar_path(path)
    try:
        _regular_size(sidecar_file)
        data = sidecar_file.read_bytes()
    except OSError as exc:
        raise VolumeFormatError(f"cannot read sidecar {sidecar_file}: {exc}") from exc
    try:
        meta = json.loads(data.decode())  # JSON text is UTF-8 (RFC 8259)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep, int too long
        why = exc
        if isinstance(exc, json.JSONDecodeError):  # pos counts characters, not bytes
            why = f"at byte {len(exc.doc[: exc.pos].encode())}: {exc.msg}"
        raise VolumeFormatError(f"malformed sidecar {sidecar_file}: {why}") from exc

    if not isinstance(meta, dict):
        raise VolumeFormatError(f"sidecar {sidecar_file} must hold a JSON object")
    missing = _SIDECAR_KEYS - meta.keys()
    if missing:
        raise VolumeFormatError(f"sidecar is missing keys {sorted(missing)}")
    extra = meta.keys() - _SIDECAR_KEYS
    if extra:
        raise VolumeFormatError(f"sidecar has unknown keys {sorted(extra)}")
    if meta["order"] != "x-fastest":
        raise VolumeFormatError(f"unsupported order {meta['order']!r} (key 'order')")
    if not isinstance(meta["dtype"], str) or meta["dtype"] not in _DTYPES:
        raise VolumeFormatError(f"unknown dtype {meta['dtype']!r} (key 'dtype')")
    dims = meta["dims"]
    if (
        not isinstance(dims, list)
        or len(dims) != 3
        or not all(isinstance(n, int) and n >= 2 for n in dims)
    ):
        raise VolumeFormatError(f"invalid dims {dims!r} (key 'dims')")
    depth = meta["depth"]
    if depth == "continuous":
        depth = None
    # bool is a subclass of int, so JSON true would pass as depth 1
    elif not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        raise VolumeFormatError(f"invalid depth {depth!r} (key 'depth')")
    spacing = meta["spacing_um"]
    try:
        # JSON true is no spacing, as for depth; a string, list or None is a
        # TypeError, ints compare exactly and NaN never
        check_spacing(None if isinstance(spacing, bool) else spacing)
    except (TypeError, ValueError) as exc:
        raise VolumeFormatError(f"invalid spacing {spacing!r} (key 'spacing_um')") from exc

    np_dtype = _DTYPES[meta["dtype"]]
    top = _TOPS.get(meta["dtype"])
    cast = (lambda s: s.astype(np.float64)) if top is None else lambda s: s / top
    # exact integer product: an int64 one wraps to 0 for dims of 2^40
    expected = math.prod(dims) * np_dtype.itemsize
    # sized before it is opened: a FIFO, a device or an oversized file is refused unread
    try:
        size = _regular_size(path)
        if size == expected:
            nx, ny, nz = dims
            check, size = ValueCheck(depth), 0
            out = np.empty(dims, np.float64 if depth is None else np.min_scalar_type(check.m))
            buf = np.empty((min(_SLAB, nz), ny, nx), np_dtype)
            with open(path, "rb") as fh:  # a file changed since the check reads short or long
                for z0 in range(0, nz, _SLAB):
                    slab = buf[: nz - z0]
                    size += (got := fh.readinto(slab))
                    if got < slab.nbytes:
                        break
                    if depth is None:  # cast in blocks of 8 y-rows; integer codes lie in [0, 1]
                        if top is None:
                            check(slab)
                        for y0 in range(0, ny, 8):
                            out[:, y0 : y0 + 8, z0 : z0 + _SLAB] = cast(slab.T[:, y0 : y0 + 8])
                    else:  # each z-layer's indices, then one transposed copy into the grid
                        k = np.empty(slab.shape, out.dtype)
                        for v, layer in zip(slab, k):
                            check(v if top is None else v / top, layer)
                        out[:, :, z0 : z0 + _SLAB] = k.T
                else:
                    size += len(fh.read(1))
        if size != expected:
            raise VolumeFormatError(
                f"payload {path} has {size} bytes, expected {expected} "
                f"({dims[0]}x{dims[1]}x{dims[2]} of {meta['dtype']})"
            )
        check.raise_()
    except OSError as exc:
        raise VolumeFormatError(f"cannot read payload {path}: {exc}") from exc
    except ValueError as exc:
        raise VolumeFormatError(f"volume {path} violates grid invariants: {exc}") from exc
    return VoxelGrid.owning(out, float(spacing), depth)
