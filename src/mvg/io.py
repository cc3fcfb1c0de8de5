"""File formats: the bit-exact tensor container, PGM image export, CSV, JSON.

Tensor container layout (little-endian): magic ``MVGT``, u32 ndim, ndim×u32
dims, then dims-product float32 values in row-major order, and nothing after them.

Every writer renames a temporary file onto its target (replacing), so a failed
write leaves the old file or none, and never changes a file linked elsewhere.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InvalidArgument

MAGIC = b"MVGT"


@contextmanager
def replacing(path):
    """A temporary name beside path, one per process, that is renamed onto path
    when the block completes and removed when it raises."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    tmp.unlink(missing_ok=True)  # left by a killed process of the same pid
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tensor(path, arr) -> None:
    arr = np.asarray(arr, dtype=np.float32)
    with replacing(path) as tmp, open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(np.ascontiguousarray(arr).astype("<f4").tobytes())


def stored(arr) -> np.ndarray:
    """arr at the precision write_tensor stores, as read_tensor returns it."""
    return np.asarray(arr, dtype=np.float32).astype(np.float64)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise InvalidArgument(f"{path}: bad magic {magic!r}")
        try:
            (ndim,) = struct.unpack("<I", f.read(4))
            dims = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
        except struct.error:
            raise InvalidArgument(f"{path}: truncated header") from None
        count = int(np.prod(dims)) if ndim else 1
        data = np.frombuffer(f.read(4 * count), dtype="<f4")
        if data.size != count:
            raise InvalidArgument(f"{path}: truncated payload")
        if f.read(1):
            raise InvalidArgument(f"{path}: trailing bytes after the payload")
        if not np.all(np.isfinite(data)):
            raise InvalidArgument(f"{path}: non-finite values")
    return data.reshape(dims).astype(np.float64)


def write_pgm(path, arr) -> None:
    """8-bit binary PGM after clamping to [0,1] and scaling by 255."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidArgument(f"PGM export needs a 2-D image, got shape {arr.shape}")
    h, w = arr.shape
    pixels = np.round(np.clip(arr, 0.0, 1.0) * 255).astype(np.uint8)
    with replacing(path) as tmp, open(tmp, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def write_csv(path, header, rows) -> None:
    with replacing(path) as tmp, open(tmp, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    with replacing(path) as tmp, open(tmp, "w") as f:
        f.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())
