"""Flat binary checkpoint container.

Holds a string->string metadata section and a name->float64-array
section. Keys are written sorted and there are no timestamps, so the
same arrays always produce the same bytes (unlike zip-based formats),
and round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ContractError
from .util import atomic_write

MAGIC = b"TNCKPT01"


def save_checkpoint(path, arrays: dict, meta: dict | None = None):
    meta = dict(meta or {})
    chunks = [MAGIC]
    chunks.append(struct.pack("<I", len(meta)))
    for key in sorted(meta):
        kb = key.encode("utf-8")
        vb = str(meta[key]).encode("utf-8")
        chunks.append(struct.pack("<I", len(kb)) + kb + struct.pack("<I", len(vb)) + vb)
    chunks.append(struct.pack("<I", len(arrays)))
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype=np.float64)
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)) + nb)
        chunks.append(struct.pack("<I", arr.ndim))
        if arr.ndim:
            chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.tobytes())
    atomic_write(path, b"".join(chunks))


def load_checkpoint(path):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != MAGIC:
        raise ContractError(f"{path}: not a checkpoint file (bad magic)")
    off = 8

    def take(n):
        nonlocal off
        out = blob[off : off + n]
        if len(out) != n:
            raise ContractError(f"{path}: truncated checkpoint")
        off += n
        return out

    def take_u32():
        return struct.unpack("<I", take(4))[0]

    def take_str():
        try:
            return take(take_u32()).decode("utf-8")
        except UnicodeDecodeError as e:
            raise ContractError(f"{path}: a metadata entry or array name is not UTF-8: {e}") from None

    meta = {}
    for _ in range(take_u32()):
        key = take_str()
        meta[key] = take_str()
    arrays = {}
    for _ in range(take_u32()):
        name = take_str()
        ndim = take_u32()
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim)) if ndim else ()
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:
            arrays[name] = data.reshape(shape).copy()
        except ValueError as e:  # no elements, but a dimension past numpy's limits
            raise ContractError(f"{path}: array {name} has shape {shape}: {e}") from None
    if off != len(blob):
        raise ContractError(f"{path}: {len(blob) - off} trailing bytes in checkpoint")
    return arrays, meta
