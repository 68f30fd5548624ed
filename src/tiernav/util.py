"""Seeding, artifact writing and small shared helpers.

Every stochastic component draws from a substream derived from
(master_seed, *tags) so results do not depend on call order elsewhere
in the program. Every artifact reaches disk through atomic_write, so a
reader never sees a half-written file under its final name.
"""

import contextlib
import hashlib
import os

import numpy as np

from .errors import ContractError


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def substream(master_seed: int, *tags) -> np.random.Generator:
    """Independent generator for (master_seed, tags), stable across runs."""
    key = tuple(_tag_to_int(t) for t in tags)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(master_seed, spawn_key=key)))


def stable_hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def read_text(path) -> str:
    """The UTF-8 text of a file; bytes that are not UTF-8 raise ContractError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise ContractError(f"{path}: not UTF-8 text: {e}") from None


def atomic_write(path, data):
    """Write str (as UTF-8) or bytes to <path>.tmp, then rename it onto path.

    A write that fails removes its <path>.tmp and re-raises, so nothing
    but the earlier file (or none) is left under either name.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _fmt(v) -> str:
    """One CSV cell: str as is, integers in decimal, floats repr-exact."""
    if type(v) is float:  # the common cell; np.float64 and bool take the path below
        return repr(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path, columns, rows):
    """Header line, then one line of comma-joined cells per row, atomically."""
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")
