"""Reader/writer for the F4E binary embedding batch format.

Layout, all integers little-endian, no padding:

    magic "F4EM" | version u16 = 1 | dim u32 | count u64
    per record: id_len u16 | id UTF-8 bytes | dim * f32

Vectors are stored in 32-bit floats and re-normalized (in double
precision) on load, so every loaded vector carries the unit-norm flag.
``_Reader`` and ``_pack_text`` are shared with the F4I format (``index.py``);
every file the package writes goes through ``_write_atomic``.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BadMagicError,
    CorruptFileError,
    DuplicateIdError,
    MixedDimsError,
    TruncatedFileError,
    VersionUnsupportedError,
)
from .vectors import EmbeddingVector, l2_normalize

F4E_MAGIC = b"F4EM"
F4E_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")
_ID_LEN = struct.Struct("<H")

Record = tuple[str, EmbeddingVector]


def _pack_text(length: struct.Struct, s: str) -> bytes:
    """UTF-8 bytes of ``s`` behind their byte count packed with ``length``."""
    raw = s.encode("utf-8")
    try:
        return length.pack(len(raw)) + raw
    except struct.error:
        too_long = f"string of {len(raw)} UTF-8 bytes too long to store: {s[:40]!r}"
        raise ValueError(too_long) from None


def _write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data``: write a sibling temp file, then ``os.replace``.

    Readers see the old file or the new one, never a part of either. When
    the write fails the old file is left as it was and the temp file is
    removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    """Sequential reads over one F4E/F4I file, each checked against the bytes left.

    Construction checks the header's magic, then its version, and keeps the
    remaining header fields in ``fields``. As a context manager it turns a
    ``ValueError`` raised while decoding (invalid UTF-8, or records built
    from the decoded values) into ``CorruptFileError``.
    """

    def __init__(self, path, header: struct.Struct, magic: bytes, version: int):
        self.path, self.data, self.pos = path, Path(path).read_bytes(), 0
        got_magic, got_version, *self.fields = self.unpack(header)
        if got_magic != magic:
            raise BadMagicError(f"{path}: expected magic {magic!r}, got {got_magic!r}")
        if got_version != version:
            raise VersionUnsupportedError(f"{path}: version {got_version}, expected {version}")

    def __enter__(self) -> _Reader:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if isinstance(exc, ValueError):
            reason = f"bad content before byte {self.pos}: {exc}"
            raise CorruptFileError(f"{self.path}: {reason}") from exc

    def _take(self, n: int) -> int:
        start = self.pos
        self.pos += n
        if self.pos > len(self.data):
            raise TruncatedFileError(f"{self.path}: {n} bytes needed at byte {start}, too few left")
        return start

    def unpack(self, fmt: struct.Struct) -> tuple:
        return fmt.unpack_from(self.data, self._take(fmt.size))

    def text(self, length: struct.Struct) -> str:
        (n,) = self.unpack(length)
        start = self._take(n)
        return self.data[start : start + n].decode("utf-8")

    def floats(self, count: int) -> np.ndarray:
        arr = np.frombuffer(self.data, dtype="<f4", count=count, offset=self._take(4 * count))
        # Checked on the float32 view: casting a signalling NaN to float64 warns.
        if not np.isfinite(arr).all():
            raise ValueError("non-finite float")
        return arr

    def end(self) -> None:
        if self.pos != len(self.data):
            raise TruncatedFileError(f"{self.path}: {len(self.data) - self.pos} trailing bytes")


def write_embedding_file(records: Sequence[Record], path) -> None:
    """Write (id, vector) records to ``path`` in F4E format.

    All vectors must share one dimension and ids must be unique. An empty
    record list produces a valid file with count 0 and dim 0.
    """
    dims = {vec.dim for _, vec in records}
    if len(dims) > 1:
        raise MixedDimsError(f"records mix dims {sorted(dims)}")
    seen = set()
    for rid, _ in records:
        if rid in seen:
            raise DuplicateIdError(f"duplicate record id {rid!r}")
        seen.add(rid)

    dim = dims.pop() if dims else 0
    parts = [_HEADER.pack(F4E_MAGIC, F4E_VERSION, dim, len(records))]
    for rid, vec in records:
        parts.append(_pack_text(_ID_LEN, rid))
        parts.append(vec.values.astype("<f4").tobytes())
    _write_atomic(path, b"".join(parts))


def load_embedding_file(path) -> list[Record]:
    """Load all records from an F4E file, in file order.

    Every vector is L2-normalized on load. Raises BadMagicError,
    VersionUnsupportedError, TruncatedFileError, CorruptFileError or
    DuplicateIdError on malformed input.
    """
    records: list[Record] = []
    seen: set[str] = set()
    with _Reader(path, _HEADER, F4E_MAGIC, F4E_VERSION) as reader:
        dim, count = reader.fields
        for _ in range(count):
            rid = reader.text(_ID_LEN)
            raw = reader.floats(dim)
            if rid in seen:
                raise DuplicateIdError(f"{path}: duplicate record id {rid!r}")
            seen.add(rid)
            records.append((rid, l2_normalize(raw)))
        reader.end()
    return records
