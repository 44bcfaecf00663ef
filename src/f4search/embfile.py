"""Reader/writer for the F4E binary embedding batch format.

Layout, all integers little-endian, no padding:

    magic "F4EM" | version u16 = 1 | dim u32 | count u64
    per record: id_len u16 | id UTF-8 bytes | dim * f32

Vectors are stored in 32-bit floats and normalized on load, as one block
in double precision, so every loaded vector carries the unit-norm flag.
``_Reader`` and ``_pack_text`` are shared with the F4I format (``index.py``);
every file the package writes goes through ``_write_atomic``.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BadMagicError,
    CorruptFileError,
    DuplicateIdError,
    MixedDimsError,
    TruncatedFileError,
    VersionUnsupportedError,
    ZeroVectorError,
)
from .vectors import ZERO_NORM_EPS, EmbeddingVector, _Adopted, _norms

F4E_MAGIC = b"F4EM"
F4E_VERSION = 1
_HEADER = struct.Struct("<4sHIQ")
_ID_LEN = struct.Struct("<H")

Record = tuple[str, EmbeddingVector]

# Page-aligned, near a fresh large numpy array (16 bytes in): a 50,000 x 256 float32
# mat-vec ran up to ~8 % slower from some other 64-byte offsets (x86-64, OpenBLAS).
_ALIGN = 4096


def _pack_text(length: struct.Struct, s: str) -> bytes:
    """UTF-8 bytes of ``s`` behind their byte count packed with ``length``."""
    raw = s.encode("utf-8")
    try:
        return length.pack(len(raw)) + raw
    except struct.error:
        too_long = f"string of {len(raw)} UTF-8 bytes too long to store: {s[:40]!r}"
        raise ValueError(too_long) from None


def _write_atomic(path, *chunks) -> None:
    """Replace ``path`` with the concatenated ``chunks``, any bytes-like objects
    (C-contiguous arrays included): write a sibling temp file, then ``os.replace``.

    Readers see the old file or the new one, never a part of either. When
    the write fails the old file is left as it was and the temp file is
    removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _Reader:
    """Sequential reads over one F4E/F4I file, each checked against the bytes left.

    The file's bytes are followed by ``_ALIGN - 1`` spare ones for ``aligned``.
    Construction checks the header's magic, then its version, and keeps the
    remaining header fields in ``fields``. As a context manager it turns a
    ``ValueError`` raised while decoding (invalid UTF-8, or records built
    from the decoded values) into ``CorruptFileError``.
    """

    def __init__(self, path, header: struct.Struct, magic: bytes, version: int):
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            # numpy asks for huge pages for a large buffer; row scans run faster on them.
            self.data = memoryview(np.empty(size + _ALIGN - 1, np.uint8))
            self.size = f.readinto(self.data[:size])
        self.path, self.pos = path, 0
        got_magic, got_version, *self.fields = header.unpack_from(self.data, self._take(header.size))
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
        if self.pos > self.size:
            raise TruncatedFileError(f"{self.path}: {n} bytes needed at byte {start}, too few left")
        return start

    def text(self, length: struct.Struct) -> str:
        """A UTF-8 string behind its byte count packed with ``length``; a cut one raises through ``_take``."""
        start = self.pos + length.size
        if start > self.size:
            self._take(length.size)
        end = start + length.unpack_from(self.data, self.pos)[0]
        if end > self.size:
            self.pos = start
            self._take(end - start)
        self.pos = end
        return self.data[start:end].tobytes().decode()

    def floats(self, count: int) -> np.ndarray:
        arr = np.frombuffer(self.data, dtype="<f4", count=count, offset=self._take(4 * count))
        # Checked on the float32 view: casting a signalling NaN to float64 warns.
        if not np.isfinite(arr).all():
            raise ValueError("non-finite float")
        return arr

    def end(self) -> None:
        if self.pos != self.size:
            raise TruncatedFileError(f"{self.path}: {self.size - self.pos} trailing bytes")

    def aligned(self, block: np.ndarray) -> np.ndarray:
        """``block``, a ``floats`` view, moved in place onto an ``_ALIGN`` boundary.

        Call it after ``end()``: the move overwrites the bytes after the block.
        """
        start = block.ctypes.data - np.frombuffer(self.data, np.uint8).ctypes.data
        dest = start + -block.ctypes.data % _ALIGN
        # A memoryview slice assignment is one memmove, with no temporary.
        self.data[dest : dest + block.nbytes] = self.data[start : start + block.nbytes]
        return np.frombuffer(self.data, block.dtype, block.size, dest)


def write_embedding_file(records: Sequence[Record], path) -> None:
    """Write (id, vector) records to ``path`` in F4E format.

    All vectors must share one dimension, fit in float32, and ids must be
    unique. An empty record list produces a valid file with count 0 and dim 0.
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
    with np.errstate(over="ignore"):  # an overflow raises below, not as a warning
        matrix = np.array([vec.values for _, vec in records], "<f4").reshape(len(records), dim)
    fits = np.isfinite(matrix).all(axis=1)
    if not fits.all():
        raise ValueError(f"record {records[int(np.argmin(fits))][0]!r} overflows float32")
    chunks = [_HEADER.pack(F4E_MAGIC, F4E_VERSION, dim, len(records))]
    for (rid, _), row in zip(records, matrix):
        chunks += (_pack_text(_ID_LEN, rid), row)
    _write_atomic(path, *chunks)


def load_embedding_file(path) -> list[Record]:
    """Load all records from an F4E file, in file order.

    The float rows are checked finite and L2-normalized as one block; each
    vector is a read-only row of it. A bad file fails at its first bad record,
    checked for its id, float count, finiteness, unique id and norm in turn; a
    non-finite one is named by the byte offset of its end, and a zero one by
    its id and that offset too. Raises BadMagicError,
    VersionUnsupportedError, TruncatedFileError, CorruptFileError,
    DuplicateIdError or ZeroVectorError on malformed input.
    """
    ids: dict[str, None] = {}  # an ordered set
    starts: list[int] = []
    fault = None
    with _Reader(path, _HEADER, F4E_MAGIC, F4E_VERSION) as reader:
        dim, count = reader.fields
        if count and not dim:
            raise ValueError("embedding must be a non-empty 1-D vector")
        try:
            for _ in range(count):
                rid = reader.text(_ID_LEN)
                starts.append(reader._take(4 * dim))
                if rid in ids:
                    raise DuplicateIdError(f"{path}: duplicate record id {rid!r}")
                ids[rid] = None
            reader.end()
        except (TruncatedFileError, DuplicateIdError, ValueError) as exc:
            fault = exc  # raised below, unless a record before it is bad
        n = len(starts)
        # With no rows, a window wider than the file would raise.
        windows = sliding_window_view(np.frombuffer(reader.data, np.uint8), 4 * dim if n else 0)
        block = windows[starts].view("<f4")  # a copy of the rows alone
        # Checked in float32, before the cast: casting a signalling NaN to float64 warns.
        bad = int(np.append(np.isfinite(block).all(axis=1), False).argmin())  # n if none
        unit = block[:bad].astype(np.float64)
        norms = _norms(unit)
        dup = n - 1 if isinstance(fault, DuplicateIdError) else n
        zero = norms[:dup] <= ZERO_NORM_EPS
        if zero.any():  # a zero row ahead of every other fault
            z = int(zero.argmax())
            at = f"record {list(ids)[z]!r} before byte {starts[z] + 4 * dim}"
            raise ZeroVectorError(f"{path}: {at}: cannot normalize a zero vector")
        if bad < n:
            reader.pos = starts[bad] + 4 * dim
            raise ValueError("non-finite float")
        if fault is not None:
            raise fault
    del reader, windows, block  # the file's bytes and the rows' copy, freed before the records
    unit /= norms[:, None]
    unit.flags.writeable = False
    return [(rid, EmbeddingVector(_Adopted(row), normalized=True)) for rid, row in zip(ids, unit)]
