"""Caption corpora and the self-contained F4I on-disk index format.

An index bundles caption metadata and the embedding matrix in one file so
there is no id-alignment gap between text and vectors.

F4I layout, all integers little-endian, no padding:

    magic "F4IX" | version u16 = 1 | kind u8 (0 dense, 1 sparse)
    | dim u32 | count u64
    | per caption: id_len u16, id bytes, text_len u32, text bytes
    | count * dim f32 embedding block
    | fingerprint_len u32, fingerprint bytes
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .embfile import Record, _pack_text, _Reader, _write_atomic
from .encoders import EncoderSpec, _encode, parse_items
from .errors import (
    CorruptFileError,
    DuplicateIdError,
    EmptyCorpusError,
    MalformedLineError,
    MixedDimsError,
    UnknownKindError,
)
from .search import _row_blocks
from .vectors import UNIT_NORM_TOL, _Adopted

F4I_MAGIC = b"F4IX"
F4I_VERSION = 1
CAPTION_KINDS = ("dense", "sparse")

_HEADER = struct.Struct("<4sHBIQ")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")


@dataclass(frozen=True)
class Caption:
    """One corpus entry: unique id, text and density kind."""

    id: str
    text: str
    kind: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("caption id must be non-empty")
        if not self.text or not self.text.strip():
            raise ValueError(f"caption {self.id!r} has empty text")
        if self.kind not in CAPTION_KINDS:
            raise UnknownKindError(f"caption {self.id!r} has kind {self.kind!r}")
        if self.kind == "sparse":
            parse_items(self.text)  # raises NoItemsError if nothing survives


@dataclass(frozen=True, eq=False)
class CaptionIndex:
    """Immutable searchable corpus: captions plus unit-norm embedding rows."""

    captions: tuple[Caption, ...]
    embeddings: np.ndarray
    kind: str
    encoder_fingerprint: str

    def __post_init__(self):
        if not self.captions:
            raise EmptyCorpusError("cannot build an index from zero captions")
        mat = self.embeddings
        mat = mat.array if isinstance(mat, _Adopted) else np.array(mat, dtype=np.float32)
        if mat.ndim != 2 or mat.shape[0] != len(self.captions):
            raise ValueError("embedding matrix must have one row per caption")
        for _, rows in _row_blocks(mat):
            if not np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= UNIT_NORM_TOL):
                raise ValueError("index rows must be unit-norm")
        seen = set()
        for cap in self.captions:
            if cap.id in seen:
                raise DuplicateIdError(f"duplicate caption id {cap.id!r}")
            seen.add(cap.id)
            if cap.kind != self.kind:
                raise ValueError(
                    "captions must all share one kind within an index: "
                    f"caption {cap.id!r} is {cap.kind!r}, not {self.kind!r}"
                )
        mat.flags.writeable = False
        object.__setattr__(self, "embeddings", mat)

    def __len__(self) -> int:
        return len(self.captions)

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])

    @cached_property
    def _row_by_id(self) -> dict[str, int]:
        return {cap.id: i for i, cap in enumerate(self.captions)}

    @cached_property
    def _id_rank(self) -> np.ndarray:
        """Each row's position in ascending caption-id order: the tie-break key.

        Python string order, not a numpy ``<U`` array, which drops trailing
        NULs and would make distinct ids compare equal.
        """
        by_id = [i for _, i in sorted((cap.id, i) for i, cap in enumerate(self.captions))]
        rank = np.empty(len(by_id), dtype=np.intp)
        rank[by_id] = np.arange(len(by_id))
        return rank

    def row_of(self, caption_id: str) -> int:
        return self._row_by_id[caption_id]

    def has_id(self, caption_id: str) -> bool:
        return caption_id in self._row_by_id

    def text_of(self, caption_id: str) -> str:
        return self.captions[self._row_by_id[caption_id]].text


def build_index(captions: Sequence[Caption], encoder: EncoderSpec) -> CaptionIndex:
    """Encode every caption text and assemble an immutable index."""
    if not captions:
        raise EmptyCorpusError("cannot build an index from zero captions")
    matrix = _encode([c.text for c in captions], encoder)
    return CaptionIndex(tuple(captions), matrix, captions[0].kind, encoder.fingerprint())


def build_index_from_records(
    captions: Sequence[Caption],
    records: Sequence[Record],
    fingerprint: str | None = None,
) -> CaptionIndex:
    """Assemble an index from precomputed embedding records, paired by id."""
    if not captions:
        raise EmptyCorpusError("cannot build an index from zero captions")
    by_id = dict(records)
    if len(by_id) != len(records):
        raise DuplicateIdError("embedding records contain duplicate ids")
    rows = []
    for cap in captions:
        vec = by_id.get(cap.id)
        if vec is None:
            raise KeyError(f"no embedding record for caption id {cap.id!r}")
        if rows and vec.dim != len(rows[0]):
            raise MixedDimsError(
                f"caption {cap.id!r} has a dim-{vec.dim} record, not dim {len(rows[0])}"
            )
        rows.append(vec.values)
    # Each float64 value rounds to float32 as it is copied in: no float64 matrix.
    matrix = np.array(rows, dtype=np.float32)
    if fingerprint is None:
        fingerprint = f"file:dim={matrix.shape[1]}"
    return CaptionIndex(tuple(captions), _Adopted(matrix), captions[0].kind, fingerprint)


def save_index(index: CaptionIndex, path) -> None:
    """Serialize an index to F4I; saving the same index twice is byte-identical."""
    _write_atomic(
        path,
        _HEADER.pack(
            F4I_MAGIC,
            F4I_VERSION,
            CAPTION_KINDS.index(index.kind),
            index.dim,
            len(index),
        ),
        *(_pack_text(_U16, cap.id) + _pack_text(_U32, cap.text) for cap in index.captions),
        # The matrix itself, not a copy, on a little-endian host.
        np.ascontiguousarray(index.embeddings, dtype="<f4"),
        _pack_text(_U32, index.encoder_fingerprint),
    )


def load_index(path) -> CaptionIndex:
    """Load an F4I file written by save_index.

    Raises BadMagicError, VersionUnsupportedError, TruncatedFileError,
    CorruptFileError, DuplicateIdError or EmptyCorpusError on malformed input.
    """
    with _Reader(path, _HEADER, F4I_MAGIC, F4I_VERSION) as reader:
        kind_byte, dim, count = reader.fields
        if kind_byte >= len(CAPTION_KINDS):
            raise CorruptFileError(f"{path}: invalid kind byte {kind_byte}")
        kind = CAPTION_KINDS[kind_byte]
        captions = tuple(
            Caption(reader.text(_U16), reader.text(_U32), kind) for _ in range(count)
        )
        block = reader.floats(count * dim)
        fingerprint = reader.text(_U32)
        reader.end()
        matrix = reader.aligned(block).reshape(count, dim)
        return CaptionIndex(captions, _Adopted(matrix), kind, fingerprint)


def read_jsonl(path) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, object)`` for each non-blank line of a JSONL file.

    Lines split on ``\\n`` only, so a raw U+2028 or U+0085 inside a JSON
    string stays in its line. Line numbers are 1-based; a line that is not
    UTF-8, not JSON (nested too deep or an integer too long included) or
    not a JSON object raises ``MalformedLineError`` with its number.
    """
    for line_no, raw in enumerate(Path(path).read_bytes().split(b"\n"), start=1):
        try:
            line = raw.decode("utf-8")
            if not line.strip():
                continue
            obj = json.loads(line)
        # UnicodeDecodeError and JSONDecodeError are ValueErrors; a long
        # integer raises a plain one and deep nesting a RecursionError.
        except (ValueError, RecursionError) as exc:
            raise MalformedLineError(line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise MalformedLineError(line_no, "expected a JSON object")
        yield line_no, obj


def ingest_captions(path) -> list[Caption]:
    """Parse a JSONL caption file: one {"id", "text", "kind"} object per line.

    Blank lines are skipped; order is preserved.
    """
    captions = []
    seen: set[str] = set()
    for line_no, obj in read_jsonl(path):
        missing = {"id", "text", "kind"} - obj.keys()
        if missing:
            raise MalformedLineError(line_no, f"missing fields {sorted(missing)}")
        for field in ("id", "text", "kind"):
            if not isinstance(obj[field], str):
                raise MalformedLineError(line_no, f"{field} must be a string")
        cid = obj["id"]
        if cid in seen:
            raise DuplicateIdError(f"line {line_no}: duplicate caption id {cid!r}")
        seen.add(cid)
        try:
            captions.append(Caption(cid, obj["text"], obj["kind"]))
        except ValueError as exc:
            raise MalformedLineError(line_no, str(exc)) from exc
    return captions
