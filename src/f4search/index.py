"""Caption corpora and the self-contained F4I on-disk index format.

An index bundles caption metadata and the embedding matrix in one file so
there is no id-alignment gap between text and vectors. In memory it holds
two columns, ``ids`` and ``texts``, next to the float32 matrix, and builds
its ``captions`` on first access: building, saving, loading, searching
and evaluating make no ``Caption``.

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
from operator import attrgetter
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


def _check_caption(caption_id: str, text: str, kind: str) -> None:
    """The rules every caption meets, whether a ``Caption`` or a record read from F4I."""
    if not caption_id:
        raise ValueError("caption id must be non-empty")
    if not text or not text.strip():
        raise ValueError(f"caption {caption_id!r} has empty text")
    if kind not in CAPTION_KINDS:
        raise UnknownKindError(f"caption {caption_id!r} has kind {kind!r}")
    if kind == "sparse":
        parse_items(text)  # raises NoItemsError if nothing survives


@dataclass(frozen=True)
class Caption:
    """One corpus entry: unique id, text and density kind."""

    id: str
    text: str
    kind: str

    def __post_init__(self):
        _check_caption(self.id, self.text, self.kind)


@dataclass(frozen=True, eq=False, init=False)
class CaptionIndex:
    """Immutable searchable corpus: id and text columns plus unit-norm embedding rows.

    ``CaptionIndex(captions, embeddings, kind, encoder_fingerprint)`` keeps the
    captions it is given; an index built or loaded by this module makes its
    ``captions`` from the columns on first access.
    """

    ids: tuple[str, ...]
    texts: tuple[str, ...]
    embeddings: np.ndarray
    kind: str
    encoder_fingerprint: str

    def __init__(self, captions: Sequence[Caption], embeddings, kind: str, encoder_fingerprint: str):
        captions = tuple(captions)
        self._fill(*_columns(captions), embeddings, kind, encoder_fingerprint)
        self.__dict__["captions"] = captions  # what the cached property would hold

    @classmethod
    def _from_columns(cls, ids, texts, kinds, embeddings, kind, encoder_fingerprint) -> CaptionIndex:
        """An index over checked captions given as columns; ``kinds`` is None when all are ``kind``."""
        index = cls.__new__(cls)
        index._fill(ids, texts, kinds, embeddings, kind, encoder_fingerprint)
        return index

    def _fill(self, ids, texts, kinds, embeddings, kind, encoder_fingerprint) -> None:
        """Check the rows in the order that decides which error a bad index raises, then keep them.

        No rows, then the row count, then unit rows, then the first caption
        that repeats an id or (when ``kinds`` is given) has another kind.
        """
        if not ids:
            raise EmptyCorpusError("cannot build an index from zero captions")
        mat = embeddings.array if isinstance(embeddings, _Adopted) else np.array(embeddings, dtype=np.float32)
        if mat.ndim != 2 or mat.shape[0] != len(ids):
            raise ValueError("embedding matrix must have one row per caption")
        for _, rows in _row_blocks(mat):
            if not np.all(np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= UNIT_NORM_TOL):
                raise ValueError("index rows must be unit-norm")
        if len(set(ids)) < len(ids) or (kinds is not None and kinds.count(kind) < len(kinds)):
            seen = set()
            for i, cid in enumerate(ids):
                if cid in seen:
                    raise DuplicateIdError(f"duplicate caption id {cid!r}")
                seen.add(cid)
                if kinds is not None and kinds[i] != kind:
                    raise ValueError(
                        "captions must all share one kind within an index: "
                        f"caption {cid!r} is {kinds[i]!r}, not {kind!r}"
                    )
        mat.flags.writeable = False
        for name, value in (("ids", tuple(ids)), ("texts", tuple(texts)), ("embeddings", mat),
                            ("kind", kind), ("encoder_fingerprint", encoder_fingerprint)):
            object.__setattr__(self, name, value)

    @cached_property
    def captions(self) -> tuple[Caption, ...]:
        return tuple(Caption(cid, text, self.kind) for cid, text in zip(self.ids, self.texts))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.embeddings.shape[1])

    @cached_property
    def _row_by_id(self) -> dict[str, int]:
        return dict(zip(self.ids, range(len(self.ids))))

    @cached_property
    def _id_rank(self) -> np.ndarray:
        """Each row's position in ascending caption-id order: the tie-break key.

        Python string order, not a numpy ``<U`` array, which drops trailing
        NULs and would make distinct ids compare equal.
        """
        by_id = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        rank = np.empty(len(by_id), dtype=np.intp)
        rank[by_id] = np.arange(len(by_id))
        return rank

    def row_of(self, caption_id: str) -> int:
        return self._row_by_id[caption_id]

    def has_id(self, caption_id: str) -> bool:
        return caption_id in self._row_by_id

    def text_of(self, caption_id: str) -> str:
        return self.texts[self._row_by_id[caption_id]]


def _columns(captions: Sequence[Caption]) -> list[tuple[str, ...]]:
    """The ids, texts and kinds of ``captions``, as three tuples."""
    return [tuple(map(attrgetter(field), captions)) for field in ("id", "text", "kind")]


def build_index(captions: Sequence[Caption], encoder: EncoderSpec) -> CaptionIndex:
    """Encode every caption text and assemble an immutable index."""
    if not captions:
        raise EmptyCorpusError("cannot build an index from zero captions")
    ids, texts, kinds = _columns(captions)
    matrix = _encode(list(texts), encoder)
    return CaptionIndex._from_columns(ids, texts, kinds, matrix, captions[0].kind, encoder.fingerprint())


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
    ids, texts, kinds = _columns(captions)
    vectors = list(map(by_id.get, ids))
    rows = [] if None in vectors else list(map(attrgetter("values"), vectors))
    if len(set(map(len, rows))) != 1:  # a missing record or mixed dims: name the first
        for cid, vec in zip(ids, vectors):
            if vec is None:
                raise KeyError(f"no embedding record for caption id {cid!r}")
            if vec.dim != vectors[0].dim:
                raise MixedDimsError(
                    f"caption {cid!r} has a dim-{vec.dim} record, not dim {vectors[0].dim}"
                )
    # Each float64 value rounds to float32 as it is copied in: no float64 matrix.
    matrix = np.array(rows, dtype=np.float32)
    if fingerprint is None:
        fingerprint = f"file:dim={matrix.shape[1]}"
    return CaptionIndex._from_columns(ids, texts, kinds, _Adopted(matrix), captions[0].kind, fingerprint)


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
        *(_pack_text(_U16, cid) + _pack_text(_U32, text) for cid, text in zip(index.ids, index.texts)),
        # The matrix itself, not a copy, on a little-endian host.
        np.ascontiguousarray(index.embeddings, dtype="<f4"),
        _pack_text(_U32, index.encoder_fingerprint),
    )


def load_index(path) -> CaptionIndex:
    """Load an F4I file written by save_index.

    Raises BadMagicError, VersionUnsupportedError, TruncatedFileError,
    CorruptFileError, DuplicateIdError, NoItemsError or EmptyCorpusError on
    malformed input.
    """
    with _Reader(path, _HEADER, F4I_MAGIC, F4I_VERSION) as reader:
        kind_byte, dim, count = reader.fields
        if kind_byte >= len(CAPTION_KINDS):
            raise CorruptFileError(f"{path}: invalid kind byte {kind_byte}")
        kind = CAPTION_KINDS[kind_byte]
        ids, texts = [], []
        for _ in range(count):
            cid, text = reader.text(_U16), reader.text(_U32)
            _check_caption(cid, text, kind)
            ids.append(cid)
            texts.append(text)
        block = reader.floats(count * dim)
        fingerprint = reader.text(_U32)
        reader.end()
        matrix = reader.aligned(block).reshape(count, dim)
        return CaptionIndex._from_columns(ids, texts, None, _Adopted(matrix), kind, fingerprint)


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
