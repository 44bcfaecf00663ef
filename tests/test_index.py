import hashlib
import itertools
import json
import re
import struct
import time
import tracemalloc

import numpy as np
import pytest

from f4search import search
from f4search.embfile import _Reader, write_embedding_file
from f4search.encoders import encode_texts
from f4search.errors import (
    BadMagicError,
    CorruptFileError,
    DuplicateIdError,
    EmptyCorpusError,
    F4SearchError,
    MalformedLineError,
    MixedDimsError,
    NoItemsError,
    TruncatedFileError,
    UnknownKindError,
    VersionUnsupportedError,
)
from f4search.evaluate import EvalConfig, evaluate_corpus
from f4search.index import (
    _HEADER,
    _U16,
    _U32,
    CAPTION_KINDS,
    F4I_MAGIC,
    F4I_VERSION,
    Caption,
    CaptionIndex,
    build_index,
    build_index_from_records,
    ingest_captions,
    load_index,
    save_index,
)
from f4search.rerank import retrieve_and_rerank
from f4search.search import search_fused_topk, search_topk
from f4search.vectors import UNIT_NORM_TOL, EmbeddingVector, FusionWeights

from conftest import SIGNALLING_NAN_ROW, unit


def sample_captions(n, kind="dense"):
    return [Caption(f"c{i:03d}", f"dish number {i} with rice", kind) for i in range(n)]


class TestCaption:
    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty text"):
            Caption("a", "  ", "dense")

    def test_unknown_kind(self):
        with pytest.raises(UnknownKindError):
            Caption("a", "rice", "medium")

    def test_sparse_must_parse_to_items(self):
        with pytest.raises(NoItemsError):
            Caption("a", " , ,", "sparse")

    def test_sparse_single_item_ok(self):
        assert Caption("a", "herb oil", "sparse").kind == "sparse"


class TestBuildIndex:
    def test_single_caption(self, synthetic_spec):
        index = build_index(sample_captions(1), synthetic_spec)
        assert len(index) == 1
        assert index.dim == synthetic_spec.dim
        assert np.linalg.norm(index.embeddings[0].astype(np.float64)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_deterministic(self, synthetic_spec):
        captions = sample_captions(5)
        a = build_index(captions, synthetic_spec)
        b = build_index(captions, synthetic_spec)
        assert a.embeddings.tobytes() == b.embeddings.tobytes()

    def test_duplicate_id(self, synthetic_spec):
        captions = sample_captions(3)
        captions[2] = Caption("c000", "something else", "dense")
        with pytest.raises(DuplicateIdError):
            build_index(captions, synthetic_spec)

    def test_empty_corpus(self, synthetic_spec):
        with pytest.raises(EmptyCorpusError):
            build_index([], synthetic_spec)

    def test_mixed_kinds_rejected(self, synthetic_spec):
        captions = [Caption("a", "rice", "dense"), Caption("b", "rice", "sparse")]
        with pytest.raises(ValueError, match="one kind"):
            build_index(captions, synthetic_spec)

    def test_rule_errors_name_the_caption(self, synthetic_spec):
        # CaptionIndex owns both rules; build_index reports its messages.
        captions = sample_captions(3)
        captions[2] = Caption("c000", "something else", "dense")
        with pytest.raises(DuplicateIdError, match="duplicate caption id 'c000'"):
            build_index(captions, synthetic_spec)
        mixed = [Caption("a", "rice", "dense"), Caption("b", "rice", "sparse")]
        with pytest.raises(ValueError, match="caption 'b' is 'sparse', not 'dense'"):
            build_index(mixed, synthetic_spec)

    def test_builds_no_embedding_vector(self, synthetic_spec, monkeypatch):
        # The caption texts go into the index as one encoded matrix, with the
        # bytes of the per-record path.
        captions = sample_captions(5)
        vectors = encode_texts([c.text for c in captions], synthetic_spec)
        records = list(zip([c.id for c in captions], vectors))
        want = build_index_from_records(captions, records, synthetic_spec.fingerprint())

        def refuse(self):
            raise AssertionError("build_index built an EmbeddingVector")

        monkeypatch.setattr(EmbeddingVector, "__post_init__", refuse)
        got = build_index(captions, synthetic_spec)
        assert got.embeddings.tobytes() == want.embeddings.tobytes()
        assert got.encoder_fingerprint == want.encoder_fingerprint

    def test_fingerprint_recorded(self, synthetic_spec):
        index = build_index(sample_captions(2), synthetic_spec)
        assert index.encoder_fingerprint == synthetic_spec.fingerprint()

    def test_embeddings_immutable(self, synthetic_spec):
        index = build_index(sample_captions(2), synthetic_spec)
        with pytest.raises(ValueError):
            index.embeddings[0, 0] = 5.0


class TestBuildFromRecords:
    def test_pairs_by_id(self):
        captions = [Caption("b", "beans", "dense"), Caption("a", "avocado", "dense")]
        records = [("a", unit([1.0, 0.0])), ("b", unit([0.0, 1.0]))]
        index = build_index_from_records(captions, records)
        np.testing.assert_allclose(index.embeddings[0], [0.0, 1.0])
        np.testing.assert_allclose(index.embeddings[1], [1.0, 0.0])
        assert index.encoder_fingerprint == "file:dim=2"

    def test_missing_record(self):
        captions = [Caption("a", "avocado", "dense")]
        with pytest.raises(KeyError, match="'a'"):
            build_index_from_records(captions, [("b", unit([1.0, 0.0]))])

    def test_duplicate_record_ids(self):
        captions = [Caption("a", "avocado", "dense")]
        records = [("a", unit([1.0, 0.0])), ("a", unit([0.0, 1.0]))]
        with pytest.raises(DuplicateIdError, match="duplicate ids"):
            build_index_from_records(captions, records)

    @pytest.mark.parametrize(
        "dims, error, message",
        [
            ((2, 3, None), MixedDimsError, "caption 'b' has a dim-3 record, not dim 2"),
            ((2, None, 3), KeyError, "no embedding record for caption id 'b'"),
        ],
        ids=["mixed-dims-first", "missing-first"],
    )
    def test_first_bad_caption_decides_the_error(self, dims, error, message):
        captions = [Caption(cid, "rice", "dense") for cid in "abc"]
        records = [(cid, unit(np.ones(dim))) for cid, dim in zip("abc", dims) if dim]
        with pytest.raises(error, match=re.escape(message)):
            build_index_from_records(captions, records)


def test_index_names_its_first_bad_caption():
    # A repeated id and another kind are checked caption by caption, in order.
    rows = unit_rows(3, 4, seed=1)
    other_kind_first = [Caption("a", "rice", "dense"), Caption("b", "rice", "sparse"), Caption("a", "rice", "dense")]
    with pytest.raises(ValueError, match="caption 'b' is 'sparse', not 'dense'"):
        CaptionIndex(other_kind_first, rows, "dense", "f")
    repeat_first = [Caption("a", "rice", "dense"), Caption("a", "rice", "sparse"), Caption("b", "rice", "sparse")]
    with pytest.raises(DuplicateIdError, match="duplicate caption id 'a'"):
        CaptionIndex(repeat_first, rows, "dense", "f")


class TestPersistence:
    def test_round_trip(self, tmp_path, synthetic_spec):
        index = build_index(sample_captions(100), synthetic_spec)
        path = tmp_path / "corpus.f4i"
        save_index(index, path)
        back = load_index(path)
        assert [c.id for c in back.captions] == [c.id for c in index.captions]
        assert [c.text for c in back.captions] == [c.text for c in index.captions]
        assert back.kind == index.kind
        assert back.encoder_fingerprint == index.encoder_fingerprint
        np.testing.assert_allclose(back.embeddings, index.embeddings, atol=1e-7)

    def test_double_save_byte_identical(self, tmp_path, synthetic_spec):
        index = build_index(sample_captions(10), synthetic_spec)
        p1, p2 = tmp_path / "a.f4i", tmp_path / "b.f4i"
        save_index(index, p1)
        save_index(index, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path, synthetic_spec):
        path = tmp_path / "x.f4i"
        save_index(build_index(sample_captions(2), synthetic_spec), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"WHAT"
        path.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            load_index(path)

    def test_unsupported_version(self, tmp_path, synthetic_spec):
        path = tmp_path / "x.f4i"
        save_index(build_index(sample_captions(2), synthetic_spec), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 9)
        path.write_bytes(bytes(data))
        with pytest.raises(VersionUnsupportedError):
            load_index(path)

    def test_truncated(self, tmp_path, synthetic_spec):
        path = tmp_path / "x.f4i"
        save_index(build_index(sample_captions(5), synthetic_spec), path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TruncatedFileError):
            load_index(path)

    def test_sparse_kind_round_trip(self, tmp_path, synthetic_spec):
        captions = [Caption("a", "rice, beans", "sparse")]
        index = build_index(captions, synthetic_spec)
        path = tmp_path / "s.f4i"
        save_index(index, path)
        assert load_index(path).kind == "sparse"


class TestIngestCaptions:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text(
            '{"id": "a", "text": "rice bowl", "kind": "dense"}\n'
            '{"id": "b", "text": "beans, corn", "kind": "sparse"}\n'
        )
        caps = ingest_captions(path)
        assert [c.id for c in caps] == ["a", "b"]
        assert caps[1].kind == "sparse"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text('\n{"id": "a", "text": "rice", "kind": "dense"}\n\n\n')
        assert len(ingest_captions(path)) == 1

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text('{"id": "a", "text": "rice", "kind": "medium"}\n')
        with pytest.raises(UnknownKindError):
            ingest_captions(path)

    @pytest.mark.parametrize(
        "bad",
        [b"{oops", b'{"id": "\xff"}', b"[" * 100000, b'{"id": ' + b"1" * 5000 + b"}"],
        ids=["json", "utf-8", "deep", "long-int"],
    )
    def test_malformed_json_carries_line_number(self, tmp_path, bad):
        path = tmp_path / "caps.jsonl"
        path.write_bytes(b'{"id": "a", "text": "rice", "kind": "dense"}\n' + bad + b"\n")
        with pytest.raises(MalformedLineError) as excinfo:
            ingest_captions(path)
        assert excinfo.value.line_no == 2

    @pytest.mark.parametrize("sep", ["\u2028", "\u0085"], ids=["U+2028", "U+0085"])
    def test_unicode_line_separator_inside_text_ingests(self, tmp_path, sep):
        path = tmp_path / "caps.jsonl"
        objs = [
            {"id": "a", "text": f"rice{sep}beans", "kind": "dense"},
            {"id": "b", "text": "corn", "kind": "dense"},
        ]
        text = "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in objs)
        path.write_text(text, encoding="utf-8")
        caps = ingest_captions(path)
        assert [(c.id, c.text) for c in caps] == [("a", f"rice{sep}beans"), ("b", "corn")]

    def test_missing_field(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text('{"id": "a", "kind": "dense"}\n')
        with pytest.raises(MalformedLineError, match="text"):
            ingest_captions(path)

    @pytest.mark.parametrize("field, value", [("id", 7), ("text", 5), ("kind", None), ("text", ["rice"])])
    def test_non_string_field_carries_line_number(self, tmp_path, field, value):
        bad = {"id": "b", "text": "rice", "kind": "dense", field: value}
        path = tmp_path / "caps.jsonl"
        path.write_text('{"id": "a", "text": "rice", "kind": "dense"}\n' + json.dumps(bad) + "\n")
        with pytest.raises(MalformedLineError, match=f"{field} must be a string") as excinfo:
            ingest_captions(path)
        assert excinfo.value.line_no == 2

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text(
            '{"id": "a", "text": "rice", "kind": "dense"}\n'
            '{"id": "a", "text": "beans", "kind": "dense"}\n'
        )
        with pytest.raises(DuplicateIdError):
            ingest_captions(path)


def test_index_validates_unit_rows():
    captions = [Caption("a", "rice", "dense")]
    with pytest.raises(ValueError, match="unit-norm"):
        CaptionIndex(tuple(captions), np.array([[3.0, 4.0]], dtype=np.float32), "dense", "file:dim=2")


def test_index_rejects_zero_captions():
    with pytest.raises(EmptyCorpusError, match="cannot build an index from zero captions"):
        CaptionIndex((), np.zeros((0, 2), dtype=np.float32), "dense", "file:dim=2")


def test_index_rejects_non_finite_rows():
    captions = [Caption("a", "rice", "dense")]
    with pytest.raises(ValueError, match="unit-norm"):
        CaptionIndex(tuple(captions), np.array([[np.nan, 1.0]], dtype=np.float32), "dense", "f")


class TestCorruptFiles:
    def test_every_prefix_truncated_and_every_bit_flip_domain_error(self, tmp_path):
        rng = np.random.default_rng(5)
        captions = [
            Caption("a", "crème brûlée", "dense"),
            Caption("b", "rice bowl", "dense"),
            Caption("c", "beans", "dense"),
        ]
        records = [(c.id, unit(rng.standard_normal(8))) for c in captions]
        path = tmp_path / "tiny.f4i"
        save_index(build_index_from_records(captions, records), path)
        data = path.read_bytes()
        for end in range(len(data)):
            path.write_bytes(data[:end])
            with pytest.raises(TruncatedFileError):
                load_index(path)
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                load_index(path)
            except F4SearchError:
                pass

    @staticmethod
    def one_caption_file(path, kind=0, text=b"rice", row=(1.0, 0.0)):
        header = struct.pack("<4sHBIQ", F4I_MAGIC, 1, kind, len(row), 1)
        caption = struct.pack("<H", 1) + b"a" + struct.pack("<I", len(text)) + text
        fingerprint = struct.pack("<I", 10) + b"file:dim=2"
        path.write_bytes(header + caption + np.array(row, "<f4").tobytes() + fingerprint)

    def test_hand_built_zero_row_file_is_empty_corpus(self, tmp_path):
        header = struct.pack("<4sHBIQ", F4I_MAGIC, 1, 0, 2, 0)
        fingerprint = struct.pack("<I", 10) + b"file:dim=2"
        (tmp_path / "empty.f4i").write_bytes(header + fingerprint)
        with pytest.raises(EmptyCorpusError, match="cannot build an index from zero captions"):
            load_index(tmp_path / "empty.f4i")

    def test_hand_built_file_loads(self, tmp_path):
        self.one_caption_file(tmp_path / "ok.f4i")
        assert load_index(tmp_path / "ok.f4i").text_of("a") == "rice"

    @pytest.mark.parametrize(
        "fields",
        [
            {"text": b"r\xffce"},
            {"kind": 7},
            {"row": (np.nan, 0.0)},
            {"row": SIGNALLING_NAN_ROW},
            {"text": b" "},
            {"row": ()},
        ],
        ids=["invalid-utf8-text", "kind-byte-7", "nan-row", "signalling-nan-row", "blank-text",
             "zero-dim"],
    )
    def test_corrupt_content_raises_corrupt_file_error(self, tmp_path, fields):
        self.one_caption_file(tmp_path / "bad.f4i", **fields)
        with pytest.raises(CorruptFileError, match="bad.f4i"):
            load_index(tmp_path / "bad.f4i")


def unit_rows(n, dim, seed):
    rows = np.random.default_rng(seed).standard_normal((n, dim))
    return (rows / np.linalg.norm(rows, axis=1, keepdims=True)).astype(np.float32)


class TestStoredRows:
    def test_builders_store_rows_rounded_once(self, synthetic_spec):
        captions = sample_captions(5)
        vectors = encode_texts([c.text for c in captions], synthetic_spec)
        want = np.stack([v.values for v in vectors]).astype(np.float32).tobytes()
        assert build_index(captions, synthetic_spec).embeddings.tobytes() == want
        records = [(c.id, v) for c, v in zip(captions, vectors)]
        assert build_index_from_records(captions, records).embeddings.tobytes() == want

    @pytest.mark.parametrize("bad_row", [0, 4, 9])
    def test_norm_check_reaches_every_block(self, bad_row, monkeypatch):
        # Three rows per block over ten rows: the last block is partial.
        dim = 8
        monkeypatch.setattr(search, "_ROW_BLOCK_BYTES", 3 * 8 * dim)
        captions = tuple(sample_captions(10))
        rows = unit_rows(10, dim, seed=bad_row)
        CaptionIndex(captions, rows, "dense", "f")
        rows[bad_row] *= 1.01
        with pytest.raises(ValueError, match="unit-norm"):
            CaptionIndex(captions, rows, "dense", "f")

    def test_memory_peaks_stay_near_the_matrix(self, tmp_path):
        # 20,000 x 128 float32 rows are 10 MB. Building holds the matrix,
        # its stored copy and one float64 row block; loading also holds the
        # file bytes and the id and text columns.
        captions = tuple(sample_captions(20_000))
        rows = unit_rows(20_000, 128, seed=3)
        tracemalloc.start()
        try:
            index = CaptionIndex(captions, rows, "dense", "f")
            build_peak = tracemalloc.get_traced_memory()[1]
            save_index(index, tmp_path / "big.f4i")
            del index
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            load_index(tmp_path / "big.f4i")
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert build_peak <= 2 * rows.nbytes
        assert load_peak <= 4 * rows.nbytes

    def test_build_save_and_load_copy_no_matrix(self, tmp_path):
        # Building from records holds the float32 matrix and one float64 row
        # block, saving writes the matrix as it is, and loading holds the
        # file bytes and the id and text columns.
        captions = sample_captions(20_000)
        rows = unit_rows(20_000, 128, seed=4)
        records = [(c.id, EmbeddingVector(row, normalized=True)) for c, row in zip(captions, rows)]

        def peak(call):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            index, build_peak = peak(lambda: build_index_from_records(captions, records))
            _, save_peak = peak(lambda: save_index(index, tmp_path / "big.f4i"))
            del index
            _, load_peak = peak(lambda: load_index(tmp_path / "big.f4i"))
        finally:
            tracemalloc.stop()
        assert build_peak <= 1.5 * rows.nbytes
        assert save_peak <= 0.5 * rows.nbytes
        assert load_peak <= 2 * rows.nbytes

    def test_constructor_copies_the_callers_rows(self):
        captions = tuple(sample_captions(3))
        rows = unit_rows(3, 4, seed=5)
        read_only = rows.view()
        read_only.flags.writeable = False
        want = rows.tobytes()
        indexes = [CaptionIndex(captions, given, "dense", "f") for given in (rows, read_only)]
        rows *= -1
        assert [index.embeddings.tobytes() for index in indexes] == [want, want]


@pytest.mark.parametrize("residue", range(4))
class TestFloatBlockOffsets:
    @staticmethod
    def saved(path, residue):
        """Save a two-row index whose float block starts at ``residue`` mod 4."""
        # Header 19 bytes, captions 2 * 7 + 8 bytes before the padding "s".
        text = "bean" + "s" * ((residue - 41) % 4)
        captions = (Caption("a", "rice", "dense"), Caption("b", text, "dense"))
        index = CaptionIndex(captions, unit_rows(2, 8, seed=residue), "dense", "f")
        save_index(index, path)
        data = path.read_bytes()
        assert (len(data) - index.embeddings.nbytes - 5) % 4 == residue
        return index, data

    def test_loaded_rows_are_aligned_and_read_only(self, tmp_path, residue):
        index, data = self.saved(tmp_path / "x.f4i", residue)
        back = load_index(tmp_path / "x.f4i")
        assert back.embeddings.tobytes() == index.embeddings.tobytes()
        assert back.embeddings.ctypes.data % 4096 == 0
        assert not back.embeddings.flags.writeable
        save_index(back, tmp_path / "y.f4i")
        assert (tmp_path / "y.f4i").read_bytes() == data

    def test_one_byte_short_is_truncated(self, tmp_path, residue):
        path = tmp_path / "x.f4i"
        _, data = self.saved(path, residue)
        path.write_bytes(data[:-1])
        message = f"{path}: 1 bytes needed at byte {len(data) - 1}, too few left"
        with pytest.raises(TruncatedFileError, match=f"^{re.escape(message)}$"):
            load_index(path)


def test_saved_bytes_match_pinned_digests(tmp_path):
    # Rows are float literals and the captions fixed strings, so no
    # arithmetic that could differ between hosts feeds the saved bytes.
    rows = list(dict.fromkeys(itertools.permutations((0.6, -0.8, 0.0, 0.0))))
    rows += list(itertools.product((0.5, -0.5), repeat=4))
    captions = [
        Caption(f"cap-{j:02d}-é", f"plat n° {j}: riz, haricots 🍚", "dense") for j in range(len(rows))
    ]
    records = [(c.id, EmbeddingVector(np.array(r), normalized=True)) for c, r in zip(captions, rows)]
    save_index(build_index_from_records(captions, records), tmp_path / "g.f4i")
    write_embedding_file(records, tmp_path / "g.f4e")
    digests = {n: hashlib.sha256((tmp_path / n).read_bytes()).hexdigest() for n in ("g.f4i", "g.f4e")}
    assert digests == {
        "g.f4i": "24e5ff40f789b4e3ca8a31a08024374035521dd742cc5e19b45af3321303cc25",
        "g.f4e": "9ebabbd658ec8972a9cab6a9a16b4b169080380a1eadf1b7c2bc979e38a3822c",
    }


def _jsonl(tmp_path, line):
    path = tmp_path / "caps.jsonl"
    path.write_text(line + "\n")
    return path


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda tmp_path: ingest_captions(_jsonl(tmp_path, "[1, 2]")),
         MalformedLineError, "line 1: expected a JSON object"),
        (lambda tmp_path: ingest_captions(_jsonl(tmp_path, '{"id": "", "text": "rice", "kind": "dense"}')),
         MalformedLineError, "line 1: caption id must be non-empty"),
        (lambda tmp_path: build_index_from_records([], []),
         EmptyCorpusError, "cannot build an index from zero captions"),
        (lambda tmp_path: CaptionIndex((Caption("a", "rice", "dense"),), unit_rows(2, 2, seed=0),
                                       "dense", "f"),
         ValueError, "embedding matrix must have one row per caption"),
        (lambda tmp_path: build_index_from_records(
            [Caption(cid, "rice", "dense") for cid in "abc"],
            [("a", unit([1.0, 0.0])), ("b", unit([0.0, 1.0])), ("c", unit([1.0, 0.0, 0.0]))]),
         MixedDimsError, "caption 'c' has a dim-3 record, not dim 2"),
    ],
    ids=["line-not-object", "empty-id", "no-captions-from-records", "row-count-differs",
         "mixed-record-dims"],
)
def test_guard_raises(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)


def reference_load(path):
    """The per-record loader that the column walk replaced: the spec of its errors.

    Every record becomes a ``Caption`` as it is read; the index checks that
    followed are those the ``CaptionIndex`` constructor then made.
    """
    with _Reader(path, _HEADER, F4I_MAGIC, F4I_VERSION) as reader:
        kind_byte, dim, count = reader.fields
        if kind_byte >= len(CAPTION_KINDS):
            raise CorruptFileError(f"{path}: invalid kind byte {kind_byte}")
        kind = CAPTION_KINDS[kind_byte]
        captions = tuple(Caption(reader.text(_U16), reader.text(_U32), kind) for _ in range(count))
        block = reader.floats(count * dim)
        fingerprint = reader.text(_U32)
        reader.end()
        matrix = reader.aligned(block).reshape(count, dim)
        if not captions:
            raise EmptyCorpusError("cannot build an index from zero captions")
        if not np.all(np.abs(np.linalg.norm(matrix.astype(np.float64), axis=1) - 1.0) <= UNIT_NORM_TOL):
            raise ValueError("index rows must be unit-norm")
        seen = set()
        for cap in captions:
            if cap.id in seen:
                raise DuplicateIdError(f"duplicate caption id {cap.id!r}")
            seen.add(cap.id)
    return captions, kind, fingerprint, matrix


def load_outcome(load, path):
    """What ``load`` made of ``path``: the error's type and message, or every id, text and row bit."""
    try:
        loaded = load(path)
    except F4SearchError as exc:
        return type(exc), str(exc)
    if isinstance(loaded, CaptionIndex):
        return loaded.captions, loaded.kind, loaded.encoder_fingerprint, loaded.embeddings.tobytes()
    captions, kind, fingerprint, matrix = loaded
    return captions, kind, fingerprint, matrix.tobytes()


def assert_loads_like_reference(path):
    expected = load_outcome(reference_load, path)
    assert load_outcome(load_index, path) == expected
    return expected


def f4i_bytes(ids, texts, rows, kind=1, fingerprint=b"file:dim=4"):
    """A hand-built F4I file: ``ids`` and ``texts`` as raw bytes, ``rows`` as a float32 matrix."""
    rows = np.asarray(rows, "<f4")
    body = b"".join(
        struct.pack("<H", len(cid)) + cid + struct.pack("<I", len(text)) + text for cid, text in zip(ids, texts)
    )
    header = struct.pack("<4sHBIQ", F4I_MAGIC, F4I_VERSION, kind, rows.shape[1], len(ids))
    return header + body + rows.tobytes() + struct.pack("<I", len(fingerprint)) + fingerprint


def record_starts(ids, texts):
    """Where each record of ``f4i_bytes(ids, texts, ...)`` starts, then where the last one ends."""
    lengths = (2 + len(cid) + 4 + len(text) for cid, text in zip(ids, texts))
    return list(itertools.accumulate(lengths, initial=_HEADER.size))


def clean_columns(n=6, dim=4):
    ids = [f"c{i}".encode() if i % 3 else f"é{i}".encode() for i in range(n)]
    texts = [f"rice, bean {i}, crème".encode() for i in range(n)]
    return ids, texts, unit_rows(n, dim, seed=n)


def spoil_record(fault, ids, texts, rows, i):
    """Make record ``i`` bad in one way; a duplicate repeats the id of a neighbouring record."""
    if fault == "empty-id":
        ids[i] = b""
    elif fault == "blank-text":
        texts[i] = b" \t "
    elif fault == "no-items":  # blank once split on commas: a sparse caption with no items
        texts[i] = b",,,"
    elif fault == "invalid-utf8-id":
        ids[i] = b"\xc3\x28"
    elif fault == "invalid-utf8-text":
        texts[i] = b"ri\xffce"
    elif fault == "duplicate":
        ids[i] = ids[i - 1] if i else ids[1]
    elif fault == "non-finite":
        rows[i, 1] = np.nan
    elif fault == "non-unit":
        rows[i] *= 1.5


RECORD_FAULTS = ["empty-id", "blank-text", "no-items", "invalid-utf8-id", "invalid-utf8-text",
                 "duplicate", "non-finite", "non-unit"]


class TestLoaderMatchesReference:
    @pytest.mark.parametrize("kind", [0, 1], ids=CAPTION_KINDS)
    @pytest.mark.parametrize("i", [0, 3, 5], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("fault", RECORD_FAULTS)
    def test_one_bad_record(self, tmp_path, fault, i, kind):
        ids, texts, rows = clean_columns()
        spoil_record(fault, ids, texts, rows, i)
        path = tmp_path / "bad.f4i"
        path.write_bytes(f4i_bytes(ids, texts, rows, kind))
        expected = assert_loads_like_reference(path)
        if kind == 1 or fault != "no-items":  # ",,," is a dense caption's valid text
            assert issubclass(expected[0], F4SearchError)

    def test_messages_carry_the_record_offset(self, tmp_path):
        # A bad id is reported at the end of the id, a broken rule at the end of the record.
        path = tmp_path / "bad.f4i"
        for fault, at, message in [
            ("invalid-utf8-id", lambda starts: starts[3] + 4, "'utf-8' codec can't decode byte 0xc3"),
            ("empty-id", lambda starts: starts[4], "caption id must be non-empty"),
        ]:
            ids, texts, rows = clean_columns()
            spoil_record(fault, ids, texts, rows, 3)
            path.write_bytes(f4i_bytes(ids, texts, rows))
            assert_loads_like_reference(path)
            where = f"{path}: bad content before byte {at(record_starts(ids, texts))}: {message}"
            with pytest.raises(CorruptFileError, match=re.escape(where)):
                load_index(path)

    @pytest.mark.parametrize("i", [0, 3, 5], ids=["first", "middle", "last"])
    def test_truncated_inside_a_record(self, tmp_path, i):
        ids, texts, rows = clean_columns()
        data = f4i_bytes(ids, texts, rows)
        starts = record_starts(ids, texts)
        path = tmp_path / "cut.f4i"
        for cut in range(starts[i] + 1, starts[i + 1]):
            path.write_bytes(data[:cut])
            assert assert_loads_like_reference(path)[0] is TruncatedFileError

    def test_trailing_bytes(self, tmp_path):
        ids, texts, rows = clean_columns()
        path = tmp_path / "long.f4i"
        path.write_bytes(f4i_bytes(ids, texts, rows) + b"\0")
        assert assert_loads_like_reference(path)[0] is TruncatedFileError

    @pytest.mark.parametrize("first, second", list(itertools.permutations(RECORD_FAULTS, 2)))
    def test_two_bad_records(self, tmp_path, first, second):
        ids, texts, rows = clean_columns()
        spoil_record(first, ids, texts, rows, 1)
        spoil_record(second, ids, texts, rows, 4)
        path = tmp_path / "bad.f4i"
        path.write_bytes(f4i_bytes(ids, texts, rows))
        assert issubclass(assert_loads_like_reference(path)[0], F4SearchError)

    def test_clean_file_loads_the_same_columns(self, tmp_path):
        ids, texts, rows = clean_columns()
        path = tmp_path / "ok.f4i"
        path.write_bytes(f4i_bytes(ids, texts, rows))
        captions = assert_loads_like_reference(path)[0]
        assert [c.id for c in captions] == [cid.decode() for cid in ids]

    @pytest.mark.parametrize("kind", [0, 1], ids=CAPTION_KINDS)
    def test_every_truncation_and_bit_flip_fails_like_the_reference(self, tmp_path, kind):
        ids, texts, rows = clean_columns(n=3, dim=2)
        data = f4i_bytes(ids, texts, rows, kind, fingerprint=b"f")
        path = tmp_path / "flip.f4i"
        for end in range(len(data)):
            path.write_bytes(data[:end])
            assert assert_loads_like_reference(path)[0] is TruncatedFileError
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            assert_loads_like_reference(path)


@pytest.mark.parametrize(
    "offset, fmt, value, end, message",
    [
        # A count past the one record held: the next record's id length is missing.
        (11, "<Q", 2**64 - 1, 27, "2 bytes needed at byte 27"),
        (7, "<I", 2**32 - 1, None, "17179869180 bytes needed at byte 27"),
        (19, "<H", 65535, None, "65535 bytes needed at byte 21"),
        (22, "<I", 2**32 - 1, None, "4294967295 bytes needed at byte 26"),
    ],
    ids=["count", "dim", "id-length", "text-length"],
)
def test_extreme_fields_fail_fast(tmp_path, offset, fmt, value, end, message):
    data = bytearray(f4i_bytes([b"a"], [b"t"], unit_rows(1, 4, seed=0)))
    struct.pack_into(fmt, data, offset, value)
    path = tmp_path / "extreme.f4i"
    path.write_bytes(data[:end])
    start = time.perf_counter()
    _, got = assert_loads_like_reference(path)
    assert time.perf_counter() - start < 1
    assert got == f"{path}: {message}, too few left"


def test_index_paths_build_no_caption(tmp_path, monkeypatch, corpus42):
    # The index keeps id and text columns: building, saving, loading,
    # searching, evaluating and re-ranking make no Caption. Reading
    # ``captions`` makes them, once.
    spec = corpus42.encoder
    dense = ingest_captions(corpus42.root / "captions_dense.jsonl")
    items = ingest_captions(corpus42.root / "captions_items.jsonl")
    records = {
        name: list(zip([c.id for c in caps], encode_texts([c.text for c in caps], spec)))
        for name, caps in (("dense", dense), ("items", items))
    }
    built = []

    def counted(self):
        built.append(self.id)

    monkeypatch.setattr(Caption, "__post_init__", counted)
    for name, caps in (("dense", dense), ("items", items)):
        save_index(build_index_from_records(caps, records[name], spec.fingerprint()), tmp_path / f"{name}.f4i")
    save_index(build_index(dense, spec), tmp_path / "dense-built.f4i")
    index, items_index = load_index(tmp_path / "dense.f4i"), load_index(tmp_path / "items.f4i")
    bundle = corpus42.bundles[0]
    search_topk(bundle.e_img, index, 5)
    search_fused_topk(bundle, index, encoder=spec, k=5)
    for config in (
        EvalConfig(encoder=spec, weights=FusionWeights(1.0, 0.0)),
        EvalConfig(encoder=spec),
        EvalConfig(encoder=spec, bidirectional=True),
    ):
        evaluate_corpus(corpus42.bundles[:20], index, config)
    retrieve_and_rerank(corpus42.bundles_items[0], items_index, N=20, k=5, encoder=spec)
    assert built == []
    assert index.captions == tuple(dense)
    assert items_index.captions == tuple(items)
    assert index.captions is index.captions
    assert len(built) == len(dense) + len(items)


def test_constructor_keeps_the_captions_it_was_given():
    captions = tuple(sample_captions(3))
    index = CaptionIndex(captions, unit_rows(3, 4, seed=6), "dense", "f")
    assert index.captions is captions
    assert index.ids == ("c000", "c001", "c002")
    assert index.texts == tuple(c.text for c in captions)
