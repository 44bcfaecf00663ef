import struct

import numpy as np
import pytest

from f4search.errors import (
    BadMagicError,
    CorruptFileError,
    DuplicateIdError,
    EmptyCorpusError,
    F4SearchError,
    MalformedLineError,
    NoItemsError,
    TruncatedFileError,
    UnknownKindError,
    VersionUnsupportedError,
)
from f4search.index import (
    F4I_MAGIC,
    Caption,
    CaptionIndex,
    build_index,
    build_index_from_records,
    ingest_captions,
    load_index,
    save_index,
)

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

    def test_malformed_json_carries_line_number(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text('{"id": "a", "text": "rice", "kind": "dense"}\n{oops\n')
        with pytest.raises(MalformedLineError) as excinfo:
            ingest_captions(path)
        assert excinfo.value.line_no == 2

    def test_missing_field(self, tmp_path):
        path = tmp_path / "caps.jsonl"
        path.write_text('{"id": "a", "kind": "dense"}\n')
        with pytest.raises(MalformedLineError, match="text"):
            ingest_captions(path)

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
        header = struct.pack("<4sHBIQ", F4I_MAGIC, 1, kind, 2, 1)
        caption = struct.pack("<H", 1) + b"a" + struct.pack("<I", len(text)) + text
        fingerprint = struct.pack("<I", 10) + b"file:dim=2"
        path.write_bytes(header + caption + np.array(row, "<f4").tobytes() + fingerprint)

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
        ],
        ids=["invalid-utf8-text", "kind-byte-7", "nan-row", "signalling-nan-row", "blank-text"],
    )
    def test_corrupt_content_raises_corrupt_file_error(self, tmp_path, fields):
        self.one_caption_file(tmp_path / "bad.f4i", **fields)
        with pytest.raises(CorruptFileError, match="bad.f4i"):
            load_index(tmp_path / "bad.f4i")
