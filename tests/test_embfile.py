import struct
import time

import numpy as np
import pytest

from f4search import vectors
from f4search.embfile import F4E_MAGIC, load_embedding_file, write_embedding_file
from f4search.errors import (
    BadMagicError,
    CorruptFileError,
    DuplicateIdError,
    F4SearchError,
    MixedDimsError,
    TruncatedFileError,
    VersionUnsupportedError,
    ZeroVectorError,
)
from f4search.vectors import ZERO_NORM_EPS, EmbeddingVector, _unit

from conftest import SIGNALLING_NAN_ROW, ByteReader, unit


def random_records(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return [(f"r{i:03d}", unit(rng.standard_normal(dim))) for i in range(n)]


def test_round_trip_preserves_everything(tmp_path):
    records = random_records(100, 32, seed=1)
    path = tmp_path / "batch.f4e"
    write_embedding_file(records, path)
    loaded = load_embedding_file(path)
    assert [rid for rid, _ in loaded] == [rid for rid, _ in records]
    for (_, original), (_, back) in zip(records, loaded):
        np.testing.assert_allclose(back.values, original.values, atol=1e-7)
        assert back.normalized


def test_empty_file_is_valid(tmp_path):
    path = tmp_path / "empty.f4e"
    write_embedding_file([], path)
    assert load_embedding_file(path) == []


def test_double_write_is_byte_identical(tmp_path):
    records = random_records(10, 16, seed=2)
    p1, p2 = tmp_path / "a.f4e", tmp_path / "b.f4e"
    write_embedding_file(records, p1)
    write_embedding_file(records, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_mixed_dims_rejected(tmp_path):
    records = [("a", unit([1.0] * 4 + [0.0] * 4)), ("b", unit([1.0] * 8 + [0.0] * 8))]
    with pytest.raises(MixedDimsError):
        write_embedding_file(records, tmp_path / "bad.f4e")


def test_duplicate_ids_rejected_on_write(tmp_path):
    records = [("a", unit([1.0, 0.0])), ("a", unit([0.0, 1.0]))]
    with pytest.raises(DuplicateIdError):
        write_embedding_file(records, tmp_path / "bad.f4e")


def test_duplicate_ids_rejected_on_load(tmp_path):
    # Hand-build a file whose two records share an id.
    header = struct.pack("<4sHIQ", F4E_MAGIC, 1, 2, 2)
    record = struct.pack("<H", 1) + b"a" + np.array([1.0, 0.0], "<f4").tobytes()
    path = tmp_path / "dup.f4e"
    path.write_bytes(header + record + record)
    with pytest.raises(DuplicateIdError):
        load_embedding_file(path)


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.f4e"
    write_embedding_file(random_records(2, 8), path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(BadMagicError):
        load_embedding_file(path)


def test_unsupported_version(tmp_path):
    path = tmp_path / "bad.f4e"
    write_embedding_file(random_records(2, 8), path)
    data = bytearray(path.read_bytes())
    struct.pack_into("<H", data, 4, 99)
    path.write_bytes(bytes(data))
    with pytest.raises(VersionUnsupportedError):
        load_embedding_file(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "short.f4e"
    write_embedding_file(random_records(3, 8), path)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(TruncatedFileError):
        load_embedding_file(path)


def test_overlong_id_rejected_on_write(tmp_path):
    with pytest.raises(ValueError, match="too long"):
        write_embedding_file([("x" * 0x10000, unit([1.0, 0.0]))], tmp_path / "bad.f4e")
    write_embedding_file([("x" * 0xFFFF, unit([1.0, 0.0]))], tmp_path / "ok.f4e")
    assert load_embedding_file(tmp_path / "ok.f4e")[0][0] == "x" * 0xFFFF


@pytest.mark.parametrize("values", [[1e39, 1.0], [-1.0, -1e39]])
def test_vector_beyond_float32_rejected_on_write(tmp_path, values):
    path = tmp_path / "big.f4e"
    records = [("a", unit([1.0, 0.0])), ("big", EmbeddingVector(values))]
    with pytest.raises(ValueError, match="'big'"):
        write_embedding_file(records, path)
    assert not path.exists()
    # The largest float32 still fits.
    write_embedding_file([("max", EmbeddingVector([np.finfo(np.float32).max, 1.0]))], path)
    assert [rid for rid, _ in load_embedding_file(path)] == ["max"]


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.f4e"
    write_embedding_file(random_records(3, 8), path)
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(TruncatedFileError):
        load_embedding_file(path)


def test_vectors_normalized_on_load(tmp_path):
    # Write a non-unit vector directly; the loader must normalize it.
    header = struct.pack("<4sHIQ", F4E_MAGIC, 1, 2, 1)
    record = struct.pack("<H", 1) + b"x" + np.array([3.0, 4.0], "<f4").tobytes()
    path = tmp_path / "raw.f4e"
    path.write_bytes(header + record)
    [(rid, vec)] = load_embedding_file(path)
    assert rid == "x"
    np.testing.assert_allclose(vec.values, [0.6, 0.8], atol=1e-7)


def test_every_prefix_truncated_and_every_bit_flip_domain_error(tmp_path):
    records = [("crème", unit(np.arange(1.0, 9.0)))] + random_records(2, 8, seed=3)
    path = tmp_path / "tiny.f4e"
    write_embedding_file(records, path)
    data = path.read_bytes()
    for end in range(len(data)):
        path.write_bytes(data[:end])
        with pytest.raises(TruncatedFileError):
            load_embedding_file(path)
    with np.errstate(invalid="ignore"):
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                load_embedding_file(path)
            except F4SearchError:
                pass


@pytest.mark.parametrize(
    "dim, record",
    [
        (2, struct.pack("<H", 2) + b"\xc3\x28" + np.array([1.0, 0.0], "<f4").tobytes()),
        (2, struct.pack("<H", 1) + b"x" + np.array([np.nan, 1.0], "<f4").tobytes()),
        (2, struct.pack("<H", 1) + b"x" + np.array([np.inf, 1.0], "<f4").tobytes()),
        (2, struct.pack("<H", 1) + b"x" + SIGNALLING_NAN_ROW.tobytes()),
        (0, struct.pack("<H", 1) + b"x"),
    ],
    ids=["invalid-utf8-id", "nan", "inf", "signalling-nan", "zero-dim"],
)
def test_corrupt_content_raises_corrupt_file_error(tmp_path, dim, record):
    path = tmp_path / "bad.f4e"
    path.write_bytes(struct.pack("<4sHIQ", F4E_MAGIC, 1, dim, 1) + record)
    with pytest.raises(CorruptFileError, match="bad.f4e"):
        load_embedding_file(path)


def reference_load(path):
    """The per-record loader that the block loader replaced, over the file's bytes: the spec of its errors."""
    reader = ByteReader(path)
    magic, version, dim, count = reader.unpack("<4sHIQ")
    if magic != b"F4EM":
        raise BadMagicError(f"{path}: expected magic {b'F4EM'!r}, got {magic!r}")
    if version != 1:
        raise VersionUnsupportedError(f"{path}: version {version}, expected 1")
    if count and not dim:
        raise reader.corrupt("embedding must be a non-empty 1-D vector")
    records = []
    seen = set()
    for _ in range(count):
        rid = reader.text("<H")
        raw = reader.floats(dim)
        if rid in seen:
            raise DuplicateIdError(f"{path}: duplicate record id {rid!r}")
        seen.add(rid)
        values = raw.astype(np.float64)
        if np.linalg.norm(values) <= ZERO_NORM_EPS:
            at = f"record {rid!r} before byte {reader.pos}"
            raise ZeroVectorError(f"{path}: {at}: cannot normalize a zero vector")
        records.append((rid, EmbeddingVector(_unit(values), normalized=True)))
    reader.end()
    return records


def outcome(load, path):
    """What ``load`` made of ``path``: the error's type and message, or every id and value bit."""
    try:
        records = load(path)
    except F4SearchError as exc:
        return type(exc), str(exc)
    return [(rid, vec.normalized, vec.values.tobytes()) for rid, vec in records]


def assert_loads_like_reference(path):
    expected = outcome(reference_load, path)
    assert outcome(load_embedding_file, path) == expected
    return expected


def f4e_bytes(ids, rows):
    """A hand-built F4E file: ``ids`` as raw bytes, ``rows`` as a float32 matrix."""
    rows = np.asarray(rows, "<f4")
    body = b"".join(struct.pack("<H", len(rid)) + rid + row.tobytes() for rid, row in zip(ids, rows))
    return struct.pack("<4sHIQ", F4E_MAGIC, 1, rows.shape[1], len(ids)) + body


def clean_records(n=8, dim=4):
    rng = np.random.default_rng(n)
    ids = [f"r{i}".encode() if i % 3 else f"é{i}".encode() for i in range(n)]
    return ids, rng.standard_normal((n, dim)).astype("<f4")


def spoil(kind, ids, rows, i):
    """Make record ``i`` bad in one way; a duplicate repeats the id of record ``i - 1``."""
    if kind == "nan":
        rows[i, 1] = np.nan
    elif kind == "inf":
        rows[i, -1] = -np.inf
    elif kind == "signalling-nan":
        rows.view("<u4")[i, 0] = 0x7F800001
    elif kind == "zero":
        rows[i] = 0.0
    elif kind == "tiny":  # a norm at or below ZERO_NORM_EPS
        rows[i] = 1e-13
    elif kind == "duplicate":
        ids[i] = ids[i - 1]
    elif kind == "invalid-utf8":
        ids[i] = b"\xc3\x28"


ROW_FAULTS = ["nan", "inf", "signalling-nan", "zero", "tiny"]
ID_FAULTS = ["duplicate", "invalid-utf8"]
EXPECTED_ERROR = {
    "nan": CorruptFileError,
    "inf": CorruptFileError,
    "signalling-nan": CorruptFileError,
    "zero": ZeroVectorError,
    "tiny": ZeroVectorError,
    "duplicate": DuplicateIdError,
    "invalid-utf8": CorruptFileError,
}


def test_every_truncation_and_bit_flip_fails_like_the_reference(tmp_path):
    ids, rows = clean_records(n=5, dim=3)
    data = f4e_bytes(ids, rows)
    path = tmp_path / "flip.f4e"
    for end in range(len(data)):
        path.write_bytes(data[:end])
        assert assert_loads_like_reference(path)[0] is TruncatedFileError
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        assert_loads_like_reference(path)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("kind", ROW_FAULTS + ID_FAULTS)
def test_one_bad_record_fails_like_the_reference(tmp_path, kind, where):
    ids, rows = clean_records()
    # Record 0 has no earlier id to repeat, so a duplicate comes first at record 1.
    i = {"first": int(kind == "duplicate"), "middle": len(ids) // 2, "last": len(ids) - 1}[where]
    spoil(kind, ids, rows, i)
    path = tmp_path / "bad.f4e"
    path.write_bytes(f4e_bytes(ids, rows))
    error, message = assert_loads_like_reference(path)
    assert error is EXPECTED_ERROR[kind]
    end = len(f4e_bytes(ids[: i + 1], rows[: i + 1]))
    if error is CorruptFileError and kind != "invalid-utf8":
        assert message.endswith(f"bad content before byte {end}: non-finite float")
    if error is ZeroVectorError:
        rid = ids[i].decode()
        assert message == f"{path}: record {rid!r} before byte {end}: cannot normalize a zero vector"


@pytest.mark.parametrize("first, second", [
    (a, b) for a in ROW_FAULTS + ID_FAULTS for b in ROW_FAULTS + ID_FAULTS if a != b
])
def test_the_first_of_two_bad_records_decides(tmp_path, first, second):
    for i, j in ((2, 5), (5, 2)):
        ids, rows = clean_records()
        spoil(first, ids, rows, i)
        spoil(second, ids, rows, j)
        path = tmp_path / "two.f4e"
        path.write_bytes(f4e_bytes(ids, rows))
        error, _ = assert_loads_like_reference(path)
        assert error is EXPECTED_ERROR[first if i < j else second]


@pytest.mark.parametrize("row_fault", ROW_FAULTS)
@pytest.mark.parametrize("id_fault", ID_FAULTS)
def test_two_faults_in_one_record_keep_the_check_order(tmp_path, row_fault, id_fault):
    ids, rows = clean_records()
    spoil(row_fault, ids, rows, 4)
    spoil(id_fault, ids, rows, 4)
    data = f4e_bytes(ids, rows)
    path = tmp_path / "both.f4e"
    path.write_bytes(data)
    assert_loads_like_reference(path)
    # A short or long file whose earlier record is bad reports that record, not its length.
    for spoiled in [data[:end] for end in range(len(data) - 30, len(data))] + [data + b"x"]:
        path.write_bytes(spoiled)
        assert_loads_like_reference(path)


@pytest.mark.parametrize(
    "offset, fmt, value, rows, message",
    [
        # The one record is zero: it is named ahead of the missing next record.
        (10, "<Q", 2**64 - 1, np.zeros((1, 4)), "record 'a' before byte 37: cannot normalize a zero vector"),
        (6, "<I", 2**32 - 1, np.ones((1, 4)), "17179869180 bytes needed at byte 21, too few left"),
    ],
    ids=["count", "dim"],
)
def test_extreme_fields_fail_fast(tmp_path, offset, fmt, value, rows, message):
    data = bytearray(f4e_bytes([b"a"], rows))
    struct.pack_into(fmt, data, offset, value)
    path = tmp_path / "extreme.f4e"
    path.write_bytes(data)
    start = time.perf_counter()
    _, got = assert_loads_like_reference(path)
    assert time.perf_counter() - start < 1
    assert got == f"{path}: {message}"


def test_load_builds_no_checked_vectors(tmp_path, monkeypatch):
    ids, rows = clean_records(n=50, dim=7)
    rows *= np.logspace(-5, 30, 50, dtype=np.float32)[:, None]
    path = tmp_path / "trusted.f4e"
    path.write_bytes(f4e_bytes(ids, rows))

    def refuse(values):
        raise AssertionError("the loader checked a vector again")

    monkeypatch.setattr(vectors, "_checked", refuse)
    records = load_embedding_file(path)
    assert [rid.encode() for rid, _ in records] == ids
    for (_, vec), raw in zip(records, rows):
        values = vec.values
        assert values.dtype == np.float64 and values.shape == (7,)
        assert values.flags.c_contiguous and not values.flags.writeable
        assert vec.normalized
        assert values.tobytes() == _unit(raw.astype(np.float64)).tobytes()
