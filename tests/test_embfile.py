import struct

import numpy as np
import pytest

from f4search.embfile import F4E_MAGIC, load_embedding_file, write_embedding_file
from f4search.errors import (
    BadMagicError,
    CorruptFileError,
    DuplicateIdError,
    F4SearchError,
    MixedDimsError,
    TruncatedFileError,
    VersionUnsupportedError,
)

from conftest import SIGNALLING_NAN_ROW, unit


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
    "record",
    [
        struct.pack("<H", 2) + b"\xc3\x28" + np.array([1.0, 0.0], "<f4").tobytes(),
        struct.pack("<H", 1) + b"x" + np.array([np.nan, 1.0], "<f4").tobytes(),
        struct.pack("<H", 1) + b"x" + np.array([np.inf, 1.0], "<f4").tobytes(),
        struct.pack("<H", 1) + b"x" + SIGNALLING_NAN_ROW.tobytes(),
    ],
    ids=["invalid-utf8-id", "nan", "inf", "signalling-nan"],
)
def test_corrupt_content_raises_corrupt_file_error(tmp_path, record):
    path = tmp_path / "bad.f4e"
    path.write_bytes(struct.pack("<4sHIQ", F4E_MAGIC, 1, 2, 1) + record)
    with pytest.raises(CorruptFileError, match="bad.f4e"):
        load_embedding_file(path)
