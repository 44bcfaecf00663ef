"""Writers replace their file whole: a write that fails midway keeps the old file."""

import signal
from contextlib import contextmanager

import pytest

from f4search import (
    EvalReport,
    SweepResult,
    SyntheticCorpusConfig,
    build_index,
    encode_text_synthetic,
    generate_corpus,
    ingest_captions,
    save_index,
    write_embedding_file,
    write_report,
    write_sweep,
)
from f4search.evaluate import QueryOutcome

resource = pytest.importorskip("resource")


@contextmanager
def file_size_limit(nbytes):
    """Make writes past ``nbytes`` of any file fail with EFBIG, like a full disk."""
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (nbytes, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)


def report(n):
    outcomes = tuple(
        QueryOutcome(f"q{j}", 1, j + 1, 1.0 / (j + 1), int(j == 0), 1) for j in range(n)
    )
    return EvalReport("c", {}, 1.0 / n, 1.0, 0.5, outcomes)


def index(corpus42, name):
    return build_index(ingest_captions(corpus42.root / f"captions_{name}.jsonl"), corpus42.encoder)


def vectors(n, spec):
    return [(f"v{j}", encode_text_synthetic(f"dish {j}", spec)) for j in range(n)]


# Each writer with an old and a larger new content for its one file.
WRITERS = {
    "save_index": lambda c, path, new: save_index(index(c, "dense" if new else "items"), path),
    "write_embedding_file": lambda c, path, new: write_embedding_file(
        vectors(400 if new else 20, c.encoder), path
    ),
    "write_report": lambda c, path, new: write_report(report(300 if new else 3), path),
    "write_sweep": lambda c, path, new: write_sweep(
        SweepResult(tuple(range(500 if new else 5)), (0.5,) * (500 if new else 5), "m"), path
    ),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_old_file(tmp_path, corpus42, writer):
    write = WRITERS[writer]
    (tmp_path / "ref").mkdir()
    write(corpus42, tmp_path / "ref" / "f", True)
    new = (tmp_path / "ref" / "f").read_bytes()
    path = tmp_path / "out" / "f"
    path.parent.mkdir()
    write(corpus42, path, False)
    old = path.read_bytes()
    assert len(new) > 2 * len(old)

    with pytest.raises(OSError), file_size_limit(len(new) // 2):
        write(corpus42, path, True)
    assert path.read_bytes() == old
    assert [p.name for p in path.parent.iterdir()] == ["f"]

    for _ in range(2):
        write(corpus42, path, True)
        assert path.read_bytes() == new
    assert [p.name for p in path.parent.iterdir()] == ["f"]


def test_failed_generation_keeps_each_file_whole(tmp_path):
    small = SyntheticCorpusConfig(vocab_size=60, num_captions=40, dim=16, seed=1)
    large = SyntheticCorpusConfig(vocab_size=60, num_captions=300, dim=16, seed=2)
    generate_corpus(small, tmp_path / "old")
    generate_corpus(large, tmp_path / "new")
    generate_corpus(small, tmp_path / "out")
    names = sorted(p.name for p in (tmp_path / "old").iterdir())
    largest = max((tmp_path / "new" / n).stat().st_size for n in names)

    with pytest.raises(OSError), file_size_limit(largest // 2):
        generate_corpus(large, tmp_path / "out")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == names
    got = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    assert all(got[n] in ((tmp_path / d / n).read_bytes() for d in ("old", "new")) for n in names)
    assert any(got[n] == (tmp_path / "old" / n).read_bytes() for n in names)
