"""Shared fixtures: tiny hand-built indexes, a generated corpus, the
constructed ingredient-retrieval fixture used by re-ranking tests, and a
counting embedding service."""

import http.server
import json
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from f4search import (
    Caption,
    CaptionIndex,
    EmbeddingVector,
    EncoderSpec,
    QueryBundle,
    build_index,
    build_index_from_records,
    encode_text_synthetic,
    generate_corpus,
    ingest_captions,
    l2_normalize,
    load_bundles,
)
from f4search.errors import ZeroVectorError
from f4search.synthetic import SyntheticCorpusConfig


# A float32 signalling NaN (bits 0x7F800001) followed by 1.0.
SIGNALLING_NAN_ROW = np.array([0x7F800001, 0x3F800000], "<u4").view("<f4")


def unit(values) -> EmbeddingVector:
    return l2_normalize(EmbeddingVector(np.asarray(values, dtype=np.float64)))


def unit_reference(values):
    """One row over its norm, as the one-row ``_unit`` made it: the spec of the block ``_unit``'s bits and errors."""
    norm = float(np.linalg.norm(values))
    if norm <= 1e-12:
        raise ZeroVectorError("cannot normalize a zero vector")
    if not math.isfinite(norm):
        raise ValueError("cannot normalize a vector whose L2 norm overflows float64")
    return values / norm


@pytest.fixture
def synthetic_spec() -> EncoderSpec:
    return EncoderSpec("synthetic", 32, seed=7)


@pytest.fixture
def make_index():
    """Factory: build a CaptionIndex from {id: vector} rows (unit-normalized)."""

    def build(rows: dict, kind: str = "dense") -> CaptionIndex:
        captions = [Caption(cid, f"caption {cid}", kind) for cid in rows]
        records = [(cid, unit(vec)) for cid, vec in rows.items()]
        return build_index_from_records(captions, records)

    return build


@dataclass
class Corpus:
    root: Path
    manifest: dict
    encoder: EncoderSpec
    dense_index: object
    sparse_index: object
    items_index: object
    bundles: list
    bundles_items: list


@pytest.fixture(scope="session")
def corpus42(tmp_path_factory) -> Corpus:
    """The default seed-42 synthetic corpus, generated once per session."""
    root = tmp_path_factory.mktemp("corpus42")
    manifest = generate_corpus(SyntheticCorpusConfig(), root)
    encoder = EncoderSpec.from_fingerprint(manifest["encoder_fingerprint"])
    dense_index = build_index(ingest_captions(root / "captions_dense.jsonl"), encoder)
    sparse_index = build_index(ingest_captions(root / "captions_sparse.jsonl"), encoder)
    items_index = build_index(ingest_captions(root / "captions_items.jsonl"), encoder)
    bundles = load_bundles(root / "bundles.jsonl", root / "images.f4e")
    bundles_items = load_bundles(root / "bundles_items.jsonl", root / "images.f4e")
    return Corpus(
        root, manifest, encoder, dense_index, sparse_index, items_index,
        bundles, bundles_items,
    )


@dataclass
class RerankFixture:
    index: object
    bundles: list
    encoder: EncoderSpec


@pytest.fixture(scope="session")
def rerank_fixture() -> RerankFixture:
    """200 single-ingredient captions and 100 queries whose image embeddings
    sit near token-disjoint distractors, so stage-1 fused retrieval favours
    the wrong captions and item-level re-ranking has to recover."""
    dim, seed = 64, 5
    spec = EncoderSpec("synthetic", dim, seed=seed)
    words = [f"item{j:03d}" for j in range(200)]
    captions = [Caption(f"i{j:03d}", words[j], "sparse") for j in range(200)]
    index = build_index(captions, spec)
    word_vec = {w: encode_text_synthetic(w, spec).values for w in words}

    rng = np.random.default_rng(seed)
    bundles = []
    for q in range(100):
        pick = rng.choice(200, size=10, replace=False)
        gt_words = [words[j] for j in pick[:4]]
        distractor_words = [words[j] for j in pick[4:]]
        raw = (
            sum(word_vec[w] for w in distractor_words) / len(distractor_words)
            + 0.4 * sum(word_vec[w] for w in gt_words) / len(gt_words)
            + 0.1 * rng.standard_normal(dim)
        )
        bundles.append(
            QueryBundle(
                image_id=f"q{q:03d}",
                e_img=unit(raw),
                sparse_pred_text=", ".join(gt_words),
                gt_caption_ids=tuple(f"i{j:03d}" for j in pick[:4]),
            )
        )
    return RerankFixture(index, bundles, spec)


class _EmbedHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        texts = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["texts"]
        spec = self.server.stub.spec
        vectors = [encode_text_synthetic(t, spec).values.tolist() for t in texts]
        data = json.dumps({"dim": spec.dim, "vectors": vectors}).encode()
        # Counted before replying: the client reads the counts once answered.
        self.server.stub.requests += 1
        self.server.stub.texts += len(texts)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class EmbedStub:
    """A 127.0.0.1 embedding service answering the vectors of synthetic ``spec``.

    It counts the requests and texts it has served; ``remote`` is the
    remote encoder spec that calls it.
    """

    def __init__(self, spec: EncoderSpec):
        self.spec = spec
        self.requests = self.texts = 0
        self._server = http.server.HTTPServer(("127.0.0.1", 0), _EmbedHandler)
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.05,))
        self._thread.start()
        self.remote = EncoderSpec(
            "remote", spec.dim, endpoint=f"http://127.0.0.1:{self._server.server_address[1]}"
        )

    def close(self):
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive(), "embedding stub did not stop"


@pytest.fixture
def embed_stub(synthetic_spec):
    """A counting embedding service for ``synthetic_spec``, stopped after the test."""
    stub = EmbedStub(synthetic_spec)
    yield stub
    stub.close()
