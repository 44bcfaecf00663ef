"""The four benchmark workloads: inputs, set-up, closed-loop calls, checks and replay.

Every workload is driven by one caller that waits for each result. It
talks to ``f4search`` only through public functions:

* ``__init__`` makes the inputs from the seed (not timed);
* ``setup`` makes the calls that generate, ingest, build, save or load the
  index and bundles (timed as ``setup_s``);
* ``ops`` are the calls of the timed phase, run one after another;
* ``quality`` and ``check`` read the outputs of the first pass over the
  ops, outside the timed phase;
* ``replay`` drives the queries of one op again one layer at a time
  (encode, fuse, search, rerank, metrics), for the traced run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from f4search import (
    DEFAULT_INDEX_WEIGHTS,
    Caption,
    EmbeddingVector,
    EncoderSpec,
    EvalConfig,
    FusionWeights,
    QueryBundle,
    RankedList,
    average_precision,
    build_index,
    build_index_from_records,
    encode_image_synthetic,
    encode_remote,
    encode_text_synthetic,
    encode_texts,
    evaluate_corpus,
    fuse,
    generate_corpus,
    ingest_captions,
    load_bundles,
    load_embedding_file,
    load_index,
    parse_items,
    recall_at_k,
    rerank,
    save_index,
    search_bidirectional,
    search_fused_topk,
    search_topk,
    search_topk_naive,
    sweep_fusion_weight,
    write_embedding_file,
)
from f4search.evaluate import render_report
from f4search.rerank import default_pool_size
from f4search.synthetic import SyntheticCorpusConfig

from stub import StubService

# The encoder is the fixed model; the workload seed draws the data.
ENCODER_SEED = 0
FUSED = FusionWeights(0.7, 0.3)
IMAGE_ONLY = FusionWeights(1.0, 0.0)
SWEEP_GRID = tuple(i / 10 for i in range(11))
# Tolerance of the bidirectional score check (acceptance criterion 8).
BIDIR_TOL = 1e-6
# The optimized scan reduces each row with einsum and the naive oracle with
# np.dot, so their float64 scores may differ in the last bit (~1e-16).
# Ids must match exactly; the report digests catch any change of score bits.
ORACLE_TOL = 1e-12

TEMPLATES = (
    "a plate of {}",
    "hearty bowl of {} served warm",
    "rustic platter with {} on top",
    "fresh serving of {} with garnish",
)


@dataclass
class Op:
    """One closed-loop call: ``queries`` evaluations under span ``top``."""

    top: str
    queries: int
    run: Callable[[], object]


@dataclass
class LayerCounts:
    """Exact counts taken while the traced run replays queries."""

    texts: list[str] = field(default_factory=list)
    search_calls: int = 0
    rows_scanned: int = 0
    rerank_candidates: int = 0
    rerank_items: int = 0


@dataclass(frozen=True)
class DenseSize:
    captions: int
    vocab: int
    dim: int
    block: int
    quality_blocks: int
    trace_blocks: int
    sample: int


@dataclass(frozen=True)
class LargeSize:
    rows: int
    dim: int
    queries: int
    trace_queries: int
    sample: int


@dataclass(frozen=True)
class SweepSize:
    vocab: int
    captions: int
    block: int
    quality_blocks: int
    trace_blocks: int
    sample: int


def _blocks(items: list, size: int) -> list[list]:
    return [items[i : i + size] for i in range(0, len(items), size)]


def _sha256(chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _gt_rank(ranked: RankedList, gt) -> int | None:
    gt = set(gt)
    return next((r for r, cid in enumerate(ranked.ids, start=1) if cid in gt), None)


def _write_jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


@dataclass
class DenseCorpus:
    """Dishes of random ingredient words: captions, prediction texts, images."""

    # Low enough that recall@1 is high, so it varies little from seed to seed.
    IMAGE_NOISE = 0.15

    captions: list[Caption]
    bundle_rows: list[dict]
    images: list[tuple[str, EmbeddingVector]]

    @classmethod
    def generate(cls, seed: int, n: int, vocab: int, spec: EncoderSpec) -> "DenseCorpus":
        rng = np.random.default_rng(seed)
        words = [f"w{j:04d}" for j in range(vocab)]
        captions, rows, images = [], [], []
        for i in range(n):
            picks = rng.choice(vocab, size=int(rng.integers(3, 7)), replace=False)
            items = [words[j] for j in picks]
            kept = [w for w in items if rng.random() >= 0.45] or items[:1]
            text = TEMPLATES[int(rng.integers(len(TEMPLATES)))].format(", ".join(items))
            pred = TEMPLATES[int(rng.integers(len(TEMPLATES)))].format(", ".join(kept))
            cid = f"d{i:05d}"
            captions.append(Caption(cid, text, "dense"))
            rows.append({"image_id": cid, "dense_pred_text": pred, "gt_caption_ids": [cid]})
            noise_seed = int(rng.integers(2**63))
            images.append((cid, encode_image_synthetic(text, cls.IMAGE_NOISE, spec, noise_seed)))
        return cls(captions, rows, images)


class Workload:
    """Shared driver logic; subclasses fill in the workload-specific parts."""

    name = ""
    file_bytes_per_row = 0.0
    first_pass = 0
    trace_ops = 0
    # Consecutive ops that together make one round of the workload's mix;
    # throughput is the median over rounds.
    round_ops = 1
    # The calibration kernel (calib.py) whose slowdown tracks the ops'.
    calibration = "python"

    def close(self) -> None:
        pass

    def setup(self, tr) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def quality(self, results: list) -> dict:
        """recall_at_1, mean_ap and report digests from the first pass."""
        raise NotImplementedError

    def check(self, results: list, tr) -> tuple[int, list[str]]:
        """Compare sampled outputs against references; (checked, failures)."""
        raise NotImplementedError

    def replay(self, i: int, tr, counts: LayerCounts) -> None:
        raise NotImplementedError

    def run_traced(self, i: int, op: Op, tr, counts: LayerCounts) -> None:
        with tr.span(op.top):
            op.run()
        with tr.span("replay"):
            self.replay(i, tr, counts)

    def remote_layer(self) -> dict:
        return {}

    # Layer calls shared by the replays; each mirrors one step that the
    # top-level call makes inside the program.
    def _encode(self, tr, counts, text, spec, qid):
        counts.texts.append(text)
        if spec.kind == "remote":
            with tr.span("remote.encode_remote", qid):
                return encode_remote([text], spec)[0]
        with tr.span("encoders.encode_texts", qid):
            return encode_texts([text], spec)[0]

    def _fuse(self, tr, e_img, e_text, w, qid):
        with tr.span("vectors.fuse", qid):
            return fuse(e_img, e_text, w)

    def _search(self, tr, counts, q, index, k, qid):
        counts.search_calls += 1
        counts.rows_scanned += len(index)
        name = "search.full_rank" if k >= len(index) else "search.topk"
        with tr.span(name, qid):
            return search_topk(q, index, k)

    def _oracle_equal(self, tr, q, index, k, got: RankedList) -> bool:
        with tr.span("search.oracle"):
            ref = search_topk_naive(q, index, k)
        drift = np.abs(np.array(ref.scores) - np.array(got.scores))
        return ref.ids == got.ids and float(drift.max()) <= ORACLE_TOL


class EvalDense(Workload):
    """Evaluation at k=len(index): full ranking in three modes on corpus M."""

    name = "eval-dense"
    MODES = {
        "image_only": dict(weights=IMAGE_ONLY),
        "fused": dict(weights=FUSED),
        "bidir": dict(weights=FUSED, bidirectional=True),
    }

    def __init__(self, seed: int, size: DenseSize, workdir: Path):
        self.size = size
        self.spec = EncoderSpec("synthetic", size.dim, seed=ENCODER_SEED)
        corpus = DenseCorpus.generate(seed, size.captions, size.vocab, self.spec)
        self.dir = workdir
        self.caption_records = [(c.id, encode_text_synthetic(c.text, self.spec)) for c in corpus.captions]
        self.image_records = corpus.images
        _write_jsonl(workdir / "captions.jsonl", [dataclasses.asdict(c) for c in corpus.captions])
        _write_jsonl(workdir / "bundles.jsonl", corpus.bundle_rows)
        self.configs = {m: EvalConfig(encoder=self.spec, **kw) for m, kw in self.MODES.items()}
        self.round_ops = len(self.MODES)
        self.first_pass = size.quality_blocks * self.round_ops
        self.trace_ops = size.trace_blocks * self.round_ops

    def setup(self, tr) -> None:
        d = self.dir
        self.index = self.bundles = None
        with tr.span("embfile.write"):
            write_embedding_file(self.caption_records, d / "captions.f4e")
        with tr.span("embfile.write"):
            write_embedding_file(self.image_records, d / "images.f4e")
        with tr.span("index.ingest"):
            captions = ingest_captions(d / "captions.jsonl")
        with tr.span("embfile.load"):
            records = load_embedding_file(d / "captions.f4e")
        with tr.span("index.build"):
            self.index = build_index_from_records(captions, records, self.spec.fingerprint())
        with tr.span("evaluate.load_bundles"):
            self.bundles = load_bundles(d / "bundles.jsonl", d / "images.f4e")
        self.blocks = _blocks(self.bundles, self.size.block)

    def ops(self) -> list[Op]:
        return [
            Op(f"evaluate.{mode}", len(block),
               lambda block=block, cfg=cfg: evaluate_corpus(block, self.index, cfg, self.name))
            for block in self.blocks
            for mode, cfg in self.configs.items()
        ]

    def _reports(self, results, mode):
        modes = list(self.MODES)
        return [r for i, r in enumerate(results) if modes[i % len(modes)] == mode]

    def quality(self, results) -> dict:
        fused = [o for rep in self._reports(results, "fused") for o in rep.per_query]
        return {
            "recall_at_1": sum(o.hit_at_1 for o in fused) / len(fused),
            "mean_ap": sum(1.0 / o.gt_rank for o in fused) / len(fused),
            "sha256": {
                mode: _sha256(render_report(r).encode() for r in self._reports(results, mode))
                for mode in self.MODES
            },
        }

    def check(self, results, tr):
        failures = []
        outcomes = {
            mode: {o.image_id: o for rep in self._reports(results, mode) for o in rep.per_query}
            for mode in self.MODES
        }
        n = len(self.index)
        rows64 = self.index.embeddings.astype(np.float64)
        sample = self.blocks[0][: self.size.sample]
        for b in sample:
            e_text = encode_texts([b.dense_pred_text], self.spec)[0]
            fused_q = fuse(b.e_img, e_text, FUSED)
            for mode, q in (("image_only", b.e_img), ("fused", fused_q)):
                got = search_topk(q, self.index, n)
                if not self._oracle_equal(tr, q, self.index, n, got):
                    failures.append(f"{mode} {b.image_id}: ranking differs from search_topk_naive")
                if outcomes[mode][b.image_id].gt_rank != _gt_rank(got, b.gt_caption_ids):
                    failures.append(f"{mode} {b.image_id}: evaluated gt_rank differs from the ranking")
            ranked = search_bidirectional(b, self.index, FUSED, DEFAULT_INDEX_WEIGHTS, "dense", self.spec)
            wi, wt = DEFAULT_INDEX_WEIGHTS.w_img, DEFAULT_INDEX_WEIGHTS.w_text
            fused_rows = wi * b.e_img.values[None, :] + wt * rows64
            ref = fused_rows @ fused_q.values / (
                np.linalg.norm(fused_rows, axis=1) * np.linalg.norm(fused_q.values)
            )
            rows = [self.index.row_of(cid) for cid in ranked.ids]
            if len(rows) != n or np.max(np.abs(ref[rows] - np.array(ranked.scores))) > BIDIR_TOL:
                failures.append(f"bidir {b.image_id}: scores differ from float64 recomputation")
            if outcomes["bidir"][b.image_id].gt_rank != _gt_rank(ranked, b.gt_caption_ids):
                failures.append(f"bidir {b.image_id}: evaluated gt_rank differs from the ranking")
        return 3 * len(sample), failures

    def replay(self, i, tr, counts) -> None:
        mode = list(self.MODES)[i % len(self.MODES)]
        block = self.blocks[i // len(self.MODES)]
        n = len(self.index)
        for b in block:
            qid = f"{mode}/{b.image_id}"
            with tr.span("query", qid):
                if mode == "image_only":
                    ranked = self._search(tr, counts, b.e_img, self.index, n, qid)
                elif mode == "fused":
                    e_text = self._encode(tr, counts, b.dense_pred_text, self.spec, qid)
                    q = self._fuse(tr, b.e_img, e_text, FUSED, qid)
                    ranked = self._search(tr, counts, q, self.index, n, qid)
                else:
                    counts.search_calls += 1
                    counts.rows_scanned += n
                    counts.texts.append(b.dense_pred_text)
                    with tr.span("search.bidir", qid):
                        ranked = search_bidirectional(
                            b, self.index, FUSED, DEFAULT_INDEX_WEIGHTS, "dense", self.spec
                        )
                with tr.span("evaluate.metrics", qid):
                    recall_at_k(ranked, b.gt_caption_ids, 1)
                    recall_at_k(ranked, b.gt_caption_ids, 5)


class SearchLarge(Workload):
    """Top-10 fused search over 50k rows at dim 256, loaded from a ~51 MB F4I file."""

    name = "search-large"
    K = 10
    round_ops = 20
    calibration = "scan"
    # Image embeddings are noisy views of their target row: with the random
    # text term this keeps recall@1 high but below one.
    IMAGE_NOISE = 2.5

    def __init__(self, seed: int, size: LargeSize, workdir: Path):
        self.size = size
        self.path = workdir / "large.f4i"
        self.spec = EncoderSpec("synthetic", size.dim, seed=ENCODER_SEED)
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((size.rows, size.dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        self.captions = [Caption(f"c{j:06d}", f"caption {j}", "dense") for j in range(size.rows)]
        self.records = [(c.id, EmbeddingVector(rows[j], normalized=True)) for j, c in enumerate(self.captions)]
        words = [f"w{j:04d}" for j in range(1000)]
        self.queries = []
        for i in range(size.queries):
            target = int(rng.integers(size.rows))
            noise = rng.standard_normal(size.dim)
            img = rows[target] + self.IMAGE_NOISE * noise / np.linalg.norm(noise)
            text = " ".join(words[j] for j in rng.choice(len(words), size=4, replace=False))
            self.queries.append(
                QueryBundle(
                    image_id=f"q{i:05d}",
                    e_img=EmbeddingVector(img / np.linalg.norm(img), normalized=True),
                    dense_pred_text=text,
                    gt_caption_ids=(self.captions[target].id,),
                )
            )
        self.first_pass = size.queries
        self.trace_ops = size.trace_queries

    def setup(self, tr) -> None:
        self.index = None
        with tr.span("index.build"):
            built = build_index_from_records(self.captions, self.records, self.spec.fingerprint())
        with tr.span("index.save"):
            save_index(built, self.path)
        del built
        with tr.span("index.load"):
            self.index = load_index(self.path)
        self.file_bytes_per_row = os.path.getsize(self.path) / len(self.index)

    def ops(self) -> list[Op]:
        return [
            Op("search.fused_topk", 1,
               lambda b=b: search_fused_topk(b, self.index, FUSED, "dense", self.spec, k=self.K))
            for b in self.queries
        ]

    def quality(self, results) -> dict:
        pairs = list(zip(self.queries, results))
        return {
            "recall_at_1": sum(recall_at_k(r, b.gt_caption_ids, 1) for b, r in pairs) / len(pairs),
            "mean_ap": sum(average_precision(r, b.gt_caption_ids, self.K) for b, r in pairs) / len(pairs),
            "sha256": {"results": _sha256(
                json.dumps(r.ids).encode() + np.array(r.scores).tobytes() for r in results
            )},
        }

    def check(self, results, tr):
        failures = []
        sample = self.queries[: self.size.sample]
        for b, got in zip(sample, results):
            q = fuse(b.e_img, encode_texts([b.dense_pred_text], self.spec)[0], FUSED)
            if not self._oracle_equal(tr, q, self.index, self.K, got):
                failures.append(f"{b.image_id}: top-{self.K} differs from search_topk_naive")
        return len(sample), failures

    def replay(self, i, tr, counts) -> None:
        b = self.queries[i]
        qid = b.image_id
        with tr.span("query", qid):
            e_text = self._encode(tr, counts, b.dense_pred_text, self.spec, qid)
            q = self._fuse(tr, b.e_img, e_text, FUSED, qid)
            self._search(tr, counts, q, self.index, self.K, qid)


class SweepRerank(Workload):
    """Fusion-weight sweep with ingredient re-rank on the items index."""

    name = "sweep-rerank"
    round_ops = 4

    def __init__(self, seed: int, size: SweepSize, workdir: Path):
        self.size = size
        self.dir = workdir / "corpus"
        self.corpus = SyntheticCorpusConfig(vocab_size=size.vocab, num_captions=size.captions, seed=seed)
        self.spec = EncoderSpec("synthetic", self.corpus.dim, seed=seed)
        self.config = EvalConfig(encoder=self.spec, rerank=True, text_source="sparse", workers=2)
        self.first_pass = size.quality_blocks
        self.trace_ops = size.trace_blocks

    def setup(self, tr) -> None:
        self.index = self.bundles = None
        with tr.span("synthetic.generate_corpus"):
            generate_corpus(self.corpus, self.dir)
        with tr.span("index.ingest"):
            items = ingest_captions(self.dir / "captions_items.jsonl")
        with tr.span("index.build"):
            self.index = build_index(items, self.spec)
        with tr.span("evaluate.load_bundles"):
            self.bundles = load_bundles(self.dir / "bundles_items.jsonl", self.dir / "images.f4e")
        self.blocks = _blocks(self.bundles, self.size.block)

    def ops(self) -> list[Op]:
        return [
            Op("evaluate.sweep", len(block) * len(SWEEP_GRID),
               lambda block=block: sweep_fusion_weight(block, self.index, SWEEP_GRID, self.config, "mean_ap"))
            for block in self.blocks
        ]

    def _image_only(self, n_blocks: int) -> list:
        config = dataclasses.replace(self.config, weights=IMAGE_ONLY)
        return [evaluate_corpus(block, self.index, config, self.name) for block in self.blocks[:n_blocks]]

    def quality(self, results) -> dict:
        # Blocks of the first pass are the same size, so the mean of block
        # means is the mean over all their bundles.
        per_grid = np.mean([r.values for r in results], axis=0)
        self.reports = self._image_only(len(results))
        return {
            "recall_at_1": sum(r.recall_at_1 for r in self.reports) / len(self.reports),
            "mean_ap": float(per_grid.max()),
            "sha256": {
                "image_only": _sha256(render_report(r).encode() for r in self.reports),
                "sweep": _sha256(repr(r.values).encode() for r in results),
            },
        }

    def check(self, results, tr):
        failures = [
            f"block {j}: sweep at w_text=0 gives {sweep.values[0]!r}, image-only gives {rep.mean_ap!r}"
            for j, (sweep, rep) in enumerate(zip(results, self.reports))
            if sweep.values[0] != rep.mean_ap
        ]
        sample = self.blocks[0][: self.size.sample]
        w = FusionWeights(0.5, 0.5)
        for b in sample:
            k_out = max(5, len(b.gt_caption_ids))
            n_pool = max(default_pool_size(k_out), k_out)
            q = fuse(b.e_img, encode_texts([b.sparse_pred_text], self.spec)[0], w)
            got = search_topk(q, self.index, n_pool)
            if not self._oracle_equal(tr, q, self.index, n_pool, got):
                failures.append(f"{b.image_id}: candidate pool differs from search_topk_naive")
        return len(results) + len(sample), failures

    def replay(self, i, tr, counts) -> None:
        for g in SWEEP_GRID:
            w = FusionWeights(1.0 - g, g)
            for b in self.blocks[i]:
                qid = f"{g}/{b.image_id}"
                with tr.span("query", qid):
                    self._replay_one(tr, counts, b, w, qid)

    def _replay_one(self, tr, counts, b, w, qid) -> None:
        k_q = len(b.gt_caption_ids)
        k_out = max(5, k_q)
        n_pool = max(default_pool_size(k_out), k_out)
        q = b.e_img
        if w.w_text != 0.0:
            e_text = self._encode(tr, counts, b.sparse_pred_text, self.spec, qid)
            q = self._fuse(tr, b.e_img, e_text, w, qid)
        initial = self._search(tr, counts, q, self.index, n_pool, qid)
        with tr.span("rerank.parse_items", qid):
            items = parse_items(b.sparse_pred_text)
        counts.rerank_candidates += len(initial.entries)
        counts.rerank_items += len(items.phrases)
        counts.texts.extend(items.phrases)
        with tr.span("rerank.rerank", qid):
            reordered = rerank(initial, items, self.index, self.spec)
        k_eff = min(k_out, len(reordered.entries))
        ranked = RankedList(reordered.entries[:k_eff], k=k_eff, stage=reordered.stage)
        with tr.span("evaluate.metrics", qid):
            recall_at_k(ranked, b.gt_caption_ids, 1)
            recall_at_k(ranked, b.gt_caption_ids, 5)
            average_precision(ranked, b.gt_caption_ids, k_q)


class RemoteFused(Workload):
    """Fused evaluation whose text encoder is the HTTP client, against a local stub."""

    name = "remote-fused"
    round_ops = 4

    def __init__(self, seed: int, size: DenseSize, workdir: Path):
        self.size = size
        self.path = workdir / "remote.f4i"
        corpus = DenseCorpus.generate(
            seed, size.captions, size.vocab, EncoderSpec("synthetic", size.dim, seed=ENCODER_SEED)
        )
        self.captions = corpus.captions
        images = dict(corpus.images)
        bundles = [
            QueryBundle(r["image_id"], images[r["image_id"]], r["dense_pred_text"],
                        gt_caption_ids=tuple(r["gt_caption_ids"]))
            for r in corpus.bundle_rows
        ]
        self.blocks = _blocks(bundles, size.block)
        # The stub thread starts after run.py has pinned the process to one
        # CPU, so client and stub share it.
        self.stub = StubService(size.dim, ENCODER_SEED).__enter__()
        self.spec = EncoderSpec("remote", size.dim, endpoint=self.stub.endpoint)
        self.config = EvalConfig(encoder=self.spec, weights=FUSED)
        self.first_pass = size.quality_blocks
        self.trace_ops = size.trace_blocks
        self.top_counts: list = []
        self.replay_server_ns = 0

    def close(self) -> None:
        self.stub.__exit__(None, None, None)

    def setup(self, tr) -> None:
        self.index = None
        with tr.span("index.build"):
            built = build_index(self.captions, self.spec)
        with tr.span("index.save"):
            save_index(built, self.path)
        with tr.span("index.load"):
            self.index = load_index(self.path)
        self.file_bytes_per_row = os.path.getsize(self.path) / len(self.index)

    def ops(self) -> list[Op]:
        return [
            Op("evaluate.fused", len(block),
               lambda block=block: evaluate_corpus(block, self.index, self.config, self.name))
            for block in self.blocks
        ]

    def quality(self, results) -> dict:
        outcomes = [o for rep in results for o in rep.per_query]
        # The stub's port is in the encoder fingerprint; mask it so digests
        # compare across runs.
        endpoint = self.spec.endpoint
        return {
            "recall_at_1": sum(o.hit_at_1 for o in outcomes) / len(outcomes),
            "mean_ap": sum(1.0 / o.gt_rank for o in outcomes) / len(outcomes),
            "sha256": {"fused": _sha256(
                render_report(r).replace(endpoint, "http://stub").encode() for r in results
            )},
        }

    def check(self, results, tr):
        failures = []
        outcomes = {o.image_id: o for o in results[0].per_query}
        n = len(self.index)
        sample = self.blocks[0][: self.size.sample]
        for b in sample:
            q = fuse(b.e_img, encode_texts([b.dense_pred_text], self.spec)[0], FUSED)
            got = search_topk(q, self.index, n)
            if not self._oracle_equal(tr, q, self.index, n, got):
                failures.append(f"{b.image_id}: ranking differs from search_topk_naive")
            if outcomes[b.image_id].gt_rank != _gt_rank(got, b.gt_caption_ids):
                failures.append(f"{b.image_id}: evaluated gt_rank differs from the ranking")
        return len(sample), failures

    def run_traced(self, i, op, tr, counts) -> None:
        before = self.stub.counts.snapshot()
        with tr.span(op.top):
            op.run()
        self.top_counts.append(self.stub.counts.since(before))
        before = self.stub.counts.snapshot()
        with tr.span("replay"):
            self.replay(i, tr, counts)
        self.replay_server_ns += self.stub.counts.since(before).handler_ns

    def replay(self, i, tr, counts) -> None:
        n = len(self.index)
        for b in self.blocks[i]:
            qid = b.image_id
            with tr.span("query", qid):
                e_text = self._encode(tr, counts, b.dense_pred_text, self.spec, qid)
                q = self._fuse(tr, b.e_img, e_text, FUSED, qid)
                ranked = self._search(tr, counts, q, self.index, n, qid)
                with tr.span("evaluate.metrics", qid):
                    recall_at_k(ranked, b.gt_caption_ids, 1)
                    recall_at_k(ranked, b.gt_caption_ids, 5)

    def remote_layer(self) -> dict:
        def total(field):
            return sum(getattr(c, field) for c in self.top_counts)

        requests = total("requests")
        return {
            "requests": requests,
            "connections": total("connections"),
            "texts_per_request": total("texts") / requests if requests else 0.0,
            # Sent and received as the client sees them.
            "bytes_sent": total("bytes_received"),
            "bytes_received": total("bytes_sent"),
            "server_s": self.replay_server_ns / 1e9,
        }


WORKLOADS = {
    "eval-dense": EvalDense,
    "search-large": SearchLarge,
    "sweep-rerank": SweepRerank,
    "remote-fused": RemoteFused,
}

FULL = {
    "eval-dense": DenseSize(captions=5000, vocab=2000, dim=64, block=10,
                            quality_blocks=30, trace_blocks=10, sample=4),
    "search-large": LargeSize(rows=50_000, dim=256, queries=1000, trace_queries=200, sample=5),
    "sweep-rerank": SweepSize(vocab=400, captions=800, block=10,
                              quality_blocks=80, trace_blocks=8, sample=4),
    "remote-fused": DenseSize(captions=800, vocab=400, dim=64, block=20,
                              quality_blocks=40, trace_blocks=10, sample=4),
}

TINY = {
    "eval-dense": DenseSize(captions=300, vocab=120, dim=32, block=10,
                            quality_blocks=2, trace_blocks=1, sample=2),
    "search-large": LargeSize(rows=2000, dim=64, queries=40, trace_queries=10, sample=2),
    "sweep-rerank": SweepSize(vocab=60, captions=60, block=10,
                              quality_blocks=2, trace_blocks=1, sample=2),
    "remote-fused": DenseSize(captions=100, vocab=60, dim=32, block=10,
                              quality_blocks=2, trace_blocks=1, sample=2),
}
