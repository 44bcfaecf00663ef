"""Evaluation protocol: Recall@1/@5, variable-k mAP, and weight sweeps.

Recall@k counts a query as a hit when any of its ground-truth caption ids
appears in the first k results (id equality, never string matching).
Average precision is the standard truncated form

    AP = (1 / |gt|) * sum over ranks r <= k with a gt hit of (hits_up_to_r / r)

with the denominator fixed at |gt|, so candidates lost in stage 1 keep
hurting the score. In the sparse-ingredient task k varies per query and
equals the number of ground-truth items.

An evaluation first encodes, then scores. It collects the distinct texts
the call needs, in bundle order: each bundle's prediction text when some
weight fuses text, and for re-ranking the sparse text's item phrases. It
encodes them with one ``encode_texts`` call, so a remote encoder sends
them in batches over one session, and a sweep encodes once for its whole
grid. Scoring then runs the same private cores as the per-bundle search
functions on the encoded vectors. An encoder returns each text's vector
independently of the rest of its batch, so the reports are byte-identical
to encoding one bundle at a time.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .embfile import _write_atomic, load_embedding_file
from .encoders import EncoderSpec, encode_texts
from .errors import (
    ConfigConflictError,
    EmptyGroundTruthError,
    MalformedLineError,
    UnknownCandidateIdError,
)
from .index import CaptionIndex, read_jsonl
from .rerank import _item_matrix, _retrieve_and_rerank, default_pool_size, parse_items
from .search import (
    QueryBundle,
    RankedList,
    _bidirectional_scores,
    _fused_query,
    _gt_ranks,
    _pred_text,
    _query_scores,
)
from .vectors import DEFAULT_INDEX_WEIGHTS, DEFAULT_QUERY_WEIGHTS, EmbeddingVector, FusionWeights

# One bundle's encoded texts: the prediction-text vector (None when no
# weight fuses text) and, for re-ranking, the item matrix (else None).
Encoded = tuple[EmbeddingVector | None, np.ndarray | None]


def recall_at_k(ranked: RankedList, gt_ids: Sequence[str], k: int) -> int:
    """1 if any ground-truth id appears within the first k entries, else 0."""
    gt = set(gt_ids)
    for cid, _ in ranked.entries[: max(k, 0)]:
        if cid in gt:
            return 1
    return 0


def average_precision(ranked: RankedList, gt_ids: Iterable[str], k: int) -> float:
    """Truncated average precision over the first k entries."""
    gt = set(gt_ids)
    if not gt:
        raise EmptyGroundTruthError("average precision needs at least one gt id")
    hit_ranks = [r for r, (cid, _) in enumerate(ranked.entries[:k], start=1) if cid in gt]
    return _ap_from_ranks(hit_ranks, len(gt))


def _ap_from_ranks(hit_ranks: Sequence[int], num_gt: int) -> float:
    """Truncated AP from the ascending ranks of the gt hits within the cutoff."""
    total = 0.0
    for hits, rank in enumerate(hit_ranks, start=1):
        total += hits / rank
    return total / num_gt


def derive_k(gt_sparse_caption: str) -> int:
    """Per-image k: the number of distinct item phrases in the GT sparse caption."""
    return len(parse_items(gt_sparse_caption).phrases)


@dataclass(frozen=True)
class EvalConfig:
    """Pipeline configuration for one evaluation run."""

    encoder: EncoderSpec | None = None
    weights: FusionWeights = DEFAULT_QUERY_WEIGHTS
    index_weights: FusionWeights = DEFAULT_INDEX_WEIGHTS
    text_source: str = "dense"
    bidirectional: bool = False
    rerank: bool = False
    pool_size: int | None = None
    workers: int = 1

    def as_dict(self) -> dict:
        """Stable, worker-independent description recorded in reports."""
        return {
            "weights": [self.weights.w_img, self.weights.w_text],
            "index_weights": [self.index_weights.w_img, self.index_weights.w_text],
            "text_source": self.text_source,
            "bidirectional": self.bidirectional,
            "rerank": self.rerank,
            "pool_size": self.pool_size,
            "encoder_fingerprint": self.encoder.fingerprint() if self.encoder else None,
        }


@dataclass(frozen=True)
class QueryOutcome:
    image_id: str
    k: int
    gt_rank: int | None
    ap: float | None
    hit_at_1: int
    hit_at_5: int


@dataclass(frozen=True)
class EvalReport:
    """Aggregate metrics plus the per-query breakdown they were averaged from."""

    corpus_name: str
    config: dict
    recall_at_1: float
    recall_at_5: float
    mean_ap: float | None
    per_query: tuple[QueryOutcome, ...]


@dataclass(frozen=True)
class SweepResult:
    """Metric across a strictly increasing grid of text weights."""

    grid: tuple[float, ...]
    values: tuple[float, ...]
    metric_name: str

    def peak(self) -> tuple[float, float]:
        best = max(range(len(self.grid)), key=lambda i: self.values[i])
        return self.grid[best], self.values[best]


def _check_config(bundles: Sequence[QueryBundle], index: CaptionIndex, config: EvalConfig):
    if not bundles:
        raise ValueError("no query bundles to evaluate")
    if config.rerank and index.kind != "sparse":
        raise ConfigConflictError("re-ranking requires a sparse caption index")
    if config.rerank and config.bidirectional:
        raise ConfigConflictError("re-ranking uses uni-directional initial retrieval")
    if config.text_source not in ("dense", "sparse"):
        raise ConfigConflictError(f"unknown text source {config.text_source!r}")
    for bundle in bundles:
        if not bundle.gt_caption_ids:
            raise EmptyGroundTruthError(f"bundle {bundle.image_id!r} has no gt ids")
        for gt in bundle.gt_caption_ids:
            if not index.has_id(gt):
                raise UnknownCandidateIdError(
                    f"bundle {bundle.image_id!r}: ground-truth id {gt!r} not in index"
                )
    if config.encoder is not None:
        fp = config.encoder.fingerprint()
        if fp != index.encoder_fingerprint:
            warnings.warn(
                f"query encoder {fp} differs from index encoder "
                f"{index.encoder_fingerprint}; scores may not be comparable",
                stacklevel=3,
            )


def _encode_bundles(
    bundles: Sequence[QueryBundle], config: EvalConfig, weights: Iterable[FusionWeights]
) -> list[Encoded]:
    """Every bundle's encoded texts under any of ``weights``, from one encoding call.

    The distinct texts are collected in bundle order first, so a missing
    prediction text or an empty item list raises before anything is encoded.
    """
    fuse_text = any(w.w_text > 0.0 for w in weights)
    source = "sparse" if config.rerank else config.text_source
    needed = []
    for bundle in bundles:
        text = _pred_text(bundle, source) if fuse_text or config.rerank else None
        phrases = parse_items(text).phrases if config.rerank else ()
        needed.append((text if fuse_text else None, phrases))
    distinct = list(dict.fromkeys(t for text, phrases in needed for t in (text, *phrases) if t))
    vectors = dict(zip(distinct, encode_texts(distinct, config.encoder))) if distinct else {}
    return [
        (vectors.get(text), _item_matrix(vectors[p] for p in phrases) if phrases else None)
        for text, phrases in needed
    ]


def _evaluate_bundle(
    bundle: QueryBundle, index: CaptionIndex, config: EvalConfig, encoded: Encoded
) -> QueryOutcome:
    e_text, items = encoded
    gt = set(bundle.gt_caption_ids)
    k_q = len(gt)
    query = _fused_query(bundle, e_text, config.weights)
    if config.rerank:
        k_out = max(5, k_q)
        pool = config.pool_size if config.pool_size is not None else default_pool_size(k_out)
        ranked = _retrieve_and_rerank(query, index, items, max(pool, k_out), k_out)
        ranks = [r for r, cid in enumerate(ranked.ids, start=1) if cid in gt]
    else:
        # The metrics read only where the ground truth lands, so count its
        # ranks on the score vector instead of ranking every row.
        if config.bidirectional:
            scores = _bidirectional_scores(query, bundle.e_img, index, config.index_weights)
        else:
            scores = _query_scores(query, index)
        ranks = _gt_ranks(index, scores, [index.row_of(cid) for cid in gt])

    gt_rank = ranks[0] if ranks else None
    ap = None
    if index.kind == "sparse":
        ap = _ap_from_ranks([r for r in ranks if r <= k_q], k_q)
    return QueryOutcome(
        image_id=bundle.image_id,
        k=k_q,
        gt_rank=gt_rank,
        ap=ap,
        hit_at_1=int(gt_rank is not None and gt_rank <= 1),
        hit_at_5=int(gt_rank is not None and gt_rank <= 5),
    )


def _evaluate(
    bundles: Sequence[QueryBundle],
    index: CaptionIndex,
    config: EvalConfig,
    encoded: Sequence[Encoded],
    corpus_name: str,
) -> EvalReport:
    """Score already-checked and encoded bundles and aggregate the metrics."""
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = tuple(
                pool.map(lambda b, e: _evaluate_bundle(b, index, config, e), bundles, encoded)
            )
    else:
        outcomes = tuple(_evaluate_bundle(b, index, config, e) for b, e in zip(bundles, encoded))

    n = len(outcomes)
    r1 = sum(o.hit_at_1 for o in outcomes) / n
    r5 = sum(o.hit_at_5 for o in outcomes) / n
    aps = [o.ap for o in outcomes if o.ap is not None]
    mean_ap = sum(aps) / len(aps) if aps else None
    return EvalReport(corpus_name, config.as_dict(), r1, r5, mean_ap, outcomes)


def evaluate_corpus(
    bundles: Sequence[QueryBundle],
    index: CaptionIndex,
    config: EvalConfig,
    corpus_name: str = "corpus",
) -> EvalReport:
    """Run the configured pipeline over every bundle and aggregate metrics.

    The call's distinct texts are encoded once, up front. Per-bundle scoring
    is embarrassingly parallel; outcomes are kept in bundle order, so
    reports are byte-identical for any worker count.
    """
    _check_config(bundles, index, config)
    encoded = _encode_bundles(bundles, config, [config.weights])
    return _evaluate(bundles, index, config, encoded, corpus_name)


def sweep_fusion_weight(
    bundles: Sequence[QueryBundle],
    index: CaptionIndex,
    grid: Sequence[float],
    config: EvalConfig,
    metric: str = "recall_at_1",
) -> SweepResult:
    """Evaluate the corpus once per grid point with weights (1 - g, g).

    The texts of the whole grid are encoded once, before the first point.
    """
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    if any(not 0.0 <= g <= 1.0 for g in grid):
        raise ValueError("grid values must lie in [0, 1]")
    if not all(g2 > g1 for g1, g2 in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if metric not in ("recall_at_1", "recall_at_5", "mean_ap"):
        raise ValueError(f"unknown sweep metric {metric!r}")

    _check_config(bundles, index, config)
    points = [replace(config, weights=FusionWeights(1.0 - g, g)) for g in grid]
    encoded = _encode_bundles(bundles, config, [p.weights for p in points])
    values = []
    for point in points:
        value = getattr(_evaluate(bundles, index, point, encoded, "corpus"), metric)
        if value is None:
            raise ConfigConflictError(f"metric {metric} unavailable on a dense index")
        values.append(float(value))
    return SweepResult(tuple(float(g) for g in grid), tuple(values), metric)


def render_report(report: EvalReport, fmt: str = "json") -> str:
    """Serialize a report deterministically; identical reports give identical bytes."""
    if fmt == "json":
        return json.dumps(asdict(report), indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["image_id", "k", "gt_rank", "ap", "hit@1", "hit@5"])
        for o in report.per_query:
            writer.writerow(
                [
                    o.image_id,
                    o.k,
                    "" if o.gt_rank is None else o.gt_rank,
                    "" if o.ap is None else repr(o.ap),
                    o.hit_at_1,
                    o.hit_at_5,
                ]
            )
        return buf.getvalue()
    raise ValueError(f"unknown report format {fmt!r}")


def write_report(report: EvalReport, path, fmt: str = "json") -> None:
    _write_atomic(path, render_report(report, fmt).encode("utf-8"))


def write_sweep(sweep: SweepResult, path) -> None:
    """Plot-ready two-column CSV: w_text, metric value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["w_text", sweep.metric_name])
    for g, v in zip(sweep.grid, sweep.values):
        writer.writerow([repr(g), repr(v)])
    _write_atomic(path, buf.getvalue().encode("utf-8"))


def load_bundles(bundles_path, embeddings_path) -> list[QueryBundle]:
    """Read query bundles from JSONL plus their image embeddings from F4E.

    Each line holds {"image_id", "gt_caption_ids", optional
    "dense_pred_text", optional "sparse_pred_text"}; embeddings are keyed
    by image_id.
    """
    by_id = dict(load_embedding_file(embeddings_path))
    bundles = []
    for line_no, obj in read_jsonl(bundles_path):
        if "image_id" not in obj:
            raise MalformedLineError(line_no, "expected an object with image_id")
        image_id = obj["image_id"]
        if image_id not in by_id:
            raise MalformedLineError(
                line_no, f"no embedding record for image id {image_id!r}"
            )
        bundles.append(
            QueryBundle(
                image_id=image_id,
                e_img=by_id[image_id],
                dense_pred_text=obj.get("dense_pred_text"),
                sparse_pred_text=obj.get("sparse_pred_text"),
                gt_caption_ids=tuple(obj.get("gt_caption_ids", ())),
            )
        )
    return bundles
