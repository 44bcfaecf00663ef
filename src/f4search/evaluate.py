"""Evaluation protocol: Recall@1/@5, variable-k mAP, and weight sweeps.

Recall@k counts a query as a hit when any of its ground-truth caption ids
appears in the first k results (id equality, never string matching).
Average precision is the standard truncated form

    AP = (1 / |gt|) * sum over ranks r <= k with a gt hit of (hits_up_to_r / r)

with the denominator fixed at |gt|, so candidates lost in stage 1 keep
hurting the score. In the sparse-ingredient task k varies per query and
equals the number of ground-truth items.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .embfile import load_embedding_file
from .encoders import EncoderSpec
from .errors import (
    ConfigConflictError,
    EmptyGroundTruthError,
    MalformedLineError,
    UnknownCandidateIdError,
)
from .index import CaptionIndex, read_jsonl
from .rerank import default_pool_size, parse_items, retrieve_and_rerank
from .search import (
    QueryBundle,
    RankedList,
    search_bidirectional,
    search_fused_topk,
)
from .vectors import DEFAULT_INDEX_WEIGHTS, DEFAULT_QUERY_WEIGHTS, FusionWeights


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
    hits = 0
    total = 0.0
    for rank, (cid, _) in enumerate(ranked.entries[:k], start=1):
        if cid in gt:
            hits += 1
            total += hits / rank
    return total / len(gt)


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


def _evaluate_bundle(
    bundle: QueryBundle, index: CaptionIndex, config: EvalConfig
) -> QueryOutcome:
    gt = set(bundle.gt_caption_ids)
    k_q = len(gt)
    if config.rerank:
        k_out = max(5, k_q)
        pool = config.pool_size if config.pool_size is not None else default_pool_size(k_out)
        ranked = retrieve_and_rerank(
            bundle, index, config.weights, N=max(pool, k_out), k=k_out,
            encoder=config.encoder,
        )
    elif config.bidirectional:
        ranked = search_bidirectional(
            bundle, index, config.weights, config.index_weights,
            config.text_source, config.encoder,
        )
    else:
        ranked = search_fused_topk(
            bundle, index, config.weights, config.text_source, config.encoder,
            k=len(index),
        )

    gt_rank = None
    for rank, (cid, _) in enumerate(ranked.entries, start=1):
        if cid in gt:
            gt_rank = rank
            break
    ap = average_precision(ranked, gt, k_q) if index.kind == "sparse" else None
    return QueryOutcome(
        image_id=bundle.image_id,
        k=k_q,
        gt_rank=gt_rank,
        ap=ap,
        hit_at_1=recall_at_k(ranked, bundle.gt_caption_ids, 1),
        hit_at_5=recall_at_k(ranked, bundle.gt_caption_ids, 5),
    )


def evaluate_corpus(
    bundles: Sequence[QueryBundle],
    index: CaptionIndex,
    config: EvalConfig,
    corpus_name: str = "corpus",
) -> EvalReport:
    """Run the configured pipeline over every bundle and aggregate metrics.

    Per-bundle evaluation is embarrassingly parallel; outcomes are kept in
    bundle order, so reports are byte-identical for any worker count.
    """
    _check_config(bundles, index, config)
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = tuple(
                pool.map(lambda b: _evaluate_bundle(b, index, config), bundles)
            )
    else:
        outcomes = tuple(_evaluate_bundle(b, index, config) for b in bundles)

    n = len(outcomes)
    r1 = sum(o.hit_at_1 for o in outcomes) / n
    r5 = sum(o.hit_at_5 for o in outcomes) / n
    aps = [o.ap for o in outcomes if o.ap is not None]
    mean_ap = sum(aps) / len(aps) if aps else None
    return EvalReport(corpus_name, config.as_dict(), r1, r5, mean_ap, outcomes)


def sweep_fusion_weight(
    bundles: Sequence[QueryBundle],
    index: CaptionIndex,
    grid: Sequence[float],
    config: EvalConfig,
    metric: str = "recall_at_1",
) -> SweepResult:
    """Evaluate the corpus once per grid point with weights (1 - g, g)."""
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    if any(not 0.0 <= g <= 1.0 for g in grid):
        raise ValueError("grid values must lie in [0, 1]")
    if not all(g2 > g1 for g1, g2 in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if metric not in ("recall_at_1", "recall_at_5", "mean_ap"):
        raise ValueError(f"unknown sweep metric {metric!r}")

    values = []
    for g in grid:
        point = replace(config, weights=FusionWeights(1.0 - g, g))
        report = evaluate_corpus(bundles, index, point)
        value = getattr(report, metric)
        if value is None:
            raise ConfigConflictError(f"metric {metric} unavailable on a dense index")
        values.append(float(value))
    return SweepResult(tuple(float(g) for g in grid), tuple(values), metric)


def _report_payload(report: EvalReport) -> dict:
    return {
        "corpus_name": report.corpus_name,
        "config": report.config,
        "recall_at_1": report.recall_at_1,
        "recall_at_5": report.recall_at_5,
        "mean_ap": report.mean_ap,
        "per_query": [
            {
                "image_id": o.image_id,
                "k": o.k,
                "gt_rank": o.gt_rank,
                "ap": o.ap,
                "hit_at_1": o.hit_at_1,
                "hit_at_5": o.hit_at_5,
            }
            for o in report.per_query
        ],
    }


def render_report(report: EvalReport, fmt: str = "json") -> str:
    """Serialize a report deterministically; identical reports give identical bytes."""
    if fmt == "json":
        return json.dumps(_report_payload(report), indent=2) + "\n"
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
    Path(path).write_text(render_report(report, fmt), encoding="utf-8")


def write_sweep(sweep: SweepResult, path) -> None:
    """Plot-ready two-column CSV: w_text, metric value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["w_text", sweep.metric_name])
    for g, v in zip(sweep.grid, sweep.values):
        writer.writerow([repr(g), repr(v)])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


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
