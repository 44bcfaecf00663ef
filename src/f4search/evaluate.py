"""Evaluation protocol: Recall@1/@5, variable-k mAP, and weight sweeps.

Recall@k counts a query as a hit when any of its ground-truth caption ids
appears in the first k results (id equality, never string matching).
Average precision is the standard truncated form

    AP = (1 / |gt|) * sum over ranks r <= k with a gt hit of (hits_up_to_r / r)

with the denominator fixed at |gt|, so candidates lost in stage 1 keep
hurting the score. In the sparse-ingredient task k varies per query and
equals the number of ground-truth items. A re-ranked query keeps its top
max(5, k) entries, so its initial pool must hold at least that many.

An evaluation first encodes, then scores. ``search._encode_bundles``, which
every bundle search shares, encodes the distinct texts that the call needs
(each bundle's prediction text when some weight fuses text, and for
re-ranking the sparse text's item phrases) with one encoder call, so a
remote encoder sends them in batches over one connection, and a sweep
encodes once for its whole grid. Scoring then runs the private cores of the
per-bundle search functions on float64 arrays and index rows, so it builds
no ``RankedList`` and no ``EmbeddingVector``. One float32 screen
(``search._screen``) serves a block of bundles at every point of a sweep's
grid, and each query's ground-truth ranks are counted from it on its own;
a re-ranking screen serves one bundle's points, and ranks are counted in
each point's pool. An encoder returns each text's vector independently of
the rest of its batch, and a query's ranks do not depend on its block, so
the reports are byte-identical to encoding and scoring one bundle at a time.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .embfile import _write_atomic, load_embedding_file
from .encoders import EncoderSpec, parse_items
from .errors import (
    ConfigConflictError,
    EmptyGroundTruthError,
    MalformedLineError,
    UnknownCandidateIdError,
)
from .index import CaptionIndex, read_jsonl
from .rerank import _rerank_ranks, default_pool_size
from .search import _UNIDIRECTIONAL, Encoded, QueryBundle, RankedList, _block_len, _encode_bundles, _gt_ranks
from .vectors import DEFAULT_INDEX_WEIGHTS, DEFAULT_QUERY_WEIGHTS, FusionWeights, _fused


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
    hit_ranks = [r for r, (cid, _) in enumerate(ranked.entries[: max(k, 0)], start=1) if cid in gt]
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
    """Pipeline configuration for one evaluation run.

    ``text_source`` picks the prediction text that fusion reads. Re-ranking
    always reads the sparse prediction text, whatever ``text_source`` is;
    ``as_dict`` still records the configured value.

    ``workers`` is accepted for compatibility and read by nothing:
    evaluation runs on the calling thread. Reports are the same bytes for
    any value, and for concurrent callers.
    """

    encoder: EncoderSpec | None = None
    weights: FusionWeights = DEFAULT_QUERY_WEIGHTS
    index_weights: FusionWeights = DEFAULT_INDEX_WEIGHTS
    text_source: str = "dense"
    bidirectional: bool = False
    rerank: bool = False
    pool_size: int | None = None
    workers: int = 1

    def as_dict(self) -> dict:
        """Stable description recorded in reports; ``workers`` stays out of it."""
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


def _check_mode(index: CaptionIndex, config: EvalConfig):
    """The rules ``config``'s retrieval mode must meet on ``index``, for every search and evaluation."""
    if config.rerank and index.kind != "sparse":
        raise ConfigConflictError("re-ranking requires a sparse caption index")
    if config.rerank and config.bidirectional:
        raise ConfigConflictError("re-ranking uses uni-directional initial retrieval")
    if config.text_source not in ("dense", "sparse"):
        raise ConfigConflictError(f"unknown text source {config.text_source!r}")


def _check_config(bundles: Sequence[QueryBundle], index: CaptionIndex, config: EvalConfig):
    if not bundles:
        raise ValueError("no query bundles to evaluate")
    _check_mode(index, config)
    for bundle in bundles:
        if not bundle.gt_caption_ids:
            raise EmptyGroundTruthError(f"bundle {bundle.image_id!r} has no gt ids")
        k_out = max(5, len(set(bundle.gt_caption_ids)))
        if config.rerank and config.pool_size is not None and config.pool_size < k_out:
            raise ConfigConflictError(
                f"re-rank pool {config.pool_size} is below bundle {bundle.image_id!r}'s cut {k_out}"
            )
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


def _evaluate_block(
    bundles: Sequence[QueryBundle], index: CaptionIndex, points: Sequence[EvalConfig],
    encoded: Sequence[Encoded],
) -> list[list[QueryOutcome]]:
    """Each bundle's outcome at each of ``points``, configs that differ only in their weights."""
    config, n = points[0], len(points)
    gt_rows = [[index.row_of(cid) for cid in set(b.gt_caption_ids)] for b in bundles]
    images = np.array([b.e_img.values for b in bundles])  # one row per bundle, shared by its points
    queries = [
        img if e_text is None else _fused(img, e_text, p.weights)
        for img, (e_text, _) in zip(images, encoded) for p in points
    ]
    if config.rerank:
        # One pool per bundle: a band union across bundles would score more rows.
        per_query = []
        for j, (img, (_, items), rows) in enumerate(zip(images, encoded, gt_rows)):
            k_out = max(5, len(rows))
            pool = config.pool_size if config.pool_size is not None else default_pool_size(k_out)
            per_query += _rerank_ranks(queries[j * n : (j + 1) * n], img, index, items, pool, k_out, rows)
    else:
        # The metrics read only where the ground truth lands: count its ranks, rank no rows.
        w_index = config.index_weights if config.bidirectional else _UNIDIRECTIONAL
        owner = np.arange(len(queries)) // n  # query j is bundle j // n at point j % n
        per_query = _gt_ranks(queries, images, owner, index, w_index, [gt_rows[o] for o in owner])

    outcomes = [[] for _ in bundles]
    for j, ranks in enumerate(per_query):
        k_q, gt_rank = len(gt_rows[j // n]), ranks[0] if ranks else None
        ap = _ap_from_ranks([r for r in ranks if r <= k_q], k_q) if index.kind == "sparse" else None
        hit_at_1 = int(gt_rank is not None and gt_rank <= 1)
        hit_at_5 = int(gt_rank is not None and gt_rank <= 5)
        outcomes[j // n].append(QueryOutcome(bundles[j // n].image_id, k_q, gt_rank, ap, hit_at_1, hit_at_5))
    return outcomes


def _evaluate(
    bundles: Sequence[QueryBundle], index: CaptionIndex, points: Sequence[EvalConfig], corpus_name: str
) -> list[EvalReport]:
    """One report per point for checked bundles; their texts are encoded once for every point.

    Bundles are scored in blocks (``_evaluate_block``) whose screen of every
    bundle at every point takes about ``_ROW_BLOCK_BYTES`` in float64.
    """
    config = points[0]
    fuse_text = any(p.weights.w_text > 0.0 for p in points)
    encoded = _encode_bundles(bundles, config.encoder, config.text_source, fuse_text, config.rerank)
    step = max(1, _block_len(len(index)) // len(points))
    per_bundle = []
    for start in range(0, len(bundles), step):
        block = slice(start, start + step)
        per_bundle += _evaluate_block(bundles[block], index, points, encoded[block])
    reports = []
    for point, outcomes in zip(points, zip(*per_bundle)):
        n = len(outcomes)
        r1 = sum(o.hit_at_1 for o in outcomes) / n
        r5 = sum(o.hit_at_5 for o in outcomes) / n
        aps = [o.ap for o in outcomes if o.ap is not None]
        mean_ap = sum(aps) / len(aps) if aps else None
        reports.append(EvalReport(corpus_name, point.as_dict(), r1, r5, mean_ap, outcomes))
    return reports


def evaluate_corpus(
    bundles: Sequence[QueryBundle],
    index: CaptionIndex,
    config: EvalConfig,
    corpus_name: str = "corpus",
) -> EvalReport:
    """Run the configured pipeline over every bundle and aggregate metrics.

    The call's distinct texts are encoded once, up front. Bundles are then
    scored block after block on the calling thread, in bundle order; BLAS
    may use its own threads inside a product. A report depends only on the
    inputs, so concurrent callers get the same bytes as a serial caller.
    """
    _check_config(bundles, index, config)
    return _evaluate(bundles, index, [config], corpus_name)[0]


def sweep_fusion_weight(
    bundles: Sequence[QueryBundle],
    index: CaptionIndex,
    grid: Sequence[float],
    config: EvalConfig,
    metric: str = "recall_at_1",
) -> SweepResult:
    """Evaluate the corpus at each grid point with weights (1 - g, g).

    The texts of the whole grid are encoded once, and each block of bundles then runs the whole grid.
    """
    if not grid:
        raise ValueError("sweep grid must be non-empty")
    if not all(g2 > g1 for g1, g2 in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if metric not in ("recall_at_1", "recall_at_5", "mean_ap"):
        raise ValueError(f"unknown sweep metric {metric!r}")

    _check_config(bundles, index, config)
    if metric == "mean_ap" and index.kind != "sparse":
        raise ConfigConflictError(f"metric {metric} unavailable on a dense index")
    points = [replace(config, weights=FusionWeights(1.0 - g, g)) for g in grid]
    reports = _evaluate(bundles, index, points, "corpus")
    values = tuple(float(getattr(r, metric)) for r in reports)
    return SweepResult(tuple(float(g) for g in grid), values, metric)


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
    by image_id. Ids are strings, ``gt_caption_ids`` a list of them, and
    each prediction text a string or null; any other type raises
    ``MalformedLineError``.
    """
    by_id = dict(load_embedding_file(embeddings_path))
    bundles = []
    for line_no, obj in read_jsonl(bundles_path):
        if "image_id" not in obj:
            raise MalformedLineError(line_no, "expected an object with image_id")
        image_id = obj["image_id"]
        if not isinstance(image_id, str) or image_id not in by_id:
            raise MalformedLineError(
                line_no, f"no embedding record for image id {image_id!r}"
            )
        for field in ("dense_pred_text", "sparse_pred_text"):
            if not isinstance(obj.get(field), (str, type(None))):
                raise MalformedLineError(line_no, f"{field} must be a string or null")
        gt_ids = obj.get("gt_caption_ids", [])
        if not isinstance(gt_ids, list) or not all(isinstance(g, str) for g in gt_ids):
            raise MalformedLineError(line_no, "gt_caption_ids must be a list of strings")
        bundles.append(
            QueryBundle(
                image_id=image_id,
                e_img=by_id[image_id],
                dense_pred_text=obj.get("dense_pred_text"),
                sparse_pred_text=obj.get("sparse_pred_text"),
                gt_caption_ids=tuple(gt_ids),
            )
        )
    return bundles
