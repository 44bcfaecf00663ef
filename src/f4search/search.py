"""Exact cosine retrieval over a caption index.

Two scan implementations share one contract: an optimized scan that
scores every row in one vectorized pass and selects the top k with numpy,
and a deliberately naive single-pass full sort kept around as the
reference oracle. Both compute scores in double precision over the
float32 index rows, clamp them into [-1, 1], sort descending by score
with ties broken by ascending caption id, and must agree exactly.

Every ranked result in the package (top-k, bi-directional and re-ranked
lists) is ordered by one routine, ``_rank``. Evaluation needs only where
the ground-truth rows land, so it skips the ranking: ``_gt_ranks`` counts
each ground-truth row's rank on the same clamped score vector with the
same id tie-break.

Fused variants improve the query side (weighted image+text sum) or, in
bi-directional mode, additionally fuse every index row with the query
image at scoring time, one block of rows at a time; the stored index is
never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .encoders import EncoderSpec, encode_texts
from .errors import (
    DimensionMismatchError,
    MissingPredictionTextError,
    ZeroVectorError,
)
from .vectors import (
    DEFAULT_INDEX_WEIGHTS,
    DEFAULT_QUERY_WEIGHTS,
    ZERO_NORM_EPS,
    EmbeddingVector,
    FusionWeights,
    clamp_score,
    fuse,
)

if TYPE_CHECKING:
    from .index import CaptionIndex

STAGE_INITIAL = "initial"
STAGE_RERANKED = "reranked"

# Bi-directional scoring fuses this many bytes of float64 rows at a time,
# so its temporaries stay small and cache-resident at any index size.
_BIDIR_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class RankedList:
    """Ordered (caption_id, score) results with retrieval-stage provenance."""

    entries: tuple[tuple[str, float], ...]
    k: int
    stage: str = STAGE_INITIAL

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        for _, score in self.entries:
            if not -1.0 <= score <= 1.0:
                raise ValueError(f"score {score!r} outside [-1, 1]")
        keys = [(-score, cid) for cid, score in self.entries]
        if keys != sorted(keys):
            raise ValueError("entries must be sorted by score desc, then id asc")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.entries)

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(score for _, score in self.entries)


@dataclass(frozen=True, eq=False)
class QueryBundle:
    """One evaluation item: image embedding, prediction texts, ground truth."""

    image_id: str
    e_img: EmbeddingVector
    dense_pred_text: str | None = None
    sparse_pred_text: str | None = None
    gt_caption_ids: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not self.e_img.normalized:
            raise ValueError("query image embedding must be unit-norm")
        object.__setattr__(self, "gt_caption_ids", tuple(self.gt_caption_ids))


def _query_direction(query: EmbeddingVector, index: "CaptionIndex") -> tuple[np.ndarray, float]:
    if query.dim != index.dim:
        raise DimensionMismatchError(f"query dim {query.dim} != index dim {index.dim}")
    norm = float(np.linalg.norm(query.values))
    if norm <= ZERO_NORM_EPS:
        raise ZeroVectorError("query is the zero vector")
    return query.values, norm


def _rank(
    index: "CaptionIndex",
    scores: np.ndarray,
    k: int,
    stage: str,
    rows: list[int] | None = None,
) -> RankedList:
    """Best k of the scored rows: score desc, then caption id asc.

    ``scores[i]`` belongs to index row ``rows[i]`` (row ``i`` when ``rows``
    is None). Scores are clamped before selection, so selection and
    ordering see the same values and ties at +-1 break by id, as in the
    oracle. Rows tied with the k-th score all reach the id tie-break.
    """
    scores = np.clip(scores, -1.0, 1.0)
    n = scores.shape[0]
    if k < n:
        keep = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
    else:
        keep = np.arange(n)
    rows = keep if rows is None else np.asarray(rows, dtype=np.intp)[keep]
    scores = scores[keep]
    order = np.lexsort((index._id_rank[rows], -scores))[:k]
    ids = [index.captions[i].id for i in rows[order].tolist()]
    return RankedList(tuple(zip(ids, scores[order].tolist())), k=k, stage=stage)


def _gt_ranks(index: "CaptionIndex", scores: np.ndarray, rows: list[int]) -> list[int]:
    """Ascending 1-based ranks that ``_rank`` would give the given rows.

    ``scores`` holds one raw score per index row. A row's rank is one plus
    the rows with a higher clamped score plus the rows tied with it whose
    caption id sorts first, so no ranking is built.
    """
    scores = np.clip(scores, -1.0, 1.0)
    ranks = []
    for row in rows:
        s = scores[row]
        ties = np.flatnonzero(scores == s)
        ranks.append(
            1
            + int(np.count_nonzero(scores > s))
            + int(np.count_nonzero(index._id_rank[ties] < index._id_rank[row]))
        )
    return sorted(ranks)


def _query_scores(query: EmbeddingVector, index: "CaptionIndex") -> np.ndarray:
    """Raw cosine of ``query`` with every index row, in row order."""
    q, qnorm = _query_direction(query, index)
    # einsum rather than a BLAS product: every row reduces on its own, so a
    # row's score bits do not depend on the matrix shape or the BLAS build.
    return np.einsum("ij,j->i", index.embeddings, q) / qnorm


def search_topk(query: EmbeddingVector, index: "CaptionIndex", k: int) -> RankedList:
    """Exact top-k cosine retrieval (optimized scan)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _rank(index, _query_scores(query, index), min(k, len(index)), STAGE_INITIAL)


def search_topk_naive(query: EmbeddingVector, index: "CaptionIndex", k: int) -> RankedList:
    """Reference oracle: score every row in a plain loop, full sort, cut at k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q, qnorm = _query_direction(query, index)
    scored = []
    for cap, row in zip(index.captions, index.embeddings):
        score = clamp_score(float(np.dot(row.astype(np.float64), q)) / qnorm)
        scored.append((cap.id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    k_eff = min(k, len(index))
    return RankedList(tuple(scored[:k_eff]), k=k_eff, stage=STAGE_INITIAL)


def fused_query(
    bundle: QueryBundle,
    w: FusionWeights,
    text_source: str,
    encoder: EncoderSpec | None,
) -> EmbeddingVector:
    """Build the query vector: the image embedding fused with a prediction text.

    With a zero text weight the image embedding is returned untouched and no
    prediction text is required, so the degenerate configuration reproduces
    pure-image retrieval exactly.
    """
    if w.w_text == 0.0:
        return bundle.e_img
    if text_source not in ("dense", "sparse"):
        raise ValueError(f"unknown text source {text_source!r}")
    text = bundle.dense_pred_text if text_source == "dense" else bundle.sparse_pred_text
    if not text:
        raise MissingPredictionTextError(
            f"bundle {bundle.image_id!r} has no {text_source} prediction text"
        )
    if encoder is None:
        raise ValueError("text fusion requires an encoder spec")
    e_text = encode_texts([text], encoder)[0]
    return fuse(bundle.e_img, e_text, w)


def search_fused_topk(
    bundle: QueryBundle,
    index: "CaptionIndex",
    w: FusionWeights = DEFAULT_QUERY_WEIGHTS,
    text_source: str = "dense",
    encoder: EncoderSpec | None = None,
    k: int = 1,
) -> RankedList:
    """Uni-directional fused retrieval: fused query against stored rows."""
    return search_topk(fused_query(bundle, w, text_source, encoder), index, k)


def search_top1_fused(
    bundle: QueryBundle,
    index: "CaptionIndex",
    w: FusionWeights = DEFAULT_QUERY_WEIGHTS,
    text_source: str = "dense",
    encoder: EncoderSpec | None = None,
) -> RankedList:
    """Best single caption for a fused query."""
    return search_fused_topk(bundle, index, w, text_source, encoder, k=1)


def _bidirectional_scores(
    bundle: QueryBundle,
    index: "CaptionIndex",
    w_query: FusionWeights,
    w_index: FusionWeights,
    text_source: str,
    encoder: EncoderSpec | None,
) -> np.ndarray:
    """Raw bi-directional score of every index row, in row order.

    Rows are fused in blocks of ``_BIDIR_BLOCK_BYTES``; each row's
    arithmetic is the one-shot ``w_img * e_img + w_text * row`` formula, so
    the block size never changes a score bit.
    """
    query = fused_query(bundle, w_query, text_source, encoder)
    if w_index.w_img == 0.0:
        return _query_scores(query, index)
    q, qnorm = _query_direction(query, index)
    img = w_index.w_img * bundle.e_img.values
    scores = np.empty(len(index))
    step = max(1, _BIDIR_BLOCK_BYTES // (8 * index.dim))
    for start in range(0, len(index), step):
        fused_rows = index.embeddings[start : start + step].astype(np.float64)
        fused_rows *= w_index.w_text
        fused_rows += img
        norms = np.linalg.norm(fused_rows, axis=1)
        if np.any(norms <= ZERO_NORM_EPS):
            raise ZeroVectorError("a candidate fusion collapsed to the zero vector")
        scores[start : start + step] = np.einsum("ij,j->i", fused_rows, q) / (norms * qnorm)
    return scores


def search_bidirectional(
    bundle: QueryBundle,
    index: "CaptionIndex",
    w_query: FusionWeights = DEFAULT_QUERY_WEIGHTS,
    w_index: FusionWeights = DEFAULT_INDEX_WEIGHTS,
    text_source: str = "dense",
    encoder: EncoderSpec | None = None,
    k: int | None = None,
) -> RankedList:
    """Fused query scored against per-candidate fusions of image and row.

    Each candidate is re-fused on the fly as
    ``normalize(w_index.w_img * e_img + w_index.w_text * row)``, one block
    of rows at a time, so memory per query is bounded by the block, not by
    the index; the stored index is never written to. ``w_index = (0, 1)``
    degenerates to the uni-directional search.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    scores = _bidirectional_scores(bundle, index, w_query, w_index, text_source, encoder)
    k_eff = min(k if k is not None else len(index), len(index))
    return _rank(index, scores, k_eff, STAGE_INITIAL)
