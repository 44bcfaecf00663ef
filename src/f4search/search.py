"""Exact cosine retrieval over a caption index.

Two scan implementations share one contract: an optimized scan that
scores every row in one vectorized pass and selects the top k with numpy,
and a deliberately naive single-pass full sort kept around as the
reference oracle. Both compute scores in double precision over the
float32 index rows, clamp them into [-1, 1], sort descending by score
with ties broken by ascending caption id, and must agree exactly.

Every ranked result in the package (top-k, bi-directional and re-ranked
lists) is ordered by one routine, ``_rank``.

Fused variants improve the query side (weighted image+text sum) or, in
bi-directional mode, additionally fuse every index row with the query
image at scoring time; the stored index is never mutated.
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


def search_topk(query: EmbeddingVector, index: "CaptionIndex", k: int) -> RankedList:
    """Exact top-k cosine retrieval (optimized scan)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q, qnorm = _query_direction(query, index)
    # einsum rather than a BLAS product: every row reduces on its own, so a
    # row's score bits do not depend on the matrix shape or the BLAS build.
    scores = np.einsum("ij,j->i", index.embeddings, q) / qnorm
    return _rank(index, scores, min(k, len(index)), STAGE_INITIAL)


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
    return fuse(bundle.e_img, e_text, w, renormalize=True)


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
    ``normalize(w_index.w_img * e_img + w_index.w_text * row)``; the stored
    index is never written to. ``w_index = (0, 1)`` degenerates to the
    uni-directional search.
    """
    query = fused_query(bundle, w_query, text_source, encoder)
    k_eff = min(k if k is not None else len(index), len(index))
    if w_index.w_img == 0.0:
        return search_topk(query, index, k_eff)

    q, qnorm = _query_direction(query, index)
    fused_rows = (
        w_index.w_img * bundle.e_img.values[None, :]
        + w_index.w_text * index.embeddings.astype(np.float64)
    )
    norms = np.linalg.norm(fused_rows, axis=1)
    if np.any(norms <= ZERO_NORM_EPS):
        raise ZeroVectorError("a candidate fusion collapsed to the zero vector")
    scores = np.einsum("ij,j->i", fused_rows, q) / (norms * qnorm)
    return _rank(index, scores, k_eff, STAGE_INITIAL)
