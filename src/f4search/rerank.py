"""Ingredient-level max-similarity re-ranking of an initial candidate set.

A predicted sparse caption ("chicken, rice, curry leaves") is parsed into
item phrases (``encoders.parse_items``, re-exported here); every candidate
caption is then re-scored by the maximum cosine similarity between its
stored embedding and the individually encoded item embeddings. A candidate
that strongly matches any one item rises to the top, which is what
separates "shrimp" from a visually similar dish mentioning "chicken".
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .encoders import EncoderSpec, ParsedItems, _encode, parse_items
from .errors import UnknownCandidateIdError
from .search import (
    STAGE_RERANKED,
    _UNIDIRECTIONAL,
    QueryBundle,
    RankedList,
    _encode_bundles,
    _rank,
    _ranked_list,
    _topk,
)
from .vectors import DEFAULT_QUERY_WEIGHTS, FusionWeights, _fused

if TYPE_CHECKING:
    from .index import CaptionIndex

DEFAULT_POOL_FLOOR = 50
DEFAULT_POOL_FACTOR = 5


def default_pool_size(k: int) -> int:
    """Initial candidate pool used when none is configured."""
    return max(DEFAULT_POOL_FLOOR, DEFAULT_POOL_FACTOR * k)


def _rerank(index: "CaptionIndex", rows, items: np.ndarray, k: int):
    """``_rank`` of the index ``rows`` by max cosine with any row of ``items``, cut to k.

    ``items`` stacks the unit vectors of the item phrases, one per row.
    """
    cand_matrix = index.embeddings[rows].astype(np.float64)
    # einsum keeps each (candidate, item) dot independent of matrix layout,
    # so the max is bitwise stable under item permutations.
    max_sim = np.einsum("ij,kj->ik", cand_matrix, items).max(axis=1)
    return _rank(index, max_sim, k, rows)


def rerank(
    candidates: RankedList,
    items: ParsedItems,
    index: "CaptionIndex",
    encoder: EncoderSpec,
) -> RankedList:
    """Re-order candidates by max item-level cosine similarity.

    The candidate set is preserved and each score is replaced by
    ``max_j cos(row, item_j)``; the list is then ordered like every other
    ranked result, by score desc and caption id asc. Because max is
    commutative the item order never matters, and re-ranking an already
    re-ranked list with the same items is a no-op.
    """
    rows = []
    for cid in candidates.ids:
        if not index.has_id(cid):
            raise UnknownCandidateIdError(f"candidate id {cid!r} not in index")
        rows.append(index.row_of(cid))
    # parse_items already deduplicated, so each phrase is encoded once.
    ranked = _rerank(index, rows, _encode(list(items.phrases), encoder), candidates.k)
    return _ranked_list(index, *ranked, candidates.k, STAGE_RERANKED)


def _retrieve_and_rerank(query: np.ndarray, index: "CaptionIndex", items, N: int, k: int):
    """``_rerank`` of the top-N rows for ``query`` by the item matrix, cut to top-k."""
    rows, _ = _topk(query, None, index, _UNIDIRECTIONAL, N)
    return _rerank(index, rows, items, k)


def retrieve_and_rerank(
    bundle: QueryBundle,
    index: "CaptionIndex",
    w: FusionWeights = DEFAULT_QUERY_WEIGHTS,
    N: int | None = None,
    k: int = 5,
    encoder: EncoderSpec | None = None,
) -> RankedList:
    """Two-stage pipeline: fused top-N retrieval, item re-rank, cut to top-k.

    Stage 1 fixes the recall ceiling: anything outside the initial top-N
    can never reappear, so N defaults generously to max(50, 5k).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if N is None:
        N = default_pool_size(k)
    if N < k:
        raise ValueError(f"initial pool N={N} must be >= k={k}")
    ((e_text, items),) = _encode_bundles([bundle], encoder, "sparse", w.w_text > 0.0, True)
    query = bundle.e_img.values if e_text is None else _fused(bundle.e_img.values, e_text, w)
    ranked = _retrieve_and_rerank(query, index, items, N, k)
    return _ranked_list(index, *ranked, min(k, len(index)), STAGE_RERANKED)
