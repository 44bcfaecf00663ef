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
    QueryBundle,
    RankedList,
    _UNIDIRECTIONAL,
    _ahead,
    _candidates,
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


def _max_sim(index: "CaptionIndex", rows, items: np.ndarray) -> np.ndarray:
    """Raw max cosine of each index row in ``rows`` with any row of ``items``.

    ``items`` stacks the unit vectors of the item phrases, one per row.
    """
    cand_matrix = index.embeddings[rows].astype(np.float64)
    # einsum keeps each (candidate, item) dot independent of matrix layout
    # and of the other rows, so the max is bitwise stable under item
    # permutations and row subsets.
    return np.einsum("ij,kj->ik", cand_matrix, items).max(axis=1)


def _rerank(index: "CaptionIndex", rows, items: np.ndarray, k: int):
    """``_rank`` of the index ``rows`` by ``_max_sim``, cut to k."""
    return _rank(index, _max_sim(index, rows, items), k, rows)


def _rerank_ranks(queries, e_img, index: "CaptionIndex", items, pool: int, k_out: int, gt_rows) -> list[list[int]]:
    """Per query, the ascending ranks of ``gt_rows`` in ``_rerank`` of its top ``pool`` rows.

    The queries are one bundle's, and ``e_img`` is its image row. Ranks
    above ``k_out`` are dropped, and no ranking is built. A pool is the
    query's top ``pool`` of ``_candidates``, a tie at the cut filled in id
    order as in ``_rank``; a pool row's rank is 1 plus the pool rows
    ``_ahead`` of it by clamped ``_max_sim``. ``_max_sim`` runs once, over
    the rows in any pool, since a row's bits do not depend on the others.
    """
    rows, scores = _candidates(queries, e_img[None], np.zeros(len(queries), np.intp), index, _UNIDIRECTIONAL, pool)
    order = np.argsort(index._id_rank[rows])  # caption-id order, for the tie fill
    rows, scores = rows[order], scores[order].clip(-1.0, 1.0)
    # At pool >= len(rows) the pool-th score is the least one, and every row fits.
    cut = max(len(rows) - pool, 0)
    kth = np.partition(scores, cut, axis=0)[cut]
    above, tied = scores > kth, scores == kth
    in_pool = above | (tied & (np.cumsum(tied, axis=0) <= pool - np.count_nonzero(above, axis=0)))
    pooled = in_pool.any(axis=1)
    rows, in_pool = rows[pooled], in_pool[pooled]
    max_sim = _max_sim(index, rows, items).clip(-1.0, 1.0)
    ids = index._id_rank[rows]
    is_gt = np.zeros(len(index), dtype=bool)
    is_gt[gt_rows] = True
    at = np.flatnonzero(is_gt[rows])
    ranks = 1 + _ahead(max_sim, ids, max_sim[at, None], ids[at, None]).astype(np.intp) @ in_pool
    kept = in_pool[at] & (ranks <= k_out)
    columns = zip(ranks.T.tolist(), kept.T.tolist())
    return [sorted(r for r, keep in zip(*column) if keep) for column in columns]


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
    ranked = _rerank(index, _topk(query, bundle.e_img.values, index, _UNIDIRECTIONAL, N)[0], items, k)
    return _ranked_list(index, *ranked, min(k, len(index)), STAGE_RERANKED)
