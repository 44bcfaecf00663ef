"""Ingredient-level max-similarity re-ranking of an initial candidate set.

A predicted sparse caption ("chicken, rice, curry leaves") is parsed into
item phrases; every candidate caption is then re-scored by the maximum
cosine similarity between its stored embedding and the individually
encoded item embeddings. A candidate that strongly matches any one item
rises to the top, which is what separates "shrimp" from a visually
similar dish mentioning "chicken".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .encoders import EncoderSpec, encode_texts
from .errors import NoItemsError, UnknownCandidateIdError
from .search import (
    STAGE_RERANKED,
    QueryBundle,
    RankedList,
    _pred_text,
    _rank,
    fused_query,
    search_topk,
)
from .vectors import DEFAULT_QUERY_WEIGHTS, EmbeddingVector, FusionWeights

if TYPE_CHECKING:
    from .index import CaptionIndex

DEFAULT_POOL_FLOOR = 50
DEFAULT_POOL_FACTOR = 5


@dataclass(frozen=True)
class ParsedItems:
    """Ordered, deduplicated item phrases parsed from a sparse caption."""

    phrases: tuple[str, ...]
    source_text: str

    def __post_init__(self):
        if not self.phrases:
            raise NoItemsError(f"no item phrases in {self.source_text!r}")


def parse_items(sparse_text: str) -> ParsedItems:
    """Split a sparse caption on commas into trimmed, lowercased phrases.

    Empty fragments are dropped and duplicates are removed keeping the
    first occurrence. Only the comma splits: multi-word items like
    "herb oil" stay intact.
    """
    phrases = []
    seen = set()
    for fragment in sparse_text.split(","):
        phrase = fragment.strip().lower()
        if phrase and phrase not in seen:
            seen.add(phrase)
            phrases.append(phrase)
    if not phrases:
        raise NoItemsError(f"no item phrases in {sparse_text!r}")
    return ParsedItems(tuple(phrases), sparse_text)


def default_pool_size(k: int) -> int:
    """Initial candidate pool used when none is configured."""
    return max(DEFAULT_POOL_FLOOR, DEFAULT_POOL_FACTOR * k)


def _rerank(index: "CaptionIndex", rows: list[int], items: np.ndarray, k: int) -> RankedList:
    """Best k of the index ``rows`` by max cosine with any row of ``items``.

    ``items`` stacks the unit vectors of the item phrases, one per row.
    """
    cand_matrix = index.embeddings[rows].astype(np.float64)
    # einsum keeps each (candidate, item) dot independent of matrix layout,
    # so the max is bitwise stable under item permutations.
    max_sim = np.einsum("ij,kj->ik", cand_matrix, items).max(axis=1)
    return _rank(index, max_sim, k, STAGE_RERANKED, rows)


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
    item_matrix = _item_matrix(encode_texts(list(items.phrases), encoder))
    return _rerank(index, rows, item_matrix, candidates.k)


def _item_matrix(vectors: Iterable[EmbeddingVector]) -> np.ndarray:
    return np.stack([v.values for v in vectors])


def _retrieve_and_rerank(
    query: EmbeddingVector, index: "CaptionIndex", items: np.ndarray, N: int, k: int
) -> RankedList:
    """Top-N retrieval for ``query``, re-ranked by the item matrix and cut to top-k."""
    initial = search_topk(query, index, N)
    rows = [index.row_of(cid) for cid in initial.ids]
    return _rerank(index, rows, items, min(k, len(rows)))


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
    text = _pred_text(bundle, "sparse")
    query = fused_query(bundle, w, "sparse", encoder)
    items = _item_matrix(encode_texts(list(parse_items(text).phrases), encoder))
    return _retrieve_and_rerank(query, index, items, N, k)
