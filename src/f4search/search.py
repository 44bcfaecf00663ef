"""Exact cosine retrieval over a caption index.

Scores are cosines computed in double precision over the float32 index
rows, clamped into [-1, 1] and sorted descending with ties broken by
ascending caption id. One scorer, ``_scores``, and one screen, ``_screen``,
serve every path, keyed by the index weights: uni-directional retrieval is
bi-directional scoring at index weights (0, 1), ``_UNIDIRECTIONAL``. Every
path screens, then verifies: a cheap float32 BLAS score s' of every row
comes with a proven bound delta, one float per screened query, on every
row's distance from the exact double-precision score, so each row's
exact score lies strictly between L = s' - delta and U = s' + delta
(``_screen_delta``). Only the rows these bounds cannot place are
re-scored exactly, so every id, score bit and counted rank equals that
of the full double-precision scan.
``search_topk_naive`` is the reference oracle: a plain float64 product sum
over every row and one full sort, with no partition and no screen.

Every ranking (top-k, bi-directional, re-ranked) is ordered by one routine,
``_rank``, and counted by one comparison, ``_ahead``. ``_candidates`` scores
only the band that ``_band`` keeps around the k-th bound of G queries;
``_topk`` ranks it for one query, and re-ranked evaluation cuts it to each
query's top-N set. Only the public functions build a ``RankedList``
(``_ranked_list``). Other evaluation counts the ground-truth rows' ranks
from the same bounds (``_gt_ranks``). Both take G queries as one (G, d)
matrix with its ``_query_norms``, each query owning a row of one image
matrix, and one ``_screen``: a re-ranked evaluation screens each bundle
once, other evaluation each block of bundles once.

Fused queries improve the query side (weighted image+text sum). Every
bundle search, evaluations included, picks, checks and encodes its query
texts in ``_encode_bundles``, with one encoder call per search. Fusing
index rows happens at scoring time, one block of rows at a time; the
stored index is never mutated. The bi-directional screen takes its scores
from one float32 GEMM of the rows with the G queries and the image rows,
with one bound per image row for every row; it is infinite when any row's
fusion with that image could collapse to zero, so that image's queries
run the full exact scan, which raises ``ZeroVectorError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .encoders import EncoderSpec, _encode, parse_items
from .errors import (
    DimensionMismatchError,
    MissingPredictionTextError,
    ZeroVectorError,
)
from .vectors import (
    DEFAULT_INDEX_WEIGHTS,
    DEFAULT_QUERY_WEIGHTS,
    UNIT_NORM_TOL,
    ZERO_NORM_EPS,
    EmbeddingVector,
    FusionWeights,
    _fused,
    _norms,
)

if TYPE_CHECKING:
    from .index import CaptionIndex

STAGE_INITIAL = "initial"
STAGE_RERANKED = "reranked"

# Bi-directional scoring, the oracle and the index norm check widen this
# many bytes of float64 rows at a time (``_row_blocks``), so their
# temporaries stay small and cache-resident at any index size.
_ROW_BLOCK_BYTES = 1 << 20

# Bi-directional scoring at these index weights scores every row as stored.
_UNIDIRECTIONAL = FusionWeights(0.0, 1.0)

# One bundle's encoded texts: the prediction-text row (None when no weight
# fuses text) and, for re-ranking, the item matrix (else None).
Encoded = tuple[np.ndarray | None, np.ndarray | None]


@dataclass(frozen=True)
class RankedList:
    """At most k ordered (caption_id, score) results, one per id, with retrieval-stage provenance."""

    entries: tuple[tuple[str, float], ...]
    k: int
    stage: str = STAGE_INITIAL

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.entries) > self.k:
            raise ValueError(f"{len(self.entries)} entries exceed k={self.k}")
        if len(set(self.ids)) < len(self.entries):
            raise ValueError("entries must have distinct caption ids")
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


def _query_norms(queries: np.ndarray, index: "CaptionIndex") -> np.ndarray:
    """The L2 norm of each row of a C-ordered (G, d) query matrix, checked against ``index``."""
    if queries.shape[1] != index.dim:
        raise DimensionMismatchError(f"query dim {queries.shape[1]} != index dim {index.dim}")
    norms = _norms(queries)
    if (norms <= ZERO_NORM_EPS).any():
        raise ZeroVectorError("query is the zero vector")
    return norms


def _rank(index: "CaptionIndex", scores: np.ndarray, k: int, rows):
    """Rows and clamped scores of the best k scored rows: score desc, then caption id asc.

    ``scores[i]`` belongs to index row ``rows[i]``. Scores are clamped
    before selection, so selection and ordering see the same values and
    ties at +-1 break by id, as in the oracle. Rows tied with the k-th
    score all reach the id tie-break.
    """
    scores = np.clip(scores, -1.0, 1.0)
    rows = np.asarray(rows, dtype=np.intp)
    n = scores.shape[0]
    if k < n:
        keep = np.flatnonzero(scores >= np.partition(scores, n - k)[n - k])
        rows, scores = rows[keep], scores[keep]
    order = np.lexsort((index._id_rank[rows], -scores))[:k]
    return rows[order], scores[order]


def _block_len(width: int) -> int:
    """How many float64 vectors of ``width`` fit in ``_ROW_BLOCK_BYTES``, and at least one."""
    return max(1, _ROW_BLOCK_BYTES // (8 * max(1, width)))


def _row_blocks(matrix: np.ndarray):
    """Yield ``(start, block)``: ``matrix``'s rows in float64, ``_ROW_BLOCK_BYTES`` at a time."""
    step = _block_len(matrix.shape[1])
    for start in range(0, len(matrix), step):
        yield start, matrix[start : start + step].astype(np.float64)


def _ranked_list(index: "CaptionIndex", rows, scores, k: int, stage: str) -> RankedList:
    """The public result for ``_rank``'s rows and scores."""
    ids = index.ids
    return RankedList(tuple(zip([ids[i] for i in rows.tolist()], scores.tolist())), k=k, stage=stage)


def _cosines(embeddings: np.ndarray, q: np.ndarray, qnorm: float) -> np.ndarray:
    """Raw cosine of ``q`` with every row of ``embeddings``."""
    # einsum rather than a BLAS product: every row reduces on its own, so a
    # row's score bits do not depend on the matrix shape, the row subset or
    # the BLAS build.
    return np.einsum("ij,j->i", embeddings, q) / qnorm


def _scores(q: np.ndarray, qnorm: float, e_img, embeddings: np.ndarray, w_index: FusionWeights) -> np.ndarray:
    """Raw score of each row of ``embeddings``, fused with ``e_img`` at ``w_index``, against ``q``.

    ``q`` is a query row and ``qnorm`` its ``_query_norms``; ``embeddings`` is the
    index matrix or a block of its rows, sliced once by the caller. At
    ``w_img == 0`` a row is scored as stored, by ``_cosines``, and ``e_img``
    is not read. Otherwise rows are fused with the image embedding ``e_img``
    in blocks of ``_ROW_BLOCK_BYTES``; each row's arithmetic is the one-shot
    ``w_img * e_img + w_text * row`` formula, so neither the block size nor
    the row subset changes a score bit.
    """
    if w_index.w_img == 0.0:
        return _cosines(embeddings, q, qnorm)
    img = w_index.w_img * e_img
    scores = np.empty(len(embeddings))
    for start, fused_rows in _row_blocks(embeddings):
        fused_rows *= w_index.w_text
        fused_rows += img
        norms = np.linalg.norm(fused_rows, axis=1)
        if (norms <= ZERO_NORM_EPS).any():
            raise ZeroVectorError("a candidate fusion collapsed to the zero vector")
        scores[start : start + len(norms)] = np.einsum("ij,j->i", fused_rows, q) / (norms * qnorm)
    return scores


def _screen_delta(dim: int) -> float:
    """Largest possible |screen score - exact score| of any row at ``dim``.

    Proof. Let c = qnorm, t = row.q / c exactly, u = 2^-24 and v = 2^-53,
    and g_n(w) = n w / (1 - n w) (Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 3.1: |fl(x.y) - x.y| <= g_n |x|.|y| for any
    summation order, blocking or FMA). The index check |fl(|row|) - 1| <= tol
    and c = fl(sqrt(fl(q.q))) give |row| <= (1 + tol) / (1 - g) and
    |q| / c <= 1 / (1 - g) with g = g_{d+1}(v), so |row| |q| / c <= S (``scale``).
    The exact score fl(fl(row.q) / c) is within g S of t (the einsum's g_d
    plus the division's v). The screen rounds q / c to float64 and then to
    float32 (each component off by at most u + 2v relative) and takes a
    float32 dot product (g_d(u) times |row| |q32| <= (1 + 2u) S), so it is
    within ((g_d(u) + u)(1 + 2u) + g) S of t. Underflow anywhere adds less
    than 2^-120, so the final 2^-40 leaves 2^-41 to spare.

    Bounds. A delta that spares 2^-41 gives float64 L = fl(cheap - delta)
    strictly below, and U = fl(cheap + delta) strictly above, every row's
    exact score: rounding moves them by at most 2^-53 times their
    magnitude, less than 2^-41 while it is at most 2^12, and beyond that
    L < exact < 2 forces L < -2^12 (and U > 2^12).
    """
    u, v = 2.0**-24, 2.0**-53
    if dim * u >= 0.5:
        return np.inf
    g32 = dim * u / (1 - dim * u)
    g = (dim + 1) * v / (1 - (dim + 1) * v)
    scale = (1 + UNIT_NORM_TOL) / (1 - g) ** 2
    return scale * ((g32 + u) * (1 + 2 * u) + 2 * g) + 2.0**-40


def _band(cheap: np.ndarray, delta, k: int) -> np.ndarray | None:
    """Rows that can reach the exact top k, or None when every row can.

    With L and U the row bounds and lam the k-th largest L, at least k rows
    have exact scores above lam. When lam > -1 they clamp to at least
    m = min(lam, 1), and a row with U < m clamps strictly below all of them:
    it is neither in the top k nor tied with it. Otherwise a row below the
    band could clamp to a tie at -1, so every row is kept. Callers pass a k
    below the row count.

    One delta bounds every row of a column (``_screen``), so this needs no
    float64 pass over the rows: L = fl(cheap - delta) is monotone in cheap,
    so lam comes from the k-th largest screen score, and a row with
    cheap < fl(m - delta) has an exact score below m. That rounding moves
    the threshold by at most 2^-53 (1 + delta), and every delta spares
    more: ``_screen_delta`` is below 2 and spares 2^-41, and the
    bi-directional delta spares more than 2^-42 (1 + delta).

    ``cheap`` and ``delta`` are ``_screen``'s (n, G) screen of G queries
    and its bounds, one per column: the result is the union of
    the columns' bands, or None when any column's lam is at most -1. A
    row outside column j's band clamps strictly below column j's k-th clamped
    exact score, so scoring the other columns' rows as well never changes
    column j's top k.
    """
    n = cheap.shape[0]
    lam = np.partition(cheap, n - k, axis=0)[n - k].astype(np.float64) - delta
    if np.any(lam <= -1.0):
        return None
    # A float64 threshold: under NEP 50 (numpy >= 2.0) the comparison is not rounded to float32.
    return np.flatnonzero((cheap >= np.minimum(lam, 1.0) - delta).any(axis=1))


def _screen(queries, qnorms, images, owner, index: "CaptionIndex", w_index: FusionWeights):
    """An (n, G) screen of every row for G queries, and the bound delta on each column's distance from ``_scores``.

    ``queries`` is a (G, d) matrix and ``qnorms`` its ``_query_norms``, and
    column j belongs to query j. ``images`` is an (M, d) float64 matrix with
    one row per image, and query j's image is row ``owner[j]``; both are read
    only at ``w_img > 0``. One float32 GEMM, whose operand is C-ordered (an
    F-ordered one is several times slower), serves every column. delta is a
    float64 array of one bound per column, or at ``w_img == 0`` one float
    that bounds every column.

    At ``w_img == 0`` the GEMM scores every row against the unit directions
    q / qnorm, within ``_screen_delta`` of the exact ``_cosines`` (the proof
    is there), in every column.

    Otherwise, with a, b the index weights, p a query's image, c = qnorm
    and q' = q / c, the GEMM of the rows with [b q'_1 ... b q'_G, 2ab p_1
    ... 2ab p_M], one column per row of ``images``, gives
    x_i ~ b r_i.q' per query and y_i ~ 2ab r_i.p per image, and the query's
    screen score is

        s_i = (a p.q' + x_i) / hi_i,  hi_i^2 = a^2 p.p + b^2 + y_i,

    taking |r_i|^2 = 1 from the unit-norm tolerance instead of a stored
    norm. A bound B(hi_i^2) on |s_i - exact_i| falls as hi_i^2 grows, so
    delta, its value at the image's least hi_i^2, bounds every row a
    posteriori. It does not depend on the query, so it serves every column
    of that image.

    Proof. Notation as in ``_screen_delta``, whose delta e bounds the error
    of a float32 screen of the unit direction; rows and p have norms in
    [r0, r1] = [(1 - tol) / (1 + g), (1 + tol) / (1 - g)], and
    |q'| <= q1 = 1 / (1 - g). The exact value is T_i = F.q' / |F| with
    F = a p + b r_i, F.q' = a p.q' + b r_i.q' and
    D_i = |F|^2 = a^2 p.p + b^2 |r_i|^2 + 2ab r_i.p.

    - Screen: scaling q' by b and p by 2ab in float64 before rounding to
      float32 leaves every component within u + 3v relative of its exact
      value, which e's (1 + 2u) factor absorbs. So x_i is within b e of
      b r_i.q', y_i within 2ab (1 + tol) e of 2ab r_i.p, the float64 p.q'
      within e and p.p within (1 + tol) e of theirs, and 1 within
      r1^2 - 1 >= 1 - r0^2 of |r_i|^2. These values are at most
      m = r1 (r1 + e) in size, so forming the numerator num and hi^2 in
      float64 rounds by less than 3v (a + b) m and 8v (a + b)^2 m. So num
      is within e_num of F.q', |num| <= n_max, and hi^2 is within e_den
      of D_i.
    - Exact path: f = fl(fl(b r_i) + fl(a p)) is within e_fuse = 3v r1 of
      F (a + b <= 1 + 1e-9), which moves the cosine by at most
      2 q1 e_fuse / |F|; its dot product (g_d), norm (g), product and
      division (v each) add at most e_exact.

    Where hi^2 >= 2 e_den, D_i >= hi^2 - e_den >= hi^2 / 2, so
    |F| >= hi / sqrt 2 and |1 / hi - 1 / |F|| <= e_den / hi^3. The
    screen's final sqrt, reciprocal and product round by less than
    4v |num| / hi. Hence |s_i - T_i| and |exact_i - T_i| together are at most

        B(hi_i^2) = (sqrt 2 (e_num + 2 q1 e_fuse) + 4v n_max) / hi_i
                    + n_max e_den / hi_i^3 + e_exact.

    One delta per image. B falls as hi^2 grows, so B(h2) with h2 the
    image's min hi_i^2 bounds every row, and delta is B(h2) evaluated once
    per image. Its constants c1, c3 and
    c0 are raised by the factor 1 + 2^-40, which covers evaluating it in
    float64 (less than 40v relative), and 2^-40 is added; float32 underflow
    adds less than 2^-120. So delta exceeds B(h2) by more than
    2^-41 (1 + B(h2)) > 2^-42 (1 + delta), which ``_band`` and the bounds
    of ``_screen_delta`` need.

    Collapse. Where h2 < 2 e_den, delta is infinite, so ``_band`` keeps every
    row and ``_gt_ranks`` re-scores every row: the full exact scan. Elsewhere
    every row has |F|^2 >= hi^2 / 2 >= e_den > 7v, a far wider margin than
    ZERO_NORM_EPS needs: the exact norm fl(|f|) >= (1 - g)(|F| - e_fuse)
    exceeds ZERO_NORM_EPS, and no row collapses. So the screened paths raise
    ZeroVectorError exactly when the full scan does.
    """
    # Screening the unit directions keeps this valid at any query scale,
    # even where q itself would overflow float32.
    units = queries / qnorms[:, None]
    if w_index.w_img == 0.0:
        return index.embeddings @ np.ascontiguousarray(units.T, np.float32), _screen_delta(index.dim)
    a, b, n_q = w_index.w_img, w_index.w_text, len(units)
    columns = np.concatenate([b * units, 2 * a * b * images]).astype(np.float32)
    xy = (index.embeddings @ np.ascontiguousarray(columns.T)).T.astype(np.float64, order="C")
    num = xy[:n_q]  # one contiguous float64 row per query
    num += a * np.einsum("ij,ij->i", units, images[owner])[:, None]
    hi2 = (a * a * np.einsum("ij,ij->i", images, images) + b * b)[:, None] + xy[n_q:]

    v, tol, e = 2.0**-53, UNIT_NORM_TOL, _screen_delta(index.dim)
    g = (index.dim + 1) * v / (1 - (index.dim + 1) * v)
    r1, q1 = (1 + tol) / (1 - g), 1 / (1 - g)
    m = r1 * (r1 + e)
    e_num = (a + b) * (e + 3 * v * m)
    e_den = (a * a + 2 * a * b) * (1 + tol) * e + b * b * (r1 * r1 - 1) + 8 * v * (a + b) ** 2 * m
    n_max = (a + b) * m * (1 + 3 * v)
    e_fuse = 3 * v * r1
    e_exact = q1 * (g + (1 + g) * ((1 + v) / ((1 - g) * (1 - v)) - 1))
    slack = 1 + 2.0**-40
    c1 = slack * (np.sqrt(2) * (e_num + 2 * q1 * e_fuse) + 4 * v * n_max)
    c3 = slack * n_max * e_den
    c0 = slack * e_exact + 2.0**-40

    h2 = hi2.min(axis=1)
    inv_hi = 1.0 / np.sqrt(np.maximum(h2, 2 * e_den))
    delta = np.where(h2 >= 2 * e_den, inv_hi * (c1 + c3 * inv_hi * inv_hi) + c0, np.inf)
    num *= (1.0 / np.sqrt(np.maximum(hi2, e_den)))[owner]
    return num.T, delta[owner]


def _candidates(queries, qnorms, images, owner, index: "CaptionIndex", w_index: FusionWeights, k: int):
    """The rows that can reach any query's top k by ``_scores``, and their raw scores.

    The arguments are as in ``_screen``. Returns ascending index rows and a
    (len(rows), G) array, column j for query j. Below a full ranking one
    ``_screen`` serves every query, and the union of the columns' bands
    (``_band``) is sliced once and scored.
    """
    rows = _band(*_screen(queries, qnorms, images, owner, index, w_index), k) if k < len(index) else None
    block = index.embeddings if rows is None else index.embeddings[rows]
    images = repeat(None) if w_index.w_img == 0.0 else images[owner]  # one per query; none is read at w_img == 0
    scores = [_scores(q, c, p, block, w_index) for q, c, p in zip(queries, qnorms.tolist(), images)]
    return (np.arange(len(index)) if rows is None else rows), np.stack(scores, axis=1)


def _topk(query: np.ndarray, image, index: "CaptionIndex", w_index: FusionWeights, k: int):
    """``_rank`` of the top k rows by ``_scores`` for a (1, d) query and image, scoring only ``_candidates``' rows."""
    rows, scores = _candidates(query, _query_norms(query, index), image, np.zeros(1, np.intp), index, w_index, k)
    return _rank(index, scores[:, 0], k, rows)


def _ahead(scores, ids, score, id_rank):
    """Whether rows at (``scores``, ``ids``) come before (``score``, ``id_rank``) in ``_rank``'s order."""
    return (scores > score) | ((scores == score) & (ids < id_rank))


def _gt_ranks(queries, qnorms, images, owner, index: "CaptionIndex", w_index: FusionWeights, rows) -> list[list[int]]:
    """Per query, the ascending 1-based ranks that ``_rank`` would give its ground-truth ``rows`` by ``_scores``.

    The other arguments are as in ``_screen``; ``rows`` holds one list
    of ground-truth index rows per query. A row's rank is one plus the rows
    with a higher clamped exact score plus the rows tied with it whose
    caption id sorts first, so no ranking is built. One ``_screen`` serves
    every query, and each column's scores and delta give every row's bounds
    L and U (``_screen_delta``) once. With c a ground-truth row's clamped
    exact score, a row with L > c scores above c and, when c < 1, clamps
    above it; a row with U < c clamps below c when c > -1. Only the other
    rows, which include the ground-truth row itself, are scored exactly and
    compared with the id tie-break; where delta is infinite that is the full
    exact scan. A query's ground-truth rows are scored together; the
    counting runs per row, since a query has few of them and broadcasting
    costs more calls than it saves at small indexes.
    """
    cheap, delta = _screen(queries, qnorms, images, owner, index, w_index)
    images = repeat(None) if w_index.w_img == 0.0 else images[owner]  # one per query; none is read at w_img == 0
    columns = zip(queries, qnorms.tolist(), images, rows, np.broadcast_to(delta, len(queries)), cheap.T)
    per_query = []
    for q, qnorm, p, gt_rows, d, column in columns:
        scores = _scores(q, qnorm, p, index.embeddings[gt_rows], w_index)
        column = np.asarray(column, dtype=np.float64)  # widened once, for both bounds
        low, up = column - d, column + d
        ranks = []
        for row, c in zip(gt_rows, scores.clip(-1.0, 1.0).tolist()):
            not_above = low <= (c if c < 1.0 else np.inf)
            undecided = not_above & (up >= (c if c > -1.0 else -np.inf))
            rank = 1 + len(low) - int(np.count_nonzero(not_above))
            if np.count_nonzero(undecided) > 1:  # more than the row itself
                band = np.flatnonzero(undecided)
                s = _scores(q, qnorm, p, index.embeddings[band], w_index).clip(-1.0, 1.0)
                rank += int(np.count_nonzero(_ahead(s, index._id_rank[band], c, index._id_rank[row])))
            ranks.append(rank)
        per_query.append(sorted(ranks))
    return per_query


def search_topk(query: EmbeddingVector, index: "CaptionIndex", k: int) -> RankedList:
    """Exact top-k cosine retrieval: float32 screen, then exact re-score."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, len(index))
    ranked = _topk(query.values[None], None, index, _UNIDIRECTIONAL, k)
    return _ranked_list(index, *ranked, k, STAGE_INITIAL)


def search_topk_naive(query: EmbeddingVector, index: "CaptionIndex", k: int) -> RankedList:
    """Reference oracle: a plain float64 product sum per row, full sort, cut at k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q, qnorm = query.values, _query_norms(query.values[None], index)[0]
    sums = np.concatenate([(block * q).sum(axis=1) for _, block in _row_blocks(index.embeddings)])
    scores = np.clip(sums / qnorm, -1.0, 1.0)
    order = np.lexsort((index._id_rank, -scores))[: min(k, len(index))]
    return _ranked_list(index, order, scores[order], len(order), STAGE_INITIAL)


def _pred_text(bundle: QueryBundle, text_source: str) -> str:
    """The bundle's prediction text from ``text_source``, which must be present."""
    if text_source not in ("dense", "sparse"):
        raise ValueError(f"unknown text source {text_source!r}")
    text = bundle.dense_pred_text if text_source == "dense" else bundle.sparse_pred_text
    if not text:
        raise MissingPredictionTextError(
            f"bundle {bundle.image_id!r} has no {text_source} prediction text"
        )
    return text


def _encode_bundles(
    bundles: Sequence[QueryBundle], encoder: EncoderSpec | None, source: str, fuse_text, rerank
) -> list[Encoded]:
    """Every bundle's encoded texts, from one ``_encode`` call of the distinct ones.

    A bundle needs its ``source`` prediction text when ``fuse_text``; re-ranking
    reads the sparse text, whatever ``source`` is, and needs its item phrases.
    The texts are collected in bundle order first, so a missing prediction
    text or an empty item list raises before anything is encoded.
    """
    needed = []
    for bundle in bundles:
        text = _pred_text(bundle, "sparse" if rerank else source) if fuse_text or rerank else None
        phrases = parse_items(text).phrases if rerank else ()
        needed.append((text if fuse_text else None, phrases))
    distinct = list(dict.fromkeys(t for text, phrases in needed for t in (text, *phrases) if t))
    matrix = _encode(distinct, encoder) if distinct else None
    pos = {t: i for i, t in enumerate(distinct)}
    return [
        (matrix[pos[text]] if text else None, matrix[[pos[p] for p in phrases]] if phrases else None)
        for text, phrases in needed
    ]


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
    ((e_text, _),) = _encode_bundles([bundle], encoder, text_source, True, False)
    return EmbeddingVector(_fused(bundle.e_img.values[None], e_text[None], [w])[0], normalized=True)


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
    ``normalize(w_index.w_img * e_img + w_index.w_text * row)``, one block
    of rows at a time, so memory per query is bounded by the block, not by
    the index; the stored index is never written to. Below the full
    ranking, ``_screen`` and ``_band`` pick the rows to fuse exactly.
    ``w_index = (0, 1)`` is the uni-directional search: the same scorer and
    screen at ``_UNIDIRECTIONAL``.
    """
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    query = fused_query(bundle, w_query, text_source, encoder)
    k = min(k if k is not None else len(index), len(index))
    ranked = _topk(query.values[None], bundle.e_img.values[None], index, w_index, k)
    return _ranked_list(index, *ranked, k, STAGE_INITIAL)
