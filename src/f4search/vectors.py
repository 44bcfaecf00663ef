"""Vector primitives: L2 normalization, cosine similarity and weighted fusion.

All similarity math runs in double precision regardless of how vectors are
stored. Fused vectors are always scaled back to unit norm so that queries
and index rows stay on the unit sphere and scores remain plain dot products;
cosine is scale-invariant, so renormalization never changes a ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError

ZERO_NORM_EPS = 1e-12
UNIT_NORM_TOL = 1e-6


def _checked(values) -> np.ndarray:
    """A float64 copy of raw input, rejected unless 1-D, non-empty and finite."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("embedding must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("embedding entries must be finite")
    return arr


class _Adopted(NamedTuple):
    """An array only the package holds, kept uncopied by ``EmbeddingVector`` and ``CaptionIndex``."""

    array: np.ndarray


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """A fixed-dimension real vector, optionally flagged as unit-norm.

    Values are coerced to an immutable float64 array. The ``normalized``
    flag is validated at construction: setting it requires the L2 norm to
    be within 1e-6 of one. ``_Adopted`` values, the trusted path, skip both.
    """

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        if isinstance(self.values, _Adopted):
            arr = self.values.array
        else:
            arr = _checked(self.values)
            if self.normalized:
                norm = float(np.linalg.norm(arr))
                if abs(norm - 1.0) > UNIT_NORM_TOL:
                    raise ValueError(f"normalized flag set but L2 norm is {norm!r}")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def _unit(values: np.ndarray) -> np.ndarray:
    """``values`` over its L2 norm: the one place a unit vector is made.

    An overflowing norm raises ValueError. Callers that pass outside float64
    values run this under ``np.errstate(over="ignore")``, so the overflow is
    not also a RuntimeWarning.
    """
    norm = float(np.linalg.norm(values))
    if norm <= ZERO_NORM_EPS:
        raise ZeroVectorError("cannot normalize a zero vector")
    if not math.isfinite(norm):
        raise ValueError("cannot normalize a vector whose L2 norm overflows float64")
    return values / norm


@dataclass(frozen=True)
class FusionWeights:
    """Complementary image/text weights for weighted-sum fusion."""

    w_img: float
    w_text: float

    def __post_init__(self):
        if not (0.0 <= self.w_img <= 1.0 and 0.0 <= self.w_text <= 1.0):
            raise ValueError("fusion weights must lie in [0, 1]")
        if abs(self.w_img + self.w_text - 1.0) > 1e-9:
            raise ValueError(
                f"fusion weights must sum to 1, got {self.w_img} + {self.w_text}"
            )


# Default query-side weights; heavier text weighting is used when fusing
# on the index side, and a near-pure image weighting suits noisy corpora.
DEFAULT_QUERY_WEIGHTS = FusionWeights(0.7, 0.3)
DEFAULT_INDEX_WEIGHTS = FusionWeights(0.3, 0.7)


def clamp_score(x: float) -> float:
    """Pin a cosine score into [-1, 1], absorbing float round-off."""
    return min(1.0, max(-1.0, float(x)))


def l2_normalize(v: EmbeddingVector | np.ndarray) -> EmbeddingVector:
    """Scale ``v``, a vector or a raw 1-D array checked like one, to unit L2 norm."""
    values = v.values if isinstance(v, EmbeddingVector) else _checked(v)
    with np.errstate(over="ignore"):
        return EmbeddingVector(_unit(values), normalized=True)


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of the angle between two vectors, in [-1, 1].

    When both inputs carry the unit-norm flag this reduces to a plain dot
    product; otherwise the dot product is divided by both norms.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dim {a.dim} vs {b.dim}")
    dot = float(np.dot(a.values, b.values))
    if a.normalized and b.normalized:
        return clamp_score(dot)
    na = float(np.linalg.norm(a.values))
    nb = float(np.linalg.norm(b.values))
    if na <= ZERO_NORM_EPS or nb <= ZERO_NORM_EPS:
        raise ZeroVectorError("cosine similarity of a zero vector is undefined")
    return clamp_score(dot / (na * nb))


def fuse(
    e_img: EmbeddingVector,
    e_text: EmbeddingVector,
    w: FusionWeights = DEFAULT_QUERY_WEIGHTS,
) -> EmbeddingVector:
    """Weighted sum of a unit image embedding and a unit text embedding.

    Returns ``w.w_img * e_img + w.w_text * e_text`` scaled back onto the
    unit sphere. A zero weight on either side returns the other input
    unchanged, so degenerate weights reproduce single-modality retrieval
    bit-for-bit.
    """
    if e_img.dim != e_text.dim:
        raise DimensionMismatchError(f"dim {e_img.dim} vs {e_text.dim}")
    if not (e_img.normalized and e_text.normalized):
        raise ValueError("fuse expects unit-norm inputs; normalize at ingestion")
    if w.w_text == 0.0:
        return e_img
    if w.w_img == 0.0:
        return e_text
    return EmbeddingVector(_fused(e_img.values[None], e_text.values[None], [w])[0], normalized=True)


def _fused(images: np.ndarray, texts: np.ndarray, weights: Sequence[FusionWeights]) -> np.ndarray:
    """``fuse`` of each row pair of two unit float64 matrices at each of ``weights``.

    Row ``j * len(weights) + i`` of the C-ordered (G, d) result fuses row j
    of ``images`` and ``texts`` at ``weights[i]``; a zero weight gives the
    other row's bits. The first row that ``_unit`` rejects raises its error.
    """
    if images.shape[1] != texts.shape[1]:
        raise DimensionMismatchError(f"dim {images.shape[1]} vs {texts.shape[1]}")
    a, b = np.array([(w.w_img, w.w_text) for w in weights]).T
    fused = (a[:, None] * images[:, None] + b[:, None] * texts[:, None]).reshape(-1, images.shape[1])
    norms = np.sqrt(np.vecdot(fused, fused))  # the bits of _unit's np.linalg.norm (pinned in test_vectors)
    if any(w.w_img == 0.0 or w.w_text == 0.0 for w in weights):
        by_point = fused.reshape(len(images), len(weights), -1)
        by_point[:, b == 0.0] = images[:, None]
        by_point[:, a == 0.0] = texts[:, None]
        norms.reshape(len(images), -1)[:, (a == 0.0) | (b == 0.0)] = 1.0  # x / 1.0 keeps the bits of x
    if not ZERO_NORM_EPS < norms.min() <= norms.max() < np.inf:
        _unit(fused[np.argmin((norms > ZERO_NORM_EPS) & np.isfinite(norms))])  # raises as one row's fusion does
    fused /= norms[:, None]
    return fused
