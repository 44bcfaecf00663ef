from types import SimpleNamespace

import numpy as np
import pytest

from f4search.errors import DimensionMismatchError, ZeroVectorError
from f4search.search import _query_norms
from f4search.vectors import (
    DEFAULT_INDEX_WEIGHTS,
    DEFAULT_QUERY_WEIGHTS,
    UNIT_NORM_TOL,
    EmbeddingVector,
    FusionWeights,
    _fused,
    _norms,
    _unit,
    cosine_similarity,
    fuse,
    l2_normalize,
)

from conftest import unit, unit_reference


class TestEmbeddingVector:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingVector([1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            EmbeddingVector([float("inf"), 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmbeddingVector([])

    def test_rejects_false_normalized_flag(self):
        with pytest.raises(ValueError, match="normalized"):
            EmbeddingVector([3.0, 4.0], normalized=True)

    def test_values_are_immutable(self):
        v = EmbeddingVector([1.0, 2.0])
        with pytest.raises(ValueError):
            v.values[0] = 9.0


class TestL2Normalize:
    def test_analytic_three_four(self):
        result = l2_normalize(EmbeddingVector([3.0, 4.0]))
        np.testing.assert_allclose(result.values, [0.6, 0.8])
        assert result.normalized

    def test_already_unit(self):
        result = l2_normalize(EmbeddingVector([1.0, 0.0]))
        np.testing.assert_array_equal(result.values, [1.0, 0.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize(EmbeddingVector([0.0, 0.0]))

    def test_overflowing_norm_rejected(self):
        for v in (EmbeddingVector([1e308, 1e308]), np.array([1e200] * 8)):
            with pytest.raises(ValueError, match="overflows"):
                l2_normalize(v)

    def test_raw_array_matches_vector_input_bitwise(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 16, 257):
            arr = rng.standard_normal(dim) * 10.0 ** rng.integers(-5, 5)
            from_raw = l2_normalize(arr)
            assert from_raw.normalized
            assert from_raw.values.tobytes() == l2_normalize(EmbeddingVector(arr)).values.tobytes()
        with pytest.raises(ZeroVectorError):
            l2_normalize(np.zeros(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "raw",
        [[1.0, float("nan")], [float("inf"), 0.0], [], [[1.0, 0.0], [0.0, 1.0]]],
        ids=["nan", "inf", "empty", "2-d"],
    )
    def test_raw_array_rejected_like_vector(self, raw):
        with pytest.raises(ValueError) as expected:
            EmbeddingVector(np.array(raw))
        with pytest.raises(ValueError) as got:
            l2_normalize(np.array(raw))
        assert str(got.value) == str(expected.value)


# The dims and scales at which the batched norm below is pinned: around the
# dot kernel's unroll and block sizes, and from near underflow to near overflow.
NORM_DIMS = [*range(1, 70), 127, 128, 129, 255, 256, 257, 512, 768, 1024, 1025]
NORM_SCALES = [1e-150, 1e-50, 1.0, 1e50, 1e150]


@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_batched_norms_have_the_bits_of_per_row_norms(strided):
    # Every unit vector, the F4E loader's rows and the query norms take their
    # norms from _norms; a row, in a block or alone as a 1-D vector, must get
    # the bits np.linalg.norm gives it. Strided means rows spaced apart, each
    # still contiguous: with strided elements vecdot leaves the dot kernel and
    # most bits differ.
    rng = np.random.default_rng(11)
    for dim in NORM_DIMS:
        for scale in NORM_SCALES:
            wide = rng.standard_normal((12, dim + 3)) * scale
            rows = wide[::2, 1 : dim + 1] if strided else np.ascontiguousarray(wide[:6, :dim])
            assert all(row.flags.c_contiguous for row in rows)
            per_row = np.array([np.linalg.norm(row) for row in rows])
            assert _norms(rows).tobytes() == per_row.tobytes(), (dim, scale)
            assert np.array([_norms(row) for row in rows]).tobytes() == per_row.tobytes(), (dim, scale)


# Scales from above the zero-norm threshold to near overflow, and the two errors _unit raises.
UNIT_SCALES = [1e-6, 1.0, 1e50, 1e150]
FAILURES = (ZeroVectorError, ValueError)


@pytest.mark.parametrize("dim", [1, 2, 7, 64, 65, 256, 257, 1025])
def test_block_unit_has_the_bits_of_per_row_units(dim):
    rng = np.random.default_rng(dim)
    for scale in UNIT_SCALES:
        block = rng.standard_normal((9, dim)) * scale
        want = np.array([unit_reference(row) for row in block])
        assert _unit(block).tobytes() == want.tobytes(), scale
        assert _unit(block[:0]).shape == (0, dim)
        for row, unit_row in zip(block, want):
            assert _unit(row).tobytes() == unit_row.tobytes(), scale


@pytest.mark.parametrize("order", [("zero", "over"), ("over", "zero")], ids=["zero-first", "overflow-first"])
@pytest.mark.parametrize("at", [0, 3, 6], ids=["first", "middle", "last"])
def test_block_unit_raises_the_first_failing_rows_error(order, at):
    # Two failing rows, the earlier at ``at``: the block raises what a
    # per-row loop raises at the first of them, and a 1-D row its own error.
    block = np.random.default_rng(at).standard_normal((8, 16))
    bad = {"zero": np.zeros(16), "over": np.full(16, 1e200)}
    block[at], block[at + 1] = bad[order[0]], bad[order[1]]
    with np.errstate(over="ignore"):
        with pytest.raises(FAILURES) as want:
            [unit_reference(row) for row in block]
        with pytest.raises(FAILURES) as got:
            _unit(block)
        for row in bad.values():
            with pytest.raises(FAILURES) as want_row:
                unit_reference(row)
            with pytest.raises(FAILURES) as got_row:
                _unit(row)
            assert (type(got_row.value), str(got_row.value)) == (type(want_row.value), str(want_row.value))
    assert type(got.value) is type(want.value) is (ZeroVectorError if order[0] == "zero" else ValueError)
    assert str(got.value) == str(want.value)


class TestCosineSimilarity:
    def test_identical_unit_vectors(self):
        a = EmbeddingVector([1.0, 0.0], normalized=True)
        assert cosine_similarity(a, a) == 1.0

    def test_orthogonal(self):
        a = EmbeddingVector([1.0, 0.0], normalized=True)
        b = EmbeddingVector([0.0, 1.0], normalized=True)
        assert cosine_similarity(a, b) == 0.0

    def test_analytic_inverse_sqrt_two(self):
        a = EmbeddingVector([1.0, 1.0])
        b = EmbeddingVector([1.0, 0.0])
        assert cosine_similarity(a, b) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_similarity(EmbeddingVector([1.0, 0.0]), EmbeddingVector([1.0, 0.0, 0.0]))

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cosine_similarity(EmbeddingVector([0.0, 0.0]), EmbeddingVector([1.0, 0.0]))

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = unit(rng.standard_normal(16))
            assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = EmbeddingVector(rng.standard_normal(16))
            b = EmbeddingVector(rng.standard_normal(16))
            assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = EmbeddingVector(rng.standard_normal(16))
            b = EmbeddingVector(rng.standard_normal(16))
            base = cosine_similarity(a, b)
            for lam in (0.5, 2.0, 100.0):
                scaled = EmbeddingVector(lam * a.values)
                assert cosine_similarity(scaled, b) == pytest.approx(base, abs=1e-6)


class TestFusionWeights:
    def test_defaults(self):
        assert (DEFAULT_QUERY_WEIGHTS.w_img, DEFAULT_QUERY_WEIGHTS.w_text) == (0.7, 0.3)
        assert (DEFAULT_INDEX_WEIGHTS.w_img, DEFAULT_INDEX_WEIGHTS.w_text) == (0.3, 0.7)

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FusionWeights(0.7, 0.4)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            FusionWeights(1.2, -0.2)

    def test_noisy_regime_weights_construct(self):
        w = FusionWeights(0.95, 0.05)
        assert w.w_img == 0.95


class TestFuse:
    def test_zero_text_weight_returns_image(self):
        e_img = EmbeddingVector([1.0, 0.0], normalized=True)
        e_text = EmbeddingVector([0.0, 1.0], normalized=True)
        fused = fuse(e_img, e_text, FusionWeights(1.0, 0.0))
        assert fused is e_img

    def test_weighted_sum_unnormalized(self):
        e_img = EmbeddingVector([1.0, 0.0], normalized=True)
        e_text = EmbeddingVector([0.0, 1.0], normalized=True)
        fused = fuse(e_img, e_text, FusionWeights(0.7, 0.3))
        np.testing.assert_allclose(fused.values * np.linalg.norm([0.7, 0.3]), [0.7, 0.3])
        assert fused.normalized

    def test_weighted_sum_renormalized(self):
        # Analytic oracle: divide [0.7, 0.3] by its norm sqrt(0.58).
        e_img = EmbeddingVector([1.0, 0.0], normalized=True)
        e_text = EmbeddingVector([0.0, 1.0], normalized=True)
        fused = fuse(e_img, e_text, FusionWeights(0.7, 0.3))
        expected = np.array([0.7, 0.3]) / np.linalg.norm([0.7, 0.3])
        np.testing.assert_allclose(fused.values, expected, atol=1e-12)
        np.testing.assert_allclose(fused.values, [0.91914503, 0.39391930], atol=1e-6)
        assert fused.normalized

    def test_array_core_returns_the_input_at_a_zero_weight(self):
        rng = np.random.default_rng(4)
        e_img, e_text = unit(rng.standard_normal(8)).values, unit(rng.standard_normal(8)).values
        got = _fused(e_img[None], e_text[None], [FusionWeights(1.0, 0.0), FusionWeights(0.0, 1.0)])
        assert got[0].tobytes() == e_img.tobytes()
        assert got[1].tobytes() == e_text.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fuse(
                EmbeddingVector([1.0, 0.0], normalized=True),
                EmbeddingVector([1.0, 0.0, 0.0], normalized=True),
            )

    def test_requires_unit_inputs(self):
        with pytest.raises(ValueError, match="unit-norm"):
            fuse(EmbeddingVector([3.0, 4.0]), EmbeddingVector([0.0, 1.0], normalized=True))

    def test_bits_equal_sum_divided_by_norm(self):
        rng = np.random.default_rng(6)
        for w in (FusionWeights(0.7, 0.3), FusionWeights(0.5, 0.5), FusionWeights(0.05, 0.95)):
            e_img = unit(rng.standard_normal(64))
            e_text = unit(rng.standard_normal(64))
            x = w.w_img * e_img.values + w.w_text * e_text.values
            expected = x / float(np.linalg.norm(x))
            assert fuse(e_img, e_text, w).values.tobytes() == expected.tobytes()

    def test_antipodal_equal_weights_collapse(self):
        e_img = EmbeddingVector([1.0, 0.0], normalized=True)
        e_text = EmbeddingVector([-1.0, 0.0], normalized=True)
        with pytest.raises(ZeroVectorError):
            fuse(e_img, e_text, FusionWeights(0.5, 0.5))

    def test_degenerate_weights_align_with_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            e_img = unit(rng.standard_normal(8))
            e_text = unit(rng.standard_normal(8))
            only_img = fuse(e_img, e_text, FusionWeights(1.0, 0.0))
            only_text = fuse(e_img, e_text, FusionWeights(0.0, 1.0))
            assert cosine_similarity(only_img, e_img) == pytest.approx(1.0, abs=1e-6)
            assert cosine_similarity(only_text, e_text) == pytest.approx(1.0, abs=1e-6)

    def test_renormalization_preserves_ranking(self):
        # Cosine is scale-invariant, so the argsort over an index must not
        # depend on whether the fused query was renormalized.
        rng = np.random.default_rng(4)
        rows = rng.standard_normal((50, 16))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        for _ in range(20):
            e_img = unit(rng.standard_normal(16))
            e_text = unit(rng.standard_normal(16))
            raw = 0.7 * e_img.values + 0.3 * e_text.values
            renorm = fuse(e_img, e_text, FusionWeights(0.7, 0.3))
            order_raw = np.argsort(-(rows @ raw))
            order_renorm = np.argsort(-(rows @ renorm.values))
            np.testing.assert_array_equal(order_raw, order_renorm)


def fused_reference(e_img, e_text, w):
    """One pair's fusion as a per-point loop makes it: the spec of the block fusion's bits and errors."""
    if len(e_img) != len(e_text):
        raise DimensionMismatchError(f"dim {len(e_img)} vs {len(e_text)}")
    if w.w_text == 0.0:
        return e_img
    if w.w_img == 0.0:
        return e_text
    return unit_reference(w.w_img * e_img + w.w_text * e_text)


SWEEP_WEIGHTS = [FusionWeights(1.0 - g, g) for g in (i / 10 for i in range(11))]


def near_unit_rows(rng, n, dim):
    """``n`` random rows at ``dim``, each scaled within the unit-norm tolerance."""
    rows = rng.standard_normal((n, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return rows * (1.0 + rng.uniform(-0.9, 0.9, (n, 1)) * UNIT_NORM_TOL)


def fusable_pairs(rng, n, dim):
    """Image and text rows whose equal-weight fusion cannot collapse."""
    images, texts = near_unit_rows(rng, n, dim), near_unit_rows(rng, n, dim)
    return images, texts * np.sign(np.vecdot(images, texts))[:, None]


@pytest.mark.parametrize("dim", [1, 2, 63, 64, 65, 255, 256, 257, 1025])
def test_block_fusion_has_the_bits_of_per_point_fusion(dim):
    # A sweep grid with both zero weights: the fused rows, the query norms
    # the screen takes and the unit directions it divides out.
    images, texts = fusable_pairs(np.random.default_rng(dim), 6, dim)
    got = _fused(images, texts, SWEEP_WEIGHTS)
    want = [fused_reference(p, t, w) for p, t in zip(images, texts) for w in SWEEP_WEIGHTS]
    assert got.flags.c_contiguous
    assert got.tobytes() == np.array(want).tobytes()
    norms = _query_norms(got, SimpleNamespace(dim=dim))
    want_norms = [float(np.linalg.norm(q)) for q in want]
    assert norms.tobytes() == np.array(want_norms).tobytes()
    units = got / norms[:, None]
    assert units.tobytes() == np.array([q / n for q, n in zip(want, want_norms)]).tobytes()


def test_block_fusion_raises_the_first_per_point_error():
    images, texts = fusable_pairs(np.random.default_rng(8), 3, 8)
    texts[1] = -images[1]  # collapses at equal weights
    with pytest.raises(ZeroVectorError) as want:
        fused_reference(images[1], texts[1], FusionWeights(0.5, 0.5))
    with pytest.raises(ZeroVectorError) as got:
        _fused(images, texts, SWEEP_WEIGHTS)
    assert str(got.value) == str(want.value)
    # Its zero-weight points fuse nothing, so they raise nothing.
    ends = _fused(images, texts, [FusionWeights(1.0, 0.0), FusionWeights(0.0, 1.0)])
    assert ends[2:4].tobytes() == np.array([images[1], texts[1]]).tobytes()
    # A norm that overflows in an earlier bundle raises first.
    images[0] = 1e308
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError) as want:
            fused_reference(images[0], texts[0], SWEEP_WEIGHTS[1])
        with pytest.raises(ValueError) as got:
            _fused(images, texts, SWEEP_WEIGHTS)
    assert str(got.value) == str(want.value)


def test_block_fusion_dim_mismatch_raises_the_per_point_message():
    rng = np.random.default_rng(9)
    images, texts = near_unit_rows(rng, 2, 8), near_unit_rows(rng, 2, 9)
    with pytest.raises(DimensionMismatchError) as want:
        fused_reference(images[0], texts[0], SWEEP_WEIGHTS[0])
    with pytest.raises(DimensionMismatchError) as got:
        _fused(images, texts, SWEEP_WEIGHTS)
    assert str(got.value) == str(want.value) == "dim 8 vs 9"
