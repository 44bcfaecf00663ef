import numpy as np
import pytest

from f4search.errors import DimensionMismatchError, ZeroVectorError
from f4search.vectors import (
    DEFAULT_INDEX_WEIGHTS,
    DEFAULT_QUERY_WEIGHTS,
    EmbeddingVector,
    FusionWeights,
    cosine_similarity,
    fuse,
    l2_normalize,
)

from conftest import unit


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
