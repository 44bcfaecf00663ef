import numpy as np
import pytest

from f4search.encoders import (
    EncoderSpec,
    _token_seed,
    encode_image_synthetic,
    encode_text_synthetic,
    encode_texts,
    tokenize,
)
from f4search.errors import EmptyTextError
from f4search.vectors import cosine_similarity


class TestEncoderSpec:
    def test_dim_floor(self):
        with pytest.raises(ValueError, match=">= 8"):
            EncoderSpec("synthetic", 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            EncoderSpec("neural", 32)

    def test_remote_needs_endpoint(self):
        with pytest.raises(ValueError, match="endpoint"):
            EncoderSpec("remote", 32)

    def test_seed_range(self):
        with pytest.raises(ValueError, match="64-bit"):
            EncoderSpec("synthetic", 32, seed=-1)

    @pytest.mark.parametrize(
        "spec",
        [
            EncoderSpec("synthetic", 64, seed=42),
            EncoderSpec("remote", 768, endpoint="http://host:8080/v1"),
            EncoderSpec("file", 512),
        ],
    )
    def test_fingerprint_round_trip(self, spec):
        assert EncoderSpec.from_fingerprint(spec.fingerprint()) == spec

    def test_from_fingerprint_rejects_garbage(self):
        with pytest.raises(ValueError):
            EncoderSpec.from_fingerprint("nonsense")


class TestTokenize:
    def test_commas_and_whitespace(self):
        assert tokenize("Chicken, rice  curry") == ["chicken", "rice", "curry"]

    def test_punctuation_stripped(self):
        assert tokenize("plate. of (rice)!") == ["plate", "of", "rice"]

    def test_empty(self):
        assert tokenize(" ,, !! ") == []


class TestSyntheticText:
    def test_deterministic(self, synthetic_spec):
        a = encode_text_synthetic("rice", synthetic_spec)
        b = encode_text_synthetic("rice", synthetic_spec)
        np.testing.assert_array_equal(a.values, b.values)
        assert cosine_similarity(a, b) == 1.0

    def test_cross_run_anchor(self):
        # Frozen output for ("rice", dim=8, seed=7); guards hash/rng stability
        # across platforms and processes.
        spec = EncoderSpec("synthetic", 8, seed=7)
        v = encode_text_synthetic("rice", spec)
        np.testing.assert_allclose(
            v.values,
            [
                -0.3516704106965417,
                0.1832459547335793,
                -0.5968979483227682,
                0.288612339046054,
                -0.006930573650855489,
                0.3575246682029979,
                -0.3460404232057692,
                0.39439663238359285,
            ],
            rtol=0,
            atol=0,
        )

    def test_token_multiset_invariance(self, synthetic_spec):
        a = encode_text_synthetic("chicken rice", synthetic_spec)
        b = encode_text_synthetic("rice chicken", synthetic_spec)
        c = encode_text_synthetic("Rice, CHICKEN!", synthetic_spec)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.values, c.values)

    def test_token_overlap_orders_similarity(self):
        spec = EncoderSpec("synthetic", 256, seed=7)
        query = encode_text_synthetic("chicken rice", spec)
        near = encode_text_synthetic("chicken curry", spec)
        far = encode_text_synthetic("beef stew", spec)
        assert cosine_similarity(query, near) > cosine_similarity(query, far)

    def test_empty_text(self, synthetic_spec):
        with pytest.raises(EmptyTextError):
            encode_text_synthetic("", synthetic_spec)
        with pytest.raises(EmptyTextError):
            encode_text_synthetic(" ,, ", synthetic_spec)

    def test_output_dim_and_norm(self, synthetic_spec):
        v = encode_text_synthetic("some longer caption with words", synthetic_spec)
        assert v.dim == synthetic_spec.dim
        assert np.linalg.norm(v.values) == pytest.approx(1.0, abs=1e-12)

    def test_bits_equal_sum_divided_by_norm(self):
        spec = EncoderSpec("synthetic", 48, seed=11)
        for text in ("rice", "beans, rice and lime", "lime lime rice"):
            total = np.zeros(spec.dim)
            for tok in sorted(tokenize(text)):
                raw = np.random.default_rng(_token_seed(tok, spec.seed)).standard_normal(spec.dim)
                total += raw / float(np.linalg.norm(raw))
            expected = total / float(np.linalg.norm(total))
            assert encode_text_synthetic(text, spec).values.tobytes() == expected.tobytes()

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            encode_text_synthetic("rice", EncoderSpec("file", 32))


class TestSyntheticImage:
    def test_zero_noise_equals_text_encoding(self, synthetic_spec):
        clean = encode_text_synthetic("chicken rice", synthetic_spec)
        img = encode_image_synthetic("chicken rice", 0.0, synthetic_spec, noise_seed=123)
        np.testing.assert_array_equal(img.values, clean.values)

    def test_huge_noise_destroys_signal(self):
        spec = EncoderSpec("synthetic", 256, seed=7)
        clean = encode_text_synthetic("chicken rice", spec)
        below = sum(
            cosine_similarity(
                encode_image_synthetic("chicken rice", 1e6, spec, noise_seed=s), clean
            )
            < 0.2
            for s in range(100)
        )
        assert below >= 99

    def test_deterministic_given_seeds(self, synthetic_spec):
        a = encode_image_synthetic("rice bowl", 0.5, synthetic_spec, noise_seed=11)
        b = encode_image_synthetic("rice bowl", 0.5, synthetic_spec, noise_seed=11)
        np.testing.assert_array_equal(a.values, b.values)

    def test_bits_equal_sum_divided_by_norm(self, synthetic_spec):
        clean = encode_text_synthetic("a plate of rice", synthetic_spec)
        for sigma, seed in ((0.25, 1), (2.0, 2)):
            noise = np.random.default_rng(seed).standard_normal(synthetic_spec.dim)
            x = clean.values + sigma * noise
            expected = x / float(np.linalg.norm(x))
            got = encode_image_synthetic("a plate of rice", sigma, synthetic_spec, seed)
            assert got.values.tobytes() == expected.tobytes()

    def test_negative_sigma_rejected(self, synthetic_spec):
        with pytest.raises(ValueError):
            encode_image_synthetic("rice", -0.1, synthetic_spec, noise_seed=0)


class TestEncodeTexts:
    def test_synthetic_batch(self, synthetic_spec):
        vecs = encode_texts(["rice", "beans"], synthetic_spec)
        assert len(vecs) == 2
        np.testing.assert_array_equal(
            vecs[0].values, encode_text_synthetic("rice", synthetic_spec).values
        )

    def test_file_kind_cannot_encode(self):
        with pytest.raises(ValueError, match="cannot encode"):
            encode_texts(["rice"], EncoderSpec("file", 32))
