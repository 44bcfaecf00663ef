import numpy as np
import pytest

from f4search.encoders import EncoderSpec, encode_text_synthetic
from f4search.errors import (
    MissingPredictionTextError,
    NoItemsError,
    UnknownCandidateIdError,
)
from f4search.index import Caption, build_index
from f4search.rerank import parse_items, rerank, retrieve_and_rerank
from f4search.search import QueryBundle, RankedList, search_fused_topk, search_topk
from f4search.vectors import EmbeddingVector, FusionWeights, cosine_similarity, l2_normalize

from conftest import unit


class TestParseItems:
    def test_three_items(self):
        assert parse_items("chicken, rice, curry leaves").phrases == (
            "chicken",
            "rice",
            "curry leaves",
        )

    def test_four_items(self):
        assert len(parse_items("scallop, cauliflower, greens, herb oil").phrases) == 4

    def test_trim_dedup_casefold(self):
        assert parse_items(" Rice ,, rice, ").phrases == ("rice",)

    def test_multiword_items_stay_intact(self):
        assert parse_items("herb oil and friends, rice").phrases == (
            "herb oil and friends",
            "rice",
        )

    def test_no_items(self):
        with pytest.raises(NoItemsError):
            parse_items(" , , ")

    def test_order_preserved(self):
        assert parse_items("b, a, c, a").phrases == ("b", "a", "c")


def word_index(words, spec, prefix="i"):
    captions = [Caption(f"{prefix}{j:02d}", w, "sparse") for j, w in enumerate(words)]
    return build_index(captions, spec)


class TestRerank:
    def test_exact_item_match_wins_with_score_one(self, synthetic_spec):
        index = word_index(["shrimp", "chicken", "noodles"], synthetic_spec)
        query = encode_text_synthetic("noodles", synthetic_spec)
        initial = search_topk(query, index, k=3)
        result = rerank(initial, parse_items("shrimp"), index, synthetic_spec)
        assert result.ids[0] == "i00"
        assert result.scores[0] == pytest.approx(1.0, abs=1e-6)
        assert result.stage == "reranked"

    def test_token_overlap_orders_candidates(self, synthetic_spec):
        index = word_index(["shrimp", "chicken"], synthetic_spec)
        initial = search_topk(encode_text_synthetic("soup", synthetic_spec), index, k=2)
        result = rerank(initial, parse_items("shrimp"), index, synthetic_spec)
        assert result.ids[0] == "i00"

    def test_single_item_order_is_descending_cosine(self, synthetic_spec):
        words = [f"w{j}" for j in range(12)]
        index = word_index(words, synthetic_spec)
        query = unit(np.random.default_rng(2).standard_normal(32))
        initial = search_topk(query, index, k=12)
        item = "target item phrase"
        result = rerank(initial, parse_items(item), index, synthetic_spec)
        item_vec = encode_text_synthetic(item, synthetic_spec)
        brute = sorted(
            (
                (-cosine_similarity(EmbeddingVector(index.embeddings[index.row_of(cid)]), item_vec), cid)
                for cid in initial.ids
            ),
        )
        assert result.ids == tuple(cid for _, cid in brute)

    def test_candidate_set_preserved(self, synthetic_spec):
        index = word_index([f"w{j}" for j in range(10)], synthetic_spec)
        initial = search_topk(encode_text_synthetic("w1 w2", synthetic_spec), index, k=6)
        result = rerank(initial, parse_items("w3, w4"), index, synthetic_spec)
        assert sorted(result.ids) == sorted(initial.ids)

    def test_idempotent(self, synthetic_spec):
        index = word_index([f"w{j}" for j in range(10)], synthetic_spec)
        initial = search_topk(encode_text_synthetic("w5", synthetic_spec), index, k=8)
        items = parse_items("w2, w7, w9")
        once = rerank(initial, items, index, synthetic_spec)
        twice = rerank(once, items, index, synthetic_spec)
        assert once.entries == twice.entries

    def test_item_order_independent(self, synthetic_spec):
        index = word_index([f"w{j}" for j in range(10)], synthetic_spec)
        initial = search_topk(encode_text_synthetic("w5", synthetic_spec), index, k=8)
        forward = rerank(initial, parse_items("w2, w7, w9"), index, synthetic_spec)
        backward = rerank(initial, parse_items("w9, w7, w2"), index, synthetic_spec)
        assert forward.entries == backward.entries

    def test_unknown_candidate_id(self, synthetic_spec):
        index = word_index(["a", "b"], synthetic_spec)
        fake = RankedList((("zz", 0.5),), k=1)
        with pytest.raises(UnknownCandidateIdError, match="zz"):
            rerank(fake, parse_items("a"), index, synthetic_spec)


class TestRetrieveAndRerank:
    # Geometry chosen so the five distractors dominate the image embedding,
    # the four ground-truth ingredients land at initial ranks 6-9 inside the
    # N=10 pool, and item-level re-ranking lifts them to ranks 1-4.
    GT = ("garlic", "onion", "pepper", "cumin")
    DISTRACTORS = ("apple", "banana", "cherry", "date", "elder")
    FILLERS = ("walnut", "pecan", "almond", "cashew", "peanut", "hazel")

    @pytest.fixture()
    def fixture(self):
        spec = EncoderSpec("synthetic", 256, seed=5)
        words = list(self.GT + self.DISTRACTORS + self.FILLERS)
        index = word_index(words, spec)
        vecs = {w: encode_text_synthetic(w, spec).values for w in words}
        e_img = l2_normalize(
            EmbeddingVector(sum(vecs[w] for w in self.DISTRACTORS) / len(self.DISTRACTORS))
        )
        bundle = QueryBundle(
            "q",
            e_img,
            sparse_pred_text=", ".join(self.GT),
            gt_caption_ids=("i00", "i01", "i02", "i03"),
        )
        return spec, index, bundle

    def test_buried_ingredients_recovered(self, fixture):
        spec, index, bundle = fixture
        initial = search_fused_topk(
            bundle, index, FusionWeights(0.7, 0.3), "sparse", spec, k=10
        )
        gt = set(bundle.gt_caption_ids)
        initial_ranks = sorted(
            rank for rank, cid in enumerate(initial.ids, start=1) if cid in gt
        )
        assert initial_ranks == [6, 7, 8, 9]

        result = retrieve_and_rerank(
            bundle, index, FusionWeights(0.7, 0.3), N=10, k=4, encoder=spec
        )
        assert set(result.ids) == gt
        assert len(result.entries) == 4
        assert result.stage == "reranked"

    def test_full_pool_is_permutation_of_full_ranking(self, fixture):
        spec, index, bundle = fixture
        n = len(index)
        result = retrieve_and_rerank(
            bundle, index, FusionWeights(0.7, 0.3), N=n, k=n, encoder=spec
        )
        assert sorted(result.ids) == sorted(c.id for c in index.captions)

    def test_pool_truncation_limits_recall(self, fixture):
        # A ground-truth caption outside the stage-1 pool can never reappear.
        spec, index, bundle = fixture
        result = retrieve_and_rerank(
            bundle, index, FusionWeights(0.7, 0.3), N=5, k=5, encoder=spec
        )
        initial = search_fused_topk(
            bundle, index, FusionWeights(0.7, 0.3), "sparse", spec, k=5
        )
        assert set(result.ids) == set(initial.ids)

    def test_k_of_four_from_four_item_caption(self, fixture):
        spec, index, bundle = fixture
        result = retrieve_and_rerank(bundle, index, N=10, k=4, encoder=spec)
        assert len(result.entries) == 4

    def test_requires_sparse_text(self, fixture):
        spec, index, bundle = fixture
        silent = QueryBundle("q", bundle.e_img)
        with pytest.raises(MissingPredictionTextError):
            retrieve_and_rerank(silent, index, N=10, k=4, encoder=spec)

    def test_pool_must_cover_k(self, fixture):
        spec, index, bundle = fixture
        with pytest.raises(ValueError, match="N=3"):
            retrieve_and_rerank(bundle, index, N=3, k=4, encoder=spec)

    def test_default_pool_size(self, fixture):
        spec, index, bundle = fixture
        result = retrieve_and_rerank(bundle, index, k=4, encoder=spec)
        assert len(result.entries) == 4
