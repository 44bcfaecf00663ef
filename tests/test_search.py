import numpy as np
import pytest

from f4search import search
from f4search.encoders import EncoderSpec, encode_image_synthetic, encode_text_synthetic
from f4search.errors import (
    DimensionMismatchError,
    MissingPredictionTextError,
    ZeroVectorError,
)
from f4search.index import Caption, CaptionIndex, build_index
from f4search.search import (
    QueryBundle,
    RankedList,
    search_bidirectional,
    search_fused_topk,
    search_top1_fused,
    search_topk,
    search_topk_naive,
)
from f4search.vectors import EmbeddingVector, FusionWeights

from conftest import unit


def random_index(make_index, n, dim, seed, kind="dense"):
    rng = np.random.default_rng(seed)
    ids = [f"v{i:04d}" for i in range(n)]
    return make_index({i: rng.standard_normal(dim) for i in ids}, kind=kind)


def score_bits(ranked):
    return np.array(ranked.scores, dtype=np.float64).view(np.uint64).tolist()


def test_query_bundle_requires_unit_image():
    with pytest.raises(ValueError, match="unit-norm"):
        QueryBundle("q", EmbeddingVector([3.0, 4.0]))


class TestRankedList:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="sorted"):
            RankedList((("a", 0.1), ("b", 0.9)), k=2)

    def test_rejects_bad_tie_order(self):
        with pytest.raises(ValueError, match="sorted"):
            RankedList((("b", 0.5), ("a", 0.5)), k=2)

    def test_rejects_out_of_range_scores(self):
        with pytest.raises(ValueError, match="outside"):
            RankedList((("a", 1.5),), k=1)

    def test_ids_and_scores_views(self):
        rl = RankedList((("a", 0.9), ("b", 0.1)), k=2)
        assert rl.ids == ("a", "b")
        assert rl.scores == (0.9, 0.1)


class TestSearchTopk:
    def test_single_caption_any_query(self, make_index):
        index = make_index({"only": [0.3, 0.4]})
        result = search_topk(unit([1.0, 1.0]), index, k=5)
        assert result.ids == ("only",)
        assert result.k == 1

    def test_analytic_two_of_three(self, make_index):
        index = make_index({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [0.6, 0.8]})
        result = search_topk(unit([1.0, 0.0]), index, k=2)
        assert result.ids == ("a", "c")
        assert result.scores[0] == pytest.approx(1.0, abs=1e-12)
        assert result.scores[1] == pytest.approx(0.6, abs=1e-7)

    def test_tie_broken_by_ascending_id(self, make_index):
        index = make_index({"b": [1.0, 0.0], "a": [1.0, 0.0]})
        result = search_topk(unit([1.0, 0.0]), index, k=2)
        assert result.ids == ("a", "b")
        assert result.scores[0] == result.scores[1]

    def test_k_beyond_index_gives_full_ranking(self, make_index):
        index = random_index(make_index, 7, 8, seed=0)
        result = search_topk(unit(np.ones(8)), index, k=100)
        assert len(result.entries) == 7

    def test_dimension_mismatch(self, make_index):
        index = make_index({"a": [1.0, 0.0]})
        with pytest.raises(DimensionMismatchError):
            search_topk(unit([1.0, 0.0, 0.0]), index, k=1)

    def test_zero_query_rejected(self, make_index):
        index = make_index({"a": [1.0, 0.0]})
        with pytest.raises(ZeroVectorError):
            search_topk(EmbeddingVector([0.0, 0.0]), index, k=1)

    def test_monotone_containment(self, make_index):
        index = random_index(make_index, 40, 16, seed=5)
        rng = np.random.default_rng(6)
        query = unit(rng.standard_normal(16))
        previous = search_topk(query, index, 1).ids
        for k in range(2, 15):
            current = search_topk(query, index, k).ids
            assert current[: len(previous)] == previous
            previous = current

    def test_scale_invariant_ids(self, make_index):
        index = random_index(make_index, 50, 16, seed=9)
        rng = np.random.default_rng(10)
        query = rng.standard_normal(16)
        base = search_topk(EmbeddingVector(query), index, 10).ids
        # At 1e39 the query itself overflows float32, so only a screen on the
        # unit direction keeps the exact result.
        for lam in (0.5, 2.0, 100.0, 1e-10, 1e39):
            scaled = EmbeddingVector(lam * query)
            got = search_topk(scaled, index, 10)
            assert got.ids == base
            want = search._rank(index, search._query_scores(scaled, index), 10, "initial")
            assert got.entries == want.entries
            assert score_bits(got) == score_bits(want)

    def test_naive_dimension_mismatch(self, make_index):
        index = make_index({"a": [1.0, 0.0]})
        with pytest.raises(DimensionMismatchError):
            search_topk_naive(unit([1.0, 0.0, 0.0]), index, k=1)

    def test_naive_equivalence_quick(self, make_index):
        rng = np.random.default_rng(11)
        for case in range(20):
            dim = int(rng.choice([8, 16]))
            index = random_index(make_index, 30, dim, seed=100 + case)
            query = unit(rng.standard_normal(dim))
            k = int(rng.integers(1, 12))
            fast = search_topk(query, index, k)
            slow = search_topk_naive(query, index, k)
            assert fast.ids == slow.ids
            np.testing.assert_allclose(fast.scores, slow.scores, atol=1e-6)

        # Near-duplicates of the query whose cosines round above 1.0: the
        # clamp makes them tie at 1.0, so the order must follow the ids,
        # which are shuffled against the row order.
        for case in range(20):
            query = unit(rng.standard_normal(8))
            ids = [f"n{i}" for i in rng.permutation(6)]
            rows = {cid: query.values + 1e-8 * rng.standard_normal(8) for cid in ids}
            index = make_index(rows)
            for k in range(1, 7):
                assert search_topk(query, index, k).ids == search_topk_naive(query, index, k).ids


class TestFusedSearch:
    def test_pure_image_weights_identical_to_baseline(self, make_index):
        index = random_index(make_index, 25, 8, seed=12)
        e_img = unit(np.random.default_rng(13).standard_normal(8))
        bundle = QueryBundle("q", e_img)  # no prediction texts at all
        fused = search_fused_topk(bundle, index, FusionWeights(1.0, 0.0), k=25)
        baseline = search_topk(e_img, index, 25)
        assert fused.entries == baseline.entries

    def test_top1_defaults(self, make_index, synthetic_spec):
        captions = [Caption("a", "grilled chicken with potatoes", "dense")]
        index = build_index(captions, synthetic_spec)
        e_img = encode_text_synthetic("grilled chicken with potatoes", synthetic_spec)
        bundle = QueryBundle("q", e_img, dense_pred_text="chicken potatoes")
        result = search_top1_fused(bundle, index, encoder=synthetic_spec)
        assert result.ids == ("a",)
        assert result.k == 1

    def test_missing_prediction_text(self, make_index):
        index = random_index(make_index, 5, 8, seed=14)
        bundle = QueryBundle("q", unit(np.ones(8)))
        with pytest.raises(MissingPredictionTextError):
            search_fused_topk(bundle, index, FusionWeights(0.7, 0.3), k=1,
                              encoder=EncoderSpec("synthetic", 8, seed=0))

    def test_fusion_recovers_ground_truth(self):
        # Image noise is set so pure-image retrieval misses the GT caption;
        # the prediction shares tokens with it, so the fused query must rank
        # the GT strictly better and place it first.
        spec = EncoderSpec("synthetic", 32, seed=3)
        gt_text = "alpha bravo charlie delta echo"
        captions = [Caption("gt", gt_text, "dense")]
        rng = np.random.default_rng(21)
        pool = [f"word{j}" for j in range(60)]
        for i in range(29):
            words = rng.choice(pool, size=5, replace=False)
            captions.append(Caption(f"d{i:02d}", " ".join(words), "dense"))
        index = build_index(captions, spec)

        e_img = encode_image_synthetic(gt_text, 1.0, spec, noise_seed=77)
        bundle = QueryBundle(
            "q", e_img, dense_pred_text="alpha bravo charlie", gt_caption_ids=("gt",)
        )

        baseline = search_topk(e_img, index, len(index))
        fused = search_fused_topk(
            bundle, index, FusionWeights(0.7, 0.3), "dense", spec, k=len(index)
        )
        baseline_rank = baseline.ids.index("gt") + 1
        fused_rank = fused.ids.index("gt") + 1
        assert baseline_rank > 1, "noise calibration must defeat the baseline"
        assert fused_rank < baseline_rank
        assert fused_rank == 1


class TestBidirectional:
    def test_index_weight_all_text_equals_uni(self, make_index, synthetic_spec):
        index = random_index(make_index, 20, 32, seed=15)
        rng = np.random.default_rng(16)
        bundle = QueryBundle(
            "q", unit(rng.standard_normal(32)), sparse_pred_text="rice, beans"
        )
        uni = search_fused_topk(
            bundle, index, FusionWeights(0.7, 0.3), "sparse", synthetic_spec, k=20
        )
        bi = search_bidirectional(
            bundle, index, FusionWeights(0.7, 0.3), FusionWeights(0.0, 1.0),
            "sparse", synthetic_spec,
        )
        assert bi.entries == uni.entries

    def test_index_weight_all_image_collapses(self, make_index):
        index = random_index(make_index, 10, 8, seed=17)
        e_img = unit(np.random.default_rng(18).standard_normal(8))
        bundle = QueryBundle("q", e_img)
        result = search_bidirectional(
            bundle, index, FusionWeights(1.0, 0.0), FusionWeights(1.0, 0.0)
        )
        assert list(result.ids) == sorted(result.ids)
        assert all(score == pytest.approx(1.0, abs=1e-12) for score in result.scores)

    def test_hand_computed_two_dim_fixture(self, make_index):
        # Independent arithmetic oracle for the per-candidate fusion.
        index = make_index({"a": [0.0, 1.0], "b": [0.6, 0.8], "c": [1.0, 0.0]})
        e_img = unit([1.0, 0.0])
        bundle = QueryBundle("q", e_img)
        result = search_bidirectional(
            bundle, index, FusionWeights(1.0, 0.0), FusionWeights(0.5, 0.5)
        )
        expected = {}
        for cid, row in (("a", [0.0, 1.0]), ("b", [0.6, 0.8]), ("c", [1.0, 0.0])):
            fused_row = 0.5 * np.array([1.0, 0.0]) + 0.5 * np.array(row)
            fused_row = fused_row / np.linalg.norm(fused_row)
            expected[cid] = float(fused_row @ [1.0, 0.0])
        assert result.ids == ("c", "b", "a")
        for cid, score in result.entries:
            assert score == pytest.approx(expected[cid], abs=1e-12)

    def test_stage_is_initial(self, make_index):
        index = make_index({"a": [1.0, 0.0]})
        bundle = QueryBundle("q", unit([1.0, 0.0]))
        result = search_bidirectional(bundle, index, FusionWeights(1.0, 0.0))
        assert result.stage == "initial"

    def test_index_never_mutated(self, make_index):
        index = make_index({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        before = index.embeddings.tobytes()
        bundle = QueryBundle("q", unit([1.0, 1.0]))
        search_bidirectional(bundle, index, FusionWeights(1.0, 0.0), FusionWeights(0.3, 0.7))
        assert index.embeddings.tobytes() == before


def block_index(n, dim, seed, rows=None):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n, dim))
    for i, row in (rows or {}).items():
        matrix[i] = row
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    captions = tuple(Caption(f"v{i:05d}", "a dish", "dense") for i in range(n))
    return CaptionIndex(captions, matrix.astype(np.float32), "dense", "test")


def one_shot_scores(e_img, index, w_index):
    fused = w_index.w_img * e_img[None, :] + w_index.w_text * index.embeddings.astype(np.float64)
    norms = np.linalg.norm(fused, axis=1)
    return np.einsum("ij,j->i", fused, e_img) / (norms * float(np.linalg.norm(e_img)))


class TestBidirectionalBlocks:
    """Row-blocked bi-directional scoring keeps the one-shot score bits."""

    BLOCK = 16

    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_bits_equal_one_shot(self, dim, monkeypatch):
        monkeypatch.setattr(search, "_ROW_BLOCK_BYTES", self.BLOCK * 8 * dim)
        rng = np.random.default_rng(dim)
        for n in (5, self.BLOCK, 3 * self.BLOCK, 3 * self.BLOCK + 1, 3 * self.BLOCK + 7):
            index = block_index(n, dim, seed=n)
            bundle = QueryBundle("q", unit(rng.standard_normal(dim)))
            for w_index in (FusionWeights(0.3, 0.7), FusionWeights(0.5, 0.5)):
                got = search._bidirectional_scores(bundle.e_img, bundle.e_img, index, w_index)
                want = one_shot_scores(bundle.e_img.values, index, w_index)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_default_block_spans_blocks(self, dim):
        step = search._ROW_BLOCK_BYTES // (8 * dim)
        index = block_index(2 * step + 3, dim, seed=dim)
        bundle = QueryBundle("q", unit(np.random.default_rng(dim + 1).standard_normal(dim)))
        w_index = FusionWeights(0.3, 0.7)
        want = one_shot_scores(bundle.e_img.values, index, w_index)
        got = search._bidirectional_scores(bundle.e_img, bundle.e_img, index, w_index)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        ranked = search_bidirectional(bundle, index, FusionWeights(1.0, 0.0), w_index, k=10)
        clamped = np.clip(want, -1.0, 1.0)
        assert list(ranked.scores) == [clamped[index.row_of(cid)] for cid in ranked.ids]

    @pytest.mark.parametrize("collapsing_row", [3, 2 * BLOCK + 5])
    def test_zero_fusion_raises_in_any_block(self, collapsing_row, monkeypatch):
        dim = 8
        monkeypatch.setattr(search, "_ROW_BLOCK_BYTES", self.BLOCK * 8 * dim)
        e_img = np.zeros(dim)
        e_img[0] = 1.0
        index = block_index(3 * self.BLOCK, dim, seed=1, rows={collapsing_row: -e_img})
        bundle = QueryBundle("q", unit(e_img))
        with pytest.raises(ZeroVectorError, match="collapsed"):
            search_bidirectional(bundle, index, FusionWeights(1.0, 0.0), FusionWeights(0.5, 0.5))


def screen_case(dim, seed):
    """A shuffled-id index built to stress the screen's band around the k-th score.

    Rows: random directions; near-duplicates of the query, whose float32
    rounding lifts their raw cosines above 1.0; 40 rows whose cosines are
    spaced across +-4 delta around 0.95, so the 5th and 37th scores sit
    among rows that the float32 screen cannot order; and exact duplicates
    of those and of random rows, which tie.
    """
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    delta = search._screen_delta(dim)
    rows = list(rng.standard_normal((150, dim)))
    rows += [q + 1e-8 * rng.standard_normal(dim) for _ in range(4)]
    for c in 0.95 + delta * np.linspace(-4.0, 4.0, 40):
        side = rng.standard_normal(dim)
        side -= (side @ q) * q
        rows.append(c * q + np.sqrt(1.0 - c * c) * side / np.linalg.norm(side))
    rows += [rows[i] for i in rng.choice(np.arange(154, 194), 10, replace=False)]
    rows += [rows[i] for i in rng.choice(150, 5, replace=False)]
    matrix = np.array(rows)
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    captions = tuple(Caption(f"s{i:04d}", "a dish", "dense") for i in rng.permutation(len(rows)))
    index = CaptionIndex(captions, matrix.astype(np.float32), "dense", "test")
    return index, EmbeddingVector(q)


class TestScreen:
    """The float32 screen plus exact re-score returns the full scan's bits."""

    @pytest.mark.parametrize("dim", [8, 64, 256])
    @pytest.mark.parametrize("k", [1, 5, 37])
    def test_matches_unscreened_reference(self, dim, k):
        clamped_ties = wide_bands = 0
        for seed in range(10):
            index, query = screen_case(dim, seed)
            raw = search._query_scores(query, index)
            got = search_topk(query, index, k)
            want = search._rank(index, raw, k, "initial")
            assert got.entries == want.entries
            assert score_bits(got) == score_bits(want)
            clamped_ties += int(np.count_nonzero(raw > 1.0) >= 2)
            band = search._screen(index.embeddings, *search._query_direction(query, index), k)
            wide_bands += int(len(band) > k)
        # Fixture guards: ties at 1.0 occur, and the band re-scores rows beyond k.
        assert clamped_ties > 0
        assert wide_bands > 0

    @pytest.mark.parametrize(
        "rows, k, expected",
        [
            ({"z": 1.00000095, "a": 1.0, "m": -1.0}, 1, (("a", 1.0),)),
            ({"z": 1.0, "b": -1.0, "a": -1.00000095}, 2, (("z", 1.0), ("a", -1.0))),
        ],
        ids=["tie-at-plus-one", "tie-at-minus-one"],
    )
    def test_rows_beyond_unit_norm_tie_at_the_clamp(self, rows, k, expected):
        # At dim 1 the screen error is below the unit-norm tolerance, so a
        # row of norm 1 + 9.5e-7 screens more than 2 delta away from a row of
        # norm 1 and still clamps to a tie with it; the id then decides.
        assert 2 * search._screen_delta(1) < 9e-7
        captions = tuple(Caption(cid, "a dish", "dense") for cid in rows)
        matrix = np.array([[v] for v in rows.values()], dtype=np.float32)
        index = CaptionIndex(captions, matrix, "dense", "test")
        assert search_topk(EmbeddingVector([1.0]), index, k).entries == expected

    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_row_subset_cosines_bit_equal(self, dim):
        # The re-score relies on a row's einsum bits not depending on which
        # other rows are scored with it.
        n = 300
        rng = np.random.default_rng(dim)
        embeddings = block_index(n, dim, seed=dim).embeddings
        q = rng.standard_normal(dim)
        qnorm = float(np.linalg.norm(q))
        full = search._cosines(embeddings, q, qnorm)
        for size in (1, 10, n - 1):
            for _ in range(5):
                rows = rng.choice(n, size, replace=False)
                sub = search._cosines(embeddings, q, qnorm, rows)
                assert sub.view(np.uint64).tolist() == full[rows].view(np.uint64).tolist()

    def test_band_stays_near_k(self):
        # A bound that silently widened to every row would stay exact but
        # lose the speed-up; noisy copies of rows re-score about k rows.
        n, dim, k = 5000, 64, 10
        index = block_index(n, dim, seed=3)
        rng = np.random.default_rng(4)
        bands = []
        for row in rng.integers(n, size=50):
            noise = rng.standard_normal(dim)
            q = index.embeddings[row] + 0.5 * noise / np.linalg.norm(noise)
            q, qnorm = search._query_direction(EmbeddingVector(q), index)
            bands.append(len(search._screen(index.embeddings, q, qnorm, k)))
        assert np.median(bands) <= k + 2
