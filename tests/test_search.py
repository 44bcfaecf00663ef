import numpy as np
import pytest

from f4search import search, vectors
from f4search.encoders import EncoderSpec, encode_image_synthetic, encode_text_synthetic
from f4search.errors import (
    DimensionMismatchError,
    MissingPredictionTextError,
    ZeroVectorError,
)
from f4search.evaluate import EvalConfig, evaluate_corpus
from f4search.index import Caption, CaptionIndex, build_index
from f4search.rerank import parse_items, rerank, retrieve_and_rerank
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


def unscreened(index, raw, k):
    """The unscreened reference: ``_rank`` over every row's raw score, as a public result."""
    return search._ranked_list(index, *search._rank(index, raw, k, np.arange(len(index))), k, "initial")


def cosine_band(index, query, k):
    """The rows that ``_topk`` scores exactly for the top k cosines with ``query``."""
    scored = []
    score = search._scores

    def recording(*args):
        scored.append(args[3])
        return score(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_scores", recording)
        search._topk(query.values, query.values, index, search._UNIDIRECTIONAL, k)
    return scored[0]


def exact_scores(query, e_img, index, w_index):
    """``_scores`` of every index row against the raw query array ``query``."""
    return search._scores(*search._query_direction(query, index), e_img, index.embeddings, w_index)


def cosines(query, index):
    """The raw cosine of every index row with ``query``."""
    return exact_scores(query.values, None, index, search._UNIDIRECTIONAL)


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

    def test_rejects_duplicate_ids(self):
        # A repeated id would count as two hits: this list's AP would be 2.0.
        with pytest.raises(ValueError, match="distinct"):
            RankedList((("a", 0.9), ("a", 0.9)), k=2)
        with pytest.raises(ValueError, match="distinct"):
            RankedList((("a", 0.9), ("b", 0.5), ("a", 0.1)), k=3)

    def test_rejects_more_entries_than_k(self):
        # rerank keeps the candidate set but cuts to k, so it would drop entries.
        with pytest.raises(ValueError, match="exceed k=2"):
            RankedList(tuple((f"c{i}", 0.9 - 0.1 * i) for i in range(5)), k=2)
        assert len(RankedList((("a", 0.9),), k=2).entries) == 1

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
            want = unscreened(index, cosines(scaled, index), 10)
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

    def test_unknown_text_source(self, make_index, synthetic_spec):
        index = random_index(make_index, 5, 32, seed=14)
        bundle = QueryBundle("q", unit(np.ones(32)), dense_pred_text="rice", sparse_pred_text="rice")
        with pytest.raises(ValueError, match="unknown text source 'x'"):
            search_fused_topk(bundle, index, FusionWeights(0.7, 0.3), "x", synthetic_spec)

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
    @pytest.mark.parametrize("k", [1, 5, 20])  # 20 is the whole index: no screen
    def test_index_weight_all_text_equals_uni(self, make_index, synthetic_spec, k):
        index = random_index(make_index, 20, 32, seed=15)
        rng = np.random.default_rng(16)
        bundle = QueryBundle(
            "q", unit(rng.standard_normal(32)), sparse_pred_text="rice, beans"
        )
        uni = search_fused_topk(
            bundle, index, FusionWeights(0.7, 0.3), "sparse", synthetic_spec, k=k
        )
        bi = search_bidirectional(
            bundle, index, FusionWeights(0.7, 0.3), FusionWeights(0.0, 1.0),
            "sparse", synthetic_spec, k=k,
        )
        assert bi.entries == uni.entries
        assert score_bits(bi) == score_bits(uni)

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
                got = exact_scores(bundle.e_img.values, bundle.e_img.values, index, w_index)
                want = one_shot_scores(bundle.e_img.values, index, w_index)
                assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_default_block_spans_blocks(self, dim):
        step = search._ROW_BLOCK_BYTES // (8 * dim)
        index = block_index(2 * step + 3, dim, seed=dim)
        bundle = QueryBundle("q", unit(np.random.default_rng(dim + 1).standard_normal(dim)))
        w_index = FusionWeights(0.3, 0.7)
        want = one_shot_scores(bundle.e_img.values, index, w_index)
        got = exact_scores(bundle.e_img.values, bundle.e_img.values, index, w_index)
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

    def test_delta_unbounded_from_dim_2_pow_23(self):
        # There dim * 2^-24 reaches 1/2, where the float32 error bound gives out.
        assert np.isfinite(search._screen_delta(2**23 - 1))
        assert search._screen_delta(2**23) == np.inf

    @pytest.mark.parametrize("dim", [8, 64, 256])
    @pytest.mark.parametrize("k", [1, 5, 37])
    def test_matches_unscreened_reference(self, dim, k):
        clamped_ties = wide_bands = 0
        for seed in range(10):
            index, query = screen_case(dim, seed)
            raw = cosines(query, index)
            got = search_topk(query, index, k)
            want = unscreened(index, raw, k)
            assert got.entries == want.entries
            assert score_bits(got) == score_bits(want)
            clamped_ties += int(np.count_nonzero(raw > 1.0) >= 2)
            band = cosine_band(index, query, k)
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
                sub = search._cosines(embeddings[rows], q, qnorm)
                assert sub.view(np.uint64).tolist() == full[rows].view(np.uint64).tolist()

    @pytest.mark.parametrize("k", [1, 5, 37])
    def test_grid_band_is_the_union_of_column_bands(self, k):
        delta = search._screen_delta(64)
        widened = 0
        for seed in range(5):
            index, query = screen_case(64, seed)
            rng = np.random.default_rng(seed)
            units = [query.values, unit(query.values + 0.05 * rng.standard_normal(64)).values]
            units += [unit(rng.standard_normal(64)).values for _ in range(2)]
            cheap = index.embeddings @ np.stack(units, axis=1).astype(np.float32)
            columns = [search._band(cheap[:, [j]], delta, k) for j in range(len(units))]
            want = np.unique(np.concatenate(columns))
            assert search._band(cheap, delta, k).tolist() == want.tolist()
            widened += int(len(want) > max(len(c) for c in columns))
        # Fixture guard: the columns' bands differ, so the union is wider.
        assert widened > 0

    def test_grid_band_collapses_with_any_column(self):
        delta = search._screen_delta(8)
        cheap = np.random.default_rng(0).uniform(-0.5, 0.5, (20, 3)).astype(np.float32)
        cheap[:, 1] = -1.0
        assert search._band(cheap[:, [0]], delta, 5) is not None
        assert search._band(cheap[:, [1]], delta, 5) is None
        assert search._band(cheap, delta, 5) is None

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
            bands.append(len(cosine_band(index, EmbeddingVector(q), k)))
        assert np.median(bands) <= k + 2

    def test_rows_all_tied_at_minus_one_keep_the_full_ranking(self):
        # Every row is -e_img, so each fusion at (0.3, 0.7) is about -0.4 e_img
        # and scores about -1 against the image query: the k-th lower bound is
        # at most -1, so the per-row band keeps every row and the tie goes to
        # the ids.
        w_index = FusionWeights(0.3, 0.7)
        e_img = unit(np.random.default_rng(12).standard_normal(16))
        ids = [f"r{i:02d}" for i in np.random.default_rng(13).permutation(12)]
        captions = tuple(Caption(cid, "a dish", "dense") for cid in ids)
        rows = np.tile(-e_img.values, (12, 1)).astype(np.float32)
        index = CaptionIndex(captions, rows, "dense", "test")
        direction = search._query_direction(e_img.values, index)
        screen = search._screen([direction], e_img.values[None], [0], index, w_index)
        assert search._band(*screen, 3) is None
        bundle = QueryBundle("q", e_img)
        got = search_bidirectional(bundle, index, FusionWeights(1.0, 0.0), w_index, k=3)
        want = unscreened(index, exact_scores(e_img.values, e_img.values, index, w_index), 3)
        assert got.entries == want.entries
        assert got.ids == ("r00", "r01", "r02")
        assert score_bits(got) == score_bits(want)


def best_row(q, p, w):
    """The unit row whose score against unit ``q`` is exactly 1 (``q`` itself for cosines)."""
    a, b = w.w_img, w.w_text
    k = q @ p
    lam = a * k + np.sqrt(a * a * k * k - a * a + b * b)
    return (lam * q - a * p) / b


def score_step(row, q, p, w):
    """A tangent step that moves ``row``'s raw score by about 1 (float64 gradient)."""
    a, b = w.w_img, w.w_text
    fused = a * p + b * row
    norm = np.linalg.norm(fused)
    grad = b * (q - (fused @ q) / norm * fused / norm) / norm
    grad -= (grad @ row) * row
    return grad / (grad @ grad)


def diff_case(dim, seed, w_index):
    """An index, a bundle, its query and gt rows built to stress screened counted ranks.

    ``w_index`` ``_UNIDIRECTIONAL`` scores the rows by cosine, others by
    bi-directional fusion; odd seeds query with the image alone, even seeds
    with the image fused with the bundle's text.

    Rows: random directions; near-duplicates of the row that scores exactly
    1, whose float32 rounding lifts raw scores above 1.0; two copies of that
    row scaled to the unit-norm tolerance, and for cosines of its negation,
    which score beyond +-1 by more than the screen error at small dims and
    so clamp to ties that only the id decides; 40 rows whose scores are
    spaced across +-4 delta around a ground-truth row's; and exact
    duplicates of those and of random rows, which tie. Ids are shuffled
    against row order.
    """
    rng = np.random.default_rng(seed)
    spec = EncoderSpec("synthetic", dim, seed=seed)
    bundle = QueryBundle("q", unit(rng.standard_normal(dim)), dense_pred_text=f"dish{seed} sauce")
    w_query = FusionWeights(1.0, 0.0) if seed % 2 else FusionWeights(0.7, 0.3)
    query = search.fused_query(bundle, w_query, "dense", spec)
    q, p = query.values / np.linalg.norm(query.values), bundle.e_img.values
    cosine = w_index == search._UNIDIRECTIONAL
    top = best_row(q, p, w_index)
    rows = list(rng.standard_normal((150, dim)))
    rows += [top + 1e-8 * rng.standard_normal(dim) for _ in range(4)]
    if cosine:
        rows += [-q + 1e-8 * rng.standard_normal(dim) for _ in range(3)]
    rows = [r / np.linalg.norm(r) for r in rows]
    rows += [top * (1 + 0.9e-6)] * 2 + ([-q * (1 + 0.9e-6)] if cosine else [])
    side = rng.standard_normal(dim)
    side -= (side @ top) * top
    base = top + 0.5 * side / np.linalg.norm(side)
    base /= np.linalg.norm(base)
    probe = CaptionIndex((Caption("p", "a dish", "dense"),), base[None, :].astype(np.float32),
                         "dense", "test")
    # The screen's bound: a scalar for cosines, else the probe row's.
    direction = search._query_direction(query.values, probe)
    delta = float(np.max(search._screen([direction], bundle.e_img.values[None], [0], probe, w_index)[1]))
    step = score_step(base, q, p, w_index)
    first = len(rows)
    for t in np.linspace(-4.0, 4.0, 40):
        row = base + t * delta * step
        rows.append(row / np.linalg.norm(row))
    rows += [rows[i] for i in rng.choice(np.arange(first, first + 40), 10, replace=False)]
    rows += [rows[i] for i in rng.choice(150, 5, replace=False)]
    captions = tuple(Caption(f"d{i:04d}", "a dish", "dense") for i in rng.permutation(len(rows)))
    index = CaptionIndex(captions, np.array(rows, dtype=np.float32), "dense", spec.fingerprint())
    # Ground truth: the middle spaced row, a near-duplicate of the top row,
    # the last norm-edge row, a random row, and a second near-duplicate (of
    # the negated top row for cosines).
    gt_rows = [first + 20, 150, first - 1, int(rng.integers(150)), 156 if cosine else 151]
    return index, bundle, w_query, spec, query, gt_rows


DIFF_MODES = {
    "cosine": search._UNIDIRECTIONAL,
    "bidir-0.3": FusionWeights(0.3, 0.7),
    "bidir-0.5": FusionWeights(0.5, 0.5),
}


class TestScreenedRanks:
    """Screened counted ranks and bi-directional top-k equal the full exact scan."""

    @pytest.mark.parametrize("mode", sorted(DIFF_MODES))
    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_matches_full_exact_scan(self, dim, mode, monkeypatch):
        w_index = DIFF_MODES[mode]
        score = search._scores
        wide_bands = clamped_gt = 0
        for seed in range(10):
            index, bundle, w_query, spec, query, gt_rows = diff_case(dim, seed, w_index)
            args = (query.values, bundle.e_img.values, index, w_index)
            raw = exact_scores(*args)
            rescored = []
            with monkeypatch.context() as mp:
                mp.setattr(search, "_scores",
                           lambda *a: rescored.append(len(a[3])) or score(*a))
                (got,) = search._gt_ranks([query.values], args[1][None], [0], index, w_index, [gt_rows])
            full = unscreened(index, raw, len(index))
            rank_of = {cid: r for r, cid in enumerate(full.ids, start=1)}
            assert got == sorted(rank_of[index.captions[g].id] for g in gt_rows)
            # After the ground-truth rows, exact re-scores a band only when it
            # holds more than its ground-truth row.
            wide_bands += int(len(rescored) > 1)
            clamped_gt += int(np.any(raw[gt_rows] >= 1.0))
            for k in (1, 5, rank_of[index.captions[gt_rows[0]].id]):
                got_k = search_bidirectional(bundle, index, w_query, w_index, "dense", spec, k=k)
                want = unscreened(index, raw, k)
                assert got_k.entries == want.entries
                assert score_bits(got_k) == score_bits(want)
        # Fixture guards: some band re-scores rows beyond the ground truth,
        # and some ground-truth row clamps to 1.
        assert wide_bands > 0
        assert clamped_gt > 0

    @pytest.mark.parametrize("mode", sorted(DIFF_MODES))
    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_one_scalar_bound_covers_every_row(self, dim, mode):
        w_index = DIFF_MODES[mode]
        for seed in range(10):
            index, bundle, _, _, query, _ = diff_case(dim, seed, w_index)
            direction = search._query_direction(query.values, index)
            cheap, delta = search._screen([direction], bundle.e_img.values[None], [0], index, w_index)
            assert delta.shape == (1,) and delta.dtype == np.float64
            exact = exact_scores(query.values, bundle.e_img.values, index, w_index)
            assert np.all(np.abs(cheap[:, 0] - exact) < delta[0])

    @pytest.mark.parametrize("collapsing_row", [3, 2 * TestBidirectionalBlocks.BLOCK + 5])
    def test_one_collapsing_row_makes_the_bound_infinite(self, collapsing_row):
        # The index of test_collapse_raises_in_evaluation_and_top_k.
        e_img = np.zeros(8)
        e_img[0] = 1.0
        index = block_index(3 * TestBidirectionalBlocks.BLOCK, 8, seed=1, rows={collapsing_row: -e_img})
        direction = search._query_direction(e_img, index)
        _, delta = search._screen([direction], e_img[None], [0], index, FusionWeights(0.5, 0.5))
        assert delta.tolist() == [np.inf]

    @pytest.mark.parametrize("k", [None, 1])
    @pytest.mark.parametrize("collapsing_row", [3, 2 * TestBidirectionalBlocks.BLOCK + 5])
    def test_collapse_raises_in_evaluation_and_top_k(self, collapsing_row, k, monkeypatch):
        block = TestBidirectionalBlocks.BLOCK
        dim = 8
        monkeypatch.setattr(search, "_ROW_BLOCK_BYTES", block * 8 * dim)
        e_img = np.zeros(dim)
        e_img[0] = 1.0
        index = block_index(3 * block, dim, seed=1, rows={collapsing_row: -e_img})
        bundle = QueryBundle("q", unit(e_img), gt_caption_ids=(index.captions[0].id,))
        w_index = FusionWeights(0.5, 0.5)
        config = EvalConfig(weights=FusionWeights(1.0, 0.0), bidirectional=True,
                            index_weights=w_index)
        with pytest.raises(ZeroVectorError, match="collapsed"):
            evaluate_corpus([bundle], index, config)
        with pytest.raises(ZeroVectorError, match="collapsed"):
            search_bidirectional(bundle, index, FusionWeights(1.0, 0.0), w_index, k=k)

    @pytest.mark.parametrize("mode", sorted(DIFF_MODES))
    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_block_of_bundles_matches_single_bundles(self, dim, mode):
        # One screen of three bundles with distinct images, the middle one's
        # also queried by its image alone, counts each query's ranks as a
        # screen of its bundle alone and as the full exact scan do.
        w_index = DIFF_MODES[mode]
        distinct_bounds = 0
        for seed in range(0, 10, 3):
            cases = [diff_case(dim, seed + j, w_index) for j in range(3)]
            index = cases[1][0]  # every case has the same row count, so its gt rows fit here
            queries = [case[4].values for case in cases] + [cases[1][1].e_img.values]
            images = np.array([case[1].e_img.values for case in cases])
            owner = np.array([0, 1, 2, 1])
            rows = [case[5] for case in cases] + [cases[1][5]]
            got = search._gt_ranks(queries, images, owner, index, w_index, rows)
            directions = [search._query_direction(q, index) for q in queries]
            cheap, delta = search._screen(directions, images, owner, index, w_index)
            assert delta.shape == (len(queries),)
            for j, (q, p, gt_rows) in enumerate(zip(queries, images[owner], rows)):
                assert search._gt_ranks([q], p[None], [0], index, w_index, [gt_rows]) == [got[j]]
                raw = exact_scores(q, p, index, w_index)
                full = unscreened(index, raw, len(index)).ids
                assert got[j] == sorted(full.index(index.captions[g].id) + 1 for g in gt_rows)
                assert np.all(np.abs(cheap[:, j] - raw) < delta[j])
            assert delta[1] == delta[3]  # one bound per image
            distinct_bounds += len(set(delta.tolist())) > 1
        # Fixture guard: bi-directionally, the images' bounds differ.
        assert distinct_bounds > 0 or w_index == search._UNIDIRECTIONAL

    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_images_are_not_read_unidirectionally(self, dim):
        # search_topk passes its own query as the image. That is sound only if,
        # at _UNIDIRECTIONAL, an all-NaN image matrix gives the same screen
        # bits, bounds, candidates and ranks as the real images.
        w_index = search._UNIDIRECTIONAL
        for seed in range(3):
            cases = [diff_case(dim, seed + j, w_index) for j in range(3)]
            index = cases[1][0]  # every case has the same row count, so its gt rows fit here
            queries = [case[4].values for case in cases]
            images = np.array([case[1].e_img.values for case in cases])
            nan = np.full_like(images, np.nan)
            owner = np.arange(len(queries))
            rows = [case[5] for case in cases]
            directions = [search._query_direction(q, index) for q in queries]
            cheap, delta = search._screen(directions, images, owner, index, w_index)
            cheap_nan, delta_nan = search._screen(directions, nan, owner, index, w_index)
            assert cheap_nan.tobytes() == cheap.tobytes()
            assert delta_nan.tobytes() == delta.tobytes()
            for got, want in zip(search._candidates(queries, nan, owner, index, w_index, 5),
                                 search._candidates(queries, images, owner, index, w_index, 5)):
                assert got.tobytes() == want.tobytes()
            want = search._gt_ranks(queries, images, owner, index, w_index, rows)
            assert search._gt_ranks(queries, nan, owner, index, w_index, rows) == want

    @pytest.mark.parametrize("collapsing_row", [3, 2 * TestBidirectionalBlocks.BLOCK + 5])
    def test_one_collapsing_image_leaves_the_other_columns_exact(self, collapsing_row, monkeypatch):
        # The index of test_one_collapsing_row_makes_the_bound_infinite, screened
        # for three images, of which only the middle one collapses.
        e_img = np.zeros(8)
        e_img[0] = 1.0
        index = block_index(3 * TestBidirectionalBlocks.BLOCK, 8, seed=1, rows={collapsing_row: -e_img})
        rng = np.random.default_rng(collapsing_row)
        first, last = (unit(rng.standard_normal(8)).values for _ in range(2))
        images = np.stack([first, e_img, last])
        owner = np.arange(3)
        w_index = FusionWeights(0.5, 0.5)
        directions = [search._query_direction(p, index) for p in images]
        cheap, delta = search._screen(directions, images, owner, index, w_index)
        assert delta[1] == np.inf and np.all(np.isfinite(delta[[0, 2]]))
        for j in (0, 2):
            raw = exact_scores(images[j], images[j], index, w_index)
            assert np.all(np.abs(cheap[:, j] - raw) < delta[j])
            full = unscreened(index, raw, len(index)).ids
            # Counted from the block's own column and bound, every rank is exact.
            with monkeypatch.context() as mp:
                mp.setattr(search, "_screen", lambda *a: (cheap[:, [j]], delta[[j]]))
                for gt in range(len(index)):
                    got = search._gt_ranks([images[j]], images[[j]], [0], index, w_index, [[gt]])
                    assert got == [[full.index(index.captions[gt].id) + 1]]
        with pytest.raises(ZeroVectorError, match="collapsed"):
            search._gt_ranks(list(images), images, owner, index, w_index, [[0]] * 3)

    @pytest.mark.parametrize("position", [0, 2, 4])
    def test_collapse_raises_alike_anywhere_in_a_block(self, position):
        dim = 8
        e_img = np.zeros(dim)
        e_img[0] = 1.0
        index = block_index(3 * TestBidirectionalBlocks.BLOCK, dim, seed=1, rows={5: -e_img})
        rng = np.random.default_rng(position)
        bundles = [
            QueryBundle(f"q{j}", unit(rng.standard_normal(dim)), gt_caption_ids=(index.captions[j].id,))
            for j in range(5)
        ]
        collapsing = QueryBundle("collapsing", unit(e_img), gt_caption_ids=(index.captions[0].id,))
        config = EvalConfig(weights=FusionWeights(1.0, 0.0), bidirectional=True,
                            index_weights=FusionWeights(0.5, 0.5))
        assert search._block_len(len(index)) >= len(bundles)  # one block
        evaluate_corpus(bundles, index, config)
        with pytest.raises(ZeroVectorError, match="collapsed") as alone:
            evaluate_corpus([collapsing], index, config)
        bundles[position] = collapsing
        with pytest.raises(ZeroVectorError) as in_block:
            evaluate_corpus(bundles, index, config)
        assert str(in_block.value) == str(alone.value)

    @pytest.mark.parametrize("eta", [1e-5, 1e-3, 3e-2])
    def test_near_collapse_ranks_as_unscreened(self, eta):
        # Rows close to -e_img fuse to short but valid vectors: their screen
        # bounds are wide or infinite, and they must rank as in the full
        # exact scan, for a random query and in evaluation.
        dim = 8
        rng = np.random.default_rng(int(1 / eta))
        e_img = unit(rng.standard_normal(dim))
        near = -e_img.values + eta * unit(rng.standard_normal(dim)).values
        index = block_index(60, dim, seed=2,
                            rows={7: near, 40: near + 1e-3 * rng.standard_normal(dim)})
        row = index.embeddings[7].astype(np.float64)
        assert vectors.ZERO_NORM_EPS < np.linalg.norm(0.5 * e_img.values + 0.5 * row) < eta
        w_index = FusionWeights(0.5, 0.5)
        config = EvalConfig(weights=FusionWeights(1.0, 0.0), bidirectional=True,
                            index_weights=w_index)
        for query in (unit(rng.standard_normal(dim)), e_img):
            args = (query.values, e_img.values, index, w_index)
            full = unscreened(index, exact_scores(*args), len(index)).ids
            for gt in (7, 40):
                want = full.index(index.captions[gt].id) + 1
                got = search._gt_ranks([query.values], e_img.values[None], [0], index, w_index, [[gt]])
                assert got == [[want]]
                if query is e_img:
                    bundle = QueryBundle("q", e_img, gt_caption_ids=(index.captions[gt].id,))
                    assert evaluate_corpus([bundle], index, config).per_query[0].gt_rank == want


def shuffled_case(spec, n=12):
    """A sparse index of one-word dishes, ids shuffled against row order, and a bundle."""
    rng = np.random.default_rng(31)
    captions = [Caption(f"c{p:02d}", f"herb{i:02d}", "sparse") for i, p in
                enumerate(rng.permutation(n))]
    bundle = QueryBundle("q", encode_text_synthetic("herb03", spec),
                         sparse_pred_text="herb03, herb07")
    return build_index(captions, spec), bundle


class TestResultShape:
    """Public results carry their k and stage; full rankings compute no screen."""

    def test_k_and_stage(self, synthetic_spec):
        index, bundle = shuffled_case(synthetic_spec)
        n = len(index)
        assert [c.id for c in index.captions] != sorted(c.id for c in index.captions)
        for k in (n - 5, n, n + 5):
            for search_fn in (search_topk, search_topk_naive):
                got = search_fn(bundle.e_img, index, k)
                assert (got.k, len(got.entries), got.stage) == (min(k, n), min(k, n), "initial")
        for k in (n - 5, n, None):
            got = search_bidirectional(bundle, index, FusionWeights(1.0, 0.0), k=k)
            want = min(k or n, n)
            assert (got.k, len(got.entries), got.stage) == (want, want, "initial")
        for N, k in ((n, 4), (n + 5, 4), (n + 5, n + 3)):
            got = retrieve_and_rerank(bundle, index, N=N, k=k, encoder=synthetic_spec)
            want = min(k, n)
            assert (got.k, len(got.entries), got.stage) == (want, want, "reranked")
        candidates = RankedList(search_topk(bundle.e_img, index, 3).entries, k=7)
        got = rerank(candidates, parse_items("herb07"), index, synthetic_spec)
        assert (got.k, got.stage) == (7, "reranked")
        assert sorted(got.ids) == sorted(candidates.ids)

    def test_full_ranking_computes_no_screen(self, synthetic_spec, monkeypatch):
        index, bundle = shuffled_case(synthetic_spec)
        n = len(index)
        w_index = FusionWeights(0.3, 0.7)
        cosine = unscreened(index, cosines(bundle.e_img, index), n)
        bidir = unscreened(
            index, exact_scores(bundle.e_img.values, bundle.e_img.values, index, w_index), n
        )

        def refuse(*args):
            raise AssertionError("a full ranking computed a screen")

        monkeypatch.setattr(search, "_screen", refuse)
        for k in (n, n + 5):
            got = search_topk(bundle.e_img, index, k)
            assert got.entries == cosine.entries
            assert score_bits(got) == score_bits(cosine)
        for k in (n, None):
            got = search_bidirectional(bundle, index, FusionWeights(1.0, 0.0), w_index, k=k)
            assert got.entries == bidir.entries
            assert score_bits(got) == score_bits(bidir)
        for N in (n, n + 5):
            retrieve_and_rerank(bundle, index, N=N, k=4, encoder=synthetic_spec)


@pytest.mark.parametrize(
    "call",
    [
        lambda index, bundle: search_topk(bundle.e_img, index, 0),
        lambda index, bundle: search_topk_naive(bundle.e_img, index, 0),
        lambda index, bundle: search_bidirectional(bundle, index, k=0),
        lambda index, bundle: retrieve_and_rerank(bundle, index, k=0),
        lambda index, bundle: RankedList((), k=0),
    ],
    ids=["search_topk", "search_topk_naive", "search_bidirectional", "retrieve_and_rerank",
         "RankedList"],
)
def test_k_below_one_raises_first(make_index, call):
    # The query has the wrong dimension and no prediction text, so a k check
    # that ran any later would meet another error first.
    index = random_index(make_index, 4, 2, seed=0)
    bundle = QueryBundle("q", unit([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="k must be >= 1"):
        call(index, bundle)
