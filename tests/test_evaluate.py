import json
import re
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from f4search import evaluate, search
from f4search.encoders import EncoderSpec, encode_text_synthetic, encode_texts, parse_items
from f4search.errors import (
    ConfigConflictError,
    DimensionMismatchError,
    EmptyGroundTruthError,
    MalformedLineError,
    UnknownCandidateIdError,
)
from f4search.evaluate import (
    EvalConfig,
    EvalReport,
    QueryOutcome,
    average_precision,
    derive_k,
    evaluate_corpus,
    load_bundles,
    recall_at_k,
    render_report,
    sweep_fusion_weight,
    write_report,
    write_sweep,
)
from f4search.embfile import write_embedding_file
from f4search.index import Caption, CaptionIndex, build_index
from f4search.rerank import default_pool_size, rerank, retrieve_and_rerank
from f4search.search import (
    QueryBundle,
    RankedList,
    search_bidirectional,
    search_fused_topk,
    search_topk_naive,
)
from f4search.vectors import EmbeddingVector, FusionWeights, fuse

from conftest import unit


def ranked(*ids_scores):
    return RankedList(tuple(ids_scores), k=len(ids_scores))


class TestRecallAtK:
    def test_hit_at_rank_one(self):
        assert recall_at_k(ranked(("a", 0.9)), ["a"], 1) == 1

    def test_boundary_at_five(self):
        entries = [(f"x{i}", 0.9 - i * 0.1) for i in range(4)] + [("gt", 0.1)]
        rl = ranked(*entries)
        assert recall_at_k(rl, ["gt"], 5) == 1
        assert recall_at_k(rl, ["gt"], 4) == 0

    def test_absent(self):
        assert recall_at_k(ranked(("a", 0.9), ("b", 0.8)), ["z"], 5) == 0

    def test_k_beyond_list_treated_as_length(self):
        assert recall_at_k(ranked(("a", 0.9)), ["a"], 100) == 1

    def test_monotone_in_k(self):
        entries = [(f"c{i}", 0.9 - i * 0.05) for i in range(10)]
        rl = ranked(*entries)
        values = [recall_at_k(rl, ["c7"], k) for k in range(1, 11)]
        assert values == sorted(values)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision(ranked(("a", 0.9), ("b", 0.8)), {"a", "b"}, 2) == 1.0

    def test_hand_computed_interleaved(self):
        # (1/1 + 2/3) / 2 by the truncated-AP formula.
        rl = ranked(("a", 0.9), ("x", 0.8), ("b", 0.7))
        expected = (1.0 / 1.0 + 2.0 / 3.0) / 2.0
        assert average_precision(rl, {"a", "b"}, 3) == pytest.approx(expected, abs=1e-9)

    def test_total_miss(self):
        assert average_precision(ranked(("x", 0.9), ("y", 0.8), ("z", 0.7)), {"a"}, 1) == 0.0

    def test_empty_ground_truth(self):
        with pytest.raises(EmptyGroundTruthError):
            average_precision(ranked(("a", 0.9)), set(), 1)

    def test_one_iff_all_gt_on_top(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ids = [f"c{i}" for i in range(8)]
            order = rng.permutation(8)
            entries = [(ids[j], 0.9 - r * 0.05) for r, j in enumerate(order)]
            rl = ranked(*entries)
            gt = set(rng.choice(ids, size=3, replace=False).tolist())
            ap = average_precision(rl, gt, 3)
            top3 = {cid for cid, _ in rl.entries[:3]}
            assert (ap == 1.0) == (top3 == gt)

    def test_zero_iff_no_gt_within_k(self):
        rl = ranked(("a", 0.9), ("b", 0.8), ("gt", 0.7))
        assert average_precision(rl, {"gt"}, 2) == 0.0
        assert average_precision(rl, {"gt"}, 3) > 0.0

    def test_negative_k_counts_nothing(self):
        # A slice at -1 would count the hit at rank 1; recall_at_k cuts at 0 too.
        rl = ranked(("a", 0.9), ("b", 0.8), ("c", 0.7))
        assert average_precision(rl, ["a", "c"], -1) == 0.0
        assert recall_at_k(rl, ["a", "c"], -1) == 0


class TestDeriveK:
    def test_four_ingredient_caption(self):
        assert derive_k("scallop, cauliflower, greens, herb oil") == 4

    def test_single_item(self):
        assert derive_k("coffee") == 1

    def test_duplicates_collapse(self):
        assert derive_k("rice, rice") == 1


def small_corpus(kind="sparse", dim=32, seed=7, n=12):
    spec = EncoderSpec("synthetic", dim, seed=seed)
    words = [f"food{j:02d}" for j in range(n)]
    captions = [Caption(f"c{j:02d}", words[j], kind) for j in range(n)]
    index = build_index(captions, spec)
    bundles = []
    for j in range(min(4, n)):
        e_img = encode_text_synthetic(words[j], spec)
        bundles.append(
            QueryBundle(
                f"q{j}",
                e_img,
                dense_pred_text=f"{words[j]} extra tokens",
                sparse_pred_text=words[j],
                gt_caption_ids=(f"c{j:02d}",),
            )
        )
    return spec, index, bundles


class TestEvaluateCorpus:
    def test_perfect_corpus_scores_one(self):
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec, weights=FusionWeights(1.0, 0.0), text_source="sparse")
        report = evaluate_corpus(bundles, index, config)
        assert report.recall_at_1 == 1.0
        assert report.recall_at_5 == 1.0
        assert report.mean_ap == 1.0

    def test_mean_ap_matches_per_query_mean(self):
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec, weights=FusionWeights(0.7, 0.3), text_source="sparse")
        report = evaluate_corpus(bundles, index, config)
        per_query_mean = sum(o.ap for o in report.per_query) / len(report.per_query)
        assert report.mean_ap == pytest.approx(per_query_mean, abs=1e-9)

    def test_dense_index_has_no_map(self):
        spec, index, bundles = small_corpus(kind="dense")
        config = EvalConfig(encoder=spec, weights=FusionWeights(1.0, 0.0))
        report = evaluate_corpus(bundles, index, config)
        assert report.mean_ap is None
        assert all(o.ap is None for o in report.per_query)

    def test_rerank_requires_sparse_index(self):
        spec, index, bundles = small_corpus(kind="dense")
        config = EvalConfig(encoder=spec, rerank=True)
        with pytest.raises(ConfigConflictError, match="sparse"):
            evaluate_corpus(bundles, index, config)

    def test_rerank_with_bidirectional_conflicts(self):
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec, rerank=True, bidirectional=True)
        with pytest.raises(ConfigConflictError):
            evaluate_corpus(bundles, index, config)

    def test_unknown_gt_id_named(self):
        spec, index, bundles = small_corpus()
        bad = QueryBundle("qq", bundles[0].e_img, sparse_pred_text="x", gt_caption_ids=("ghost",))
        config = EvalConfig(encoder=spec, weights=FusionWeights(1.0, 0.0))
        with pytest.raises(UnknownCandidateIdError, match="ghost"):
            evaluate_corpus(bundles + [bad], index, config)

    def test_fused_image_dim_must_match_encoder(self):
        spec, index, _ = small_corpus(dim=32)
        e_img = unit(np.random.default_rng(0).standard_normal(16))
        bundle = QueryBundle("q", e_img, dense_pred_text="food00", gt_caption_ids=("c00",))
        with pytest.raises(DimensionMismatchError, match="dim 16 vs 32"):
            evaluate_corpus([bundle], index, EvalConfig(encoder=spec))

    @pytest.mark.parametrize("weights", [FusionWeights(0.7, 0.3), FusionWeights(1.0, 0.0)], ids=["fused", "image"])
    @pytest.mark.parametrize("entry", ["evaluate", "sweep"])
    def test_mixed_image_dims_name_the_bundle(self, entry, weights):
        # One image of another dim made numpy's stack of the block's images fail.
        spec, index, bundles = small_corpus(dim=8)
        odd = unit(np.random.default_rng(0).standard_normal(9))
        bundles[2] = replace(bundles[2], e_img=odd)
        config = EvalConfig(encoder=spec, weights=weights, text_source="sparse")
        with pytest.raises(DimensionMismatchError, match=r"^bundle 'q2': image dim 9 vs 8 of the index$"):
            if entry == "evaluate":
                evaluate_corpus(bundles, index, config)
            else:
                sweep_fusion_weight(bundles, index, [weights.w_text], config)

    def test_fused_text_dim_must_match_image(self):
        # Images at the index dim, texts from an encoder of another dim: the
        # block fusion raises the one-pair fusion's message.
        spec, index, bundles = small_corpus(dim=32)
        config = EvalConfig(encoder=EncoderSpec("synthetic", 16, seed=spec.seed), text_source="sparse")
        with pytest.warns(UserWarning, match="differs"):
            with pytest.raises(DimensionMismatchError, match=r"^dim 32 vs 16$"):
                evaluate_corpus(bundles, index, config)

    def test_empty_gt_rejected(self):
        spec, index, bundles = small_corpus()
        bad = QueryBundle("qq", bundles[0].e_img, sparse_pred_text="x")
        config = EvalConfig(encoder=spec, weights=FusionWeights(1.0, 0.0))
        with pytest.raises(EmptyGroundTruthError):
            evaluate_corpus([bad], index, config)

    def test_encoder_mismatch_warns(self):
        spec, index, bundles = small_corpus()
        other = EncoderSpec("synthetic", spec.dim, seed=spec.seed + 1)
        config = EvalConfig(encoder=other, weights=FusionWeights(1.0, 0.0))
        with pytest.warns(UserWarning, match="differs"):
            evaluate_corpus(bundles, index, config)

    def test_worker_count_does_not_change_report(self):
        spec, index, bundles = small_corpus()
        reports = []
        for workers in (1, 4):
            config = EvalConfig(
                encoder=spec, weights=FusionWeights(0.7, 0.3),
                text_source="sparse", workers=workers,
            )
            reports.append(render_report(evaluate_corpus(bundles, index, config)))
        assert reports[0] == reports[1]

    def test_no_thread_is_started(self, monkeypatch):
        def refuse(self):
            raise AssertionError("evaluation started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec, text_source="sparse", workers=8)
        evaluate_corpus(bundles, index, config)
        sweep_fusion_weight(bundles, index, [0.0, 0.5, 1.0], replace(config, rerank=True))

    @staticmethod
    def evaluate_every_mode(spec, index, bundles):
        """Image-only, fused, bi-directional and re-rank evaluations, then a re-rank sweep."""
        config = EvalConfig(encoder=spec, text_source="sparse")
        for mode in (
            dict(weights=FusionWeights(1.0, 0.0)),
            dict(weights=FusionWeights(0.7, 0.3)),
            dict(weights=FusionWeights(0.7, 0.3), bidirectional=True),
            dict(weights=FusionWeights(0.7, 0.3), rerank=True),
        ):
            evaluate_corpus(bundles, index, replace(config, **mode))
        sweep_fusion_weight(bundles, index, [0.0, 0.5, 1.0], replace(config, rerank=True))

    def test_no_ranked_list_is_built(self, monkeypatch):
        def refuse(self):
            raise AssertionError("evaluation built a RankedList")

        monkeypatch.setattr(RankedList, "__post_init__", refuse)
        self.evaluate_every_mode(*small_corpus())

    def test_no_embedding_vector_is_built_after_loading(self, monkeypatch):
        corpus = small_corpus()

        def refuse(self):
            raise AssertionError("evaluation built an EmbeddingVector")

        monkeypatch.setattr(EmbeddingVector, "__post_init__", refuse)
        self.evaluate_every_mode(*corpus)

    def test_bundle_order_in_per_query(self):
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec, weights=FusionWeights(1.0, 0.0))
        report = evaluate_corpus(bundles, index, config)
        assert [o.image_id for o in report.per_query] == [b.image_id for b in bundles]

    def test_rerank_pipeline_runs(self):
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec, rerank=True, text_source="sparse")
        report = evaluate_corpus(bundles, index, config)
        assert report.mean_ap == 1.0  # exact item match puts every gt on top

    def test_rerank_degenerates_on_single_candidate_lists(self):
        # With one caption in the index every ranked list has one entry, so
        # re-ranking cannot change anything and both configs must agree.
        spec, index, bundles = small_corpus(n=1)
        bundles = bundles[:1]
        plain = EvalConfig(encoder=spec, weights=FusionWeights(0.7, 0.3), text_source="sparse")
        boosted = EvalConfig(encoder=spec, weights=FusionWeights(0.7, 0.3),
                             text_source="sparse", rerank=True)
        a = evaluate_corpus(bundles, index, plain)
        b = evaluate_corpus(bundles, index, boosted)
        assert (a.recall_at_1, a.recall_at_5, a.mean_ap) == (b.recall_at_1, b.recall_at_5, b.mean_ap)
        assert [o.gt_rank for o in a.per_query] == [o.gt_rank for o in b.per_query]


def tie_corpus(seed, kind, dim=16, n_random=40, n_bundles=6, item_rows=False):
    """Bundles whose ground truth sits among exact ties and clamped scores.

    Every bundle adds, next to random rows: near-duplicates of its image and
    of its fused query (cosines that can round above 1.0 and clamp to a tie),
    two exact copies of one image near-duplicate and three of a random row.
    With ``item_rows``, it also adds three near-duplicates of its sparse
    text's vector, whose re-rank similarities can clamp to a tie at 1.0.
    Ids are shuffled against row order, so a row-order tie-break gives
    different ranks than the id order.
    """
    rng = np.random.default_rng(seed)
    spec = EncoderSpec("synthetic", dim, seed=seed)
    weights = FusionWeights(0.7, 0.3)
    rows = [rng.standard_normal(dim) for _ in range(n_random)]
    pending = []
    for j in range(n_bundles):
        e_img = unit(rng.standard_normal(dim))
        bundle = QueryBundle(f"q{j}", e_img, dense_pred_text=f"dish{j} sauce", sparse_pred_text=f"dish{j}")
        fused = fuse(bundle.e_img, encode_texts([bundle.dense_pred_text], spec)[0], weights).values
        first = len(rows)
        rows += [e_img.values + 1e-8 * rng.standard_normal(dim) for _ in range(2)]
        rows += [fused + 1e-8 * rng.standard_normal(dim) for _ in range(2)]
        rows += [rows[first]] * 2 + [rows[int(rng.integers(n_random))]] * 3
        if item_rows:
            item = encode_text_synthetic(bundle.sparse_pred_text, spec).values
            rows += [item + 1e-8 * rng.standard_normal(dim) for _ in range(3)]
        special = list(range(first, len(rows)))
        candidates = special + rng.choice(n_random, size=3, replace=False).tolist()
        gt_rows = rng.choice(candidates, size=1 + j % 5, replace=False).tolist()
        pending.append((bundle, gt_rows))
    matrix = np.array([r / np.linalg.norm(r) for r in rows], dtype=np.float32)
    ids = [f"c{i:03d}" for i in rng.permutation(len(rows))]
    text = "herb oil, rice" if kind == "sparse" else "a plated dish"
    index = CaptionIndex(
        tuple(Caption(cid, text, kind) for cid in ids), matrix, kind, spec.fingerprint()
    )
    bundles = [
        QueryBundle(b.image_id, b.e_img, b.dense_pred_text, b.sparse_pred_text,
                    tuple(ids[r] for r in gt_rows))
        for b, gt_rows in pending
    ]
    return spec, index, bundles


def full_ranking_outcome(bundle, index, points, encoded=None):
    """One bundle's outcomes at ``points``, built on complete rankings.

    The public per-bundle functions encode their own texts, so the
    pre-encoded vectors are ignored.
    """
    return [_full_ranking_outcome(bundle, index, config) for config in points]


def full_ranking_blocks(monkeypatch):
    """Replace ``evaluate._evaluate_block`` with ``full_ranking_outcome`` mapped over its bundles.

    Returns the list of bundles the stand-in ran, in order, so a test can
    check that every outcome it compares came from the stand-in.
    """
    ran = []

    def block(bundles, index, points, texts, items):
        ran.extend(bundles)
        return [full_ranking_outcome(b, index, points) for b in bundles]

    monkeypatch.setattr(evaluate, "_evaluate_block", block)
    return ran


def _full_ranking_outcome(bundle, index, config):
    """The outcome at one config, read off a complete ranking with the public metrics."""
    if config.rerank:
        k_out = max(5, len(set(bundle.gt_caption_ids)))
        ranked = retrieve_and_rerank(
            bundle, index, config.weights, N=max(config.pool_size, k_out), k=k_out,
            encoder=config.encoder,
        )
    elif config.bidirectional:
        ranked = search_bidirectional(
            bundle, index, config.weights, config.index_weights,
            config.text_source, config.encoder,
        )
    else:
        ranked = search_fused_topk(
            bundle, index, config.weights, config.text_source, config.encoder, k=len(index),
        )
    gt = set(bundle.gt_caption_ids)
    gt_rank = next((r for r, cid in enumerate(ranked.ids, start=1) if cid in gt), None)
    return QueryOutcome(
        image_id=bundle.image_id,
        k=len(gt),
        gt_rank=gt_rank,
        ap=average_precision(ranked, gt, len(gt)) if index.kind == "sparse" else None,
        hit_at_1=recall_at_k(ranked, bundle.gt_caption_ids, 1),
        hit_at_5=recall_at_k(ranked, bundle.gt_caption_ids, 5),
    )


COUNTED_MODES = {
    "image_only": dict(weights=FusionWeights(1.0, 0.0)),
    "fused": dict(weights=FusionWeights(0.7, 0.3)),
    "bidirectional": dict(weights=FusionWeights(0.7, 0.3), bidirectional=True),
}


class TestCountedOutcome:
    """Outcomes counted on the score vector equal those of a full ranking."""

    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("mode", sorted(COUNTED_MODES))
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_full_ranking(self, seed, mode, kind, monkeypatch):
        spec, index, bundles = tie_corpus(seed, kind)
        config = EvalConfig(encoder=spec, **COUNTED_MODES[mode])
        counted = evaluate_corpus(bundles, index, config)
        ran = full_ranking_blocks(monkeypatch)
        ranked = evaluate_corpus(bundles, index, config)
        assert ran == bundles
        assert counted.per_query == ranked.per_query
        for o in counted.per_query:
            assert type(o.gt_rank) is int
            assert type(o.hit_at_1) is int and type(o.hit_at_5) is int
            assert type(o.ap) is (float if kind == "sparse" else type(None))
        for fmt in ("json", "csv"):
            assert render_report(counted, fmt) == render_report(ranked, fmt)

    def test_rerank_matches_full_ranking(self, monkeypatch):
        spec, index, bundles = tie_corpus(0, "sparse")
        config = EvalConfig(encoder=spec, rerank=True, text_source="sparse", pool_size=20)
        counted = evaluate_corpus(bundles, index, config)
        ran = full_ranking_blocks(monkeypatch)
        assert render_report(counted) == render_report(evaluate_corpus(bundles, index, config))
        assert ran == bundles

    def test_rerank_pool_at_the_cut_matches_full_ranking(self, monkeypatch):
        # Every bundle here has at most 5 gt ids, so its cut is 5 entries.
        spec, index, bundles = tie_corpus(1, "sparse")
        assert max(len(b.gt_caption_ids) for b in bundles) <= 5
        config = EvalConfig(encoder=spec, rerank=True, text_source="sparse", pool_size=5)
        counted = evaluate_corpus(bundles, index, config)
        ran = full_ranking_blocks(monkeypatch)
        assert render_report(counted) == render_report(evaluate_corpus(bundles, index, config))
        assert ran == bundles

    def test_corpus_has_clamped_ties(self):
        # Guard the fixture: some gt row must score above 1.0 before clamping
        # and some gt rank must depend on the id tie-break.
        clamped = tie_broken = False
        for seed in range(5):
            _, index, bundles = tie_corpus(seed, "dense")
            for b in bundles:
                qnorm = search._query_norms(b.e_img.values[None], index)[0]
                scores = search._scores(b.e_img.values, qnorm, None, index.embeddings, search._UNIDIRECTIONAL)
                for cid in b.gt_caption_ids:
                    row = index.row_of(cid)
                    clamped |= bool(scores[row] > 1.0)
                    tied = np.flatnonzero(np.clip(scores, -1, 1) == min(scores[row], 1.0))
                    by_row = int(np.count_nonzero(tied < row))
                    by_id = int(np.count_nonzero(index._id_rank[tied] < index._id_rank[row]))
                    tie_broken |= by_row != by_id
        assert clamped and tie_broken


GRID = [i / 10 for i in range(11)]
METRICS = ("recall_at_1", "recall_at_5", "mean_ap")


def score_bits(ranked):
    return np.array(ranked.scores, dtype=np.float64).view(np.uint64).tolist()


def pool_of(pool, index):
    return {"n-1": len(index) - 1, "n": len(index), "above-n": len(index) + 6}.get(pool, pool)


class TestRerankSweep:
    """A re-rank sweep scores each block of bundles at every point at once; it equals per-point public rankings."""

    @pytest.mark.parametrize("pool", [5, 7, 20, 50, "n-1", "n", "above-n"])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_point_full_ranking(self, seed, pool, monkeypatch):
        spec, index, bundles = tie_corpus(seed, "sparse", item_rows=seed % 2 == 1)
        config = EvalConfig(
            encoder=spec, rerank=True, text_source="sparse", pool_size=pool_of(pool, index)
        )
        swept = {m: sweep_fusion_weight(bundles, index, GRID, config, m).values for m in METRICS}
        ran = full_ranking_blocks(monkeypatch)
        reports = [
            evaluate_corpus(bundles, index, replace(config, weights=FusionWeights(1.0 - g, g)))
            for g in GRID
        ]
        assert ran == bundles * len(GRID)
        for m in METRICS:
            assert swept[m] == tuple(float(getattr(r, m)) for r in reports)

    @pytest.mark.parametrize("pool", [5, 7, 20, "n-1", "n", "above-n"])
    @pytest.mark.parametrize("item_rows", [False, True])
    def test_public_pipeline_reranks_the_naive_pool(self, item_rows, pool):
        # The oracle above runs the public retrieve_and_rerank, whose stage 1
        # ranks the sweep's own ``_candidates``; this pins it to the public
        # rerank of the reference oracle's top N, cut to k, for k = 5 and k = N.
        cut_ties = 0
        for seed in range(5):
            spec, index, bundles = tie_corpus(seed, "sparse", item_rows=item_rows)
            N = pool_of(pool, index)
            for b in bundles:
                items = parse_items(b.sparse_pred_text)
                for g in GRID:
                    w = FusionWeights(1.0 - g, g)
                    query = fuse(b.e_img, encode_texts([b.sparse_pred_text], spec)[0], w)
                    full = search_topk_naive(query, index, len(index))
                    cut_ties += int(N < len(index) and full.scores[N - 1] == full.scores[N])
                    want = rerank(search_topk_naive(query, index, N), items, index, spec)
                    for k in (5, N):
                        got = retrieve_and_rerank(b, index, w, N=N, k=k, encoder=spec)
                        assert got.ids == want.ids[:k]
                        assert score_bits(got) == score_bits(want)[:k]
        # Fixture guard: some pool's N-th score ties with the first row left out.
        assert cut_ties > 0 or pool in ("n", "above-n")

    def test_one_block_equals_one_bundle_per_block(self, monkeypatch):
        # One screen serves bundles whose rows of it take different paths:
        # default pools of 50 and 55 rows, screened; one of 50 whose image
        # alone scores 12 rows at -1, so its band is None and it takes the
        # full scan; and pools of n = 60 rows and above n, which need no
        # screen. The block's reports equal those of one bundle per block.
        dim, rng = 16, np.random.default_rng(11)
        spec = EncoderSpec("synthetic", dim, seed=11)
        images = [unit(rng.standard_normal(dim)) for _ in range(5)]
        rows = [-images[2].values + 1e-8 * rng.standard_normal(dim) for _ in range(12)]
        rows += list(rng.standard_normal((46, dim)))
        rows += [rows[20], rows[30]]  # exact ties
        ids = [f"c{i:03d}" for i in rng.permutation(len(rows))]
        matrix = np.array([r / np.linalg.norm(r) for r in rows], dtype=np.float32)
        index = CaptionIndex(tuple(Caption(cid, "herb oil, rice", "sparse") for cid in ids), matrix,
                             "sparse", spec.fingerprint())
        bundles = [
            QueryBundle(f"q{j}", image, sparse_pred_text=f"dish{j}, herb{j}",
                        gt_caption_ids=tuple(rng.choice(ids[12:], size, replace=False)))
            for j, (image, size) in enumerate(zip(images, (1, 11, 1, 12, 13)))
        ]
        assert [default_pool_size(max(5, len(b.gt_caption_ids))) for b in bundles] == [50, 55, 50, 60, 65]
        assert len(index) == 60 and search._block_len(len(index)) // len(GRID) >= len(bundles)  # one block
        config = EvalConfig(encoder=spec, weights=FusionWeights(1.0, 0.0), rerank=True, text_source="sparse")
        band, bands = search._band, []
        monkeypatch.setattr(search, "_band", lambda *a: bands.append(band(*a)) or bands[-1])

        def outputs():
            bands.clear()
            got = [render_report(evaluate_corpus(bundles, index, config))]
            got += [sweep_fusion_weight(bundles, index, GRID, config, m) for m in METRICS]
            # Fixture guard: in every call, the three screened bundles reach
            # _band, and only the one whose image meets 12 rows at -1 gets None.
            assert [b is None for b in bands] == [False, False, True] * len(got)
            return got

        block = outputs()
        monkeypatch.setattr(search, "_ROW_BLOCK_BYTES", 8 * len(index))  # one bundle per block
        assert outputs() == block

    def test_corpus_ties_at_the_pool_cut(self):
        # Guard the fixture: at some point, rows tied at the N-th clamped
        # stage-1 score overflow the pool, so the id order picks its members.
        overflows = 0
        for seed in range(3):
            spec, index, bundles = tie_corpus(seed, "sparse")
            for b in bundles:
                e_text = encode_text_synthetic(b.sparse_pred_text, spec).values
                weights = [FusionWeights(1.0 - g, g) for g in GRID]
                queries = evaluate._fused(b.e_img.values[None], e_text[None], weights)
                for query, qnorm in zip(queries, search._query_norms(queries, index)):
                    scores = np.clip(search._cosines(index.embeddings, query, qnorm), -1.0, 1.0)
                    for pool in (5, 7, 20):
                        nth = np.sort(scores)[-pool]
                        overflows += int(np.count_nonzero(scores >= nth) > pool)
        assert overflows > 0

    def test_corpus_has_clamped_item_similarities(self):
        # Guard the fixture: item rows re-rank above 1.0 before clamping.
        spec, index, bundles = tie_corpus(1, "sparse", item_rows=True)
        items = np.stack([encode_text_synthetic(b.sparse_pred_text, spec).values for b in bundles])
        max_sim = sys.modules["f4search.rerank"]._max_sim(index.embeddings.astype(np.float64), items)
        assert np.count_nonzero(max_sim > 1.0) >= 2

    def test_ranks_nothing(self, monkeypatch):
        spec, index, bundles = tie_corpus(0, "sparse")
        config = EvalConfig(encoder=spec, rerank=True, text_source="sparse", pool_size=20)

        def refuse(*args):
            raise AssertionError("ranked rows")

        # ``f4search.rerank`` is also the name of the public function.
        monkeypatch.setattr(sys.modules["f4search.rerank"], "_rank", refuse)
        monkeypatch.setattr(search, "_rank", refuse)
        sweep_fusion_weight(bundles, index, GRID, config, "mean_ap")
        evaluate_corpus(bundles, index, config)
        # The patches do reach the public ordered path.
        with pytest.raises(AssertionError, match="ranked rows"):
            retrieve_and_rerank(bundles[0], index, N=20, encoder=spec)


SWEEP_MODES = {
    "fused": dict(),
    "bidir-0.3": dict(bidirectional=True, index_weights=FusionWeights(0.3, 0.7)),
    "bidir-0.5": dict(bidirectional=True, index_weights=FusionWeights(0.5, 0.5)),
    "rerank": dict(rerank=True, text_source="sparse", pool_size=20),
}


# The counted modes (bi-directional at the default index weights 0.3/0.7), plus 0.5/0.5.
SHARED_IMAGE_MODES = {**COUNTED_MODES, "bidir-0.5": {**COUNTED_MODES["bidirectional"], **SWEEP_MODES["bidir-0.5"]}}


def shared_image_bundles(bundles, tmp_path):
    """``bundles`` written to F4E and JSONL and loaded back, with two extra lines.

    One extra line names bundle 1's image id with bundle 3's texts and
    ground truth, so ``load_bundles`` gives two bundles one
    ``EmbeddingVector``. The other names a second record that holds a
    byte-equal copy of bundle 2's image, with bundle 4's texts and ground
    truth.
    """
    records = [(f"img{j}", b.e_img) for j, b in enumerate(bundles)] + [("img2-copy", bundles[2].e_img)]
    write_embedding_file(records, tmp_path / "images.f4e")
    lines = [
        {"image_id": f"img{j}", "dense_pred_text": b.dense_pred_text,
         "sparse_pred_text": b.sparse_pred_text, "gt_caption_ids": list(b.gt_caption_ids)}
        for j, b in enumerate(bundles)
    ]
    lines[2:2] = [{**lines[3], "image_id": "img1"}]
    lines[4:4] = [{**lines[5], "image_id": "img2-copy"}]
    (tmp_path / "bundles.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
    return load_bundles(tmp_path / "bundles.jsonl", tmp_path / "images.f4e")


class TestSharedImages:
    """Bundles that share one image object, or hold byte-equal copies, report as if each ran alone."""

    @pytest.mark.parametrize("mode", sorted(SHARED_IMAGE_MODES))
    def test_reports_equal_each_bundle_alone(self, mode, tmp_path, monkeypatch):
        spec, index, bundles = tie_corpus(3, "sparse")
        loaded = shared_image_bundles(bundles, tmp_path)
        # Fixture guards: one image object serves two bundles, and two bundles
        # hold equal bytes in distinct objects.
        assert loaded[1].e_img is loaded[2].e_img
        assert loaded[3].e_img is not loaded[4].e_img
        assert loaded[3].e_img.values.tobytes() == loaded[4].e_img.values.tobytes()
        assert search._block_len(len(index)) // len(GRID) >= len(loaded)  # one block, sweeps too
        config = EvalConfig(encoder=spec, **SHARED_IMAGE_MODES[mode])
        report = evaluate_corpus(loaded, index, config)
        sweep = sweep_fusion_weight(loaded, index, GRID, config, "mean_ap")
        assert report.per_query == tuple(evaluate_corpus([b], index, config).per_query[0] for b in loaded)
        # Blocks of one query: every bundle is screened on its own, for all its points.
        monkeypatch.setattr(search, "_ROW_BLOCK_BYTES", 8 * len(index))
        assert render_report(evaluate_corpus(loaded, index, config)) == render_report(report)
        assert sweep_fusion_weight(loaded, index, GRID, config, "mean_ap") == sweep


class TestSweep:
    @pytest.mark.parametrize("kind", ["dense", "sparse"])
    @pytest.mark.parametrize("mode", ["fused", "bidir-0.3", "bidir-0.5"])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_point_full_ranking(self, seed, mode, kind, monkeypatch):
        spec, index, bundles = tie_corpus(seed, kind)
        config = EvalConfig(encoder=spec, **SWEEP_MODES[mode])
        metrics = METRICS if kind == "sparse" else METRICS[:2]
        swept = {m: sweep_fusion_weight(bundles, index, GRID, config, m).values for m in metrics}
        ran = full_ranking_blocks(monkeypatch)
        reports = [
            evaluate_corpus(bundles, index, replace(config, weights=FusionWeights(1.0 - g, g)))
            for g in GRID
        ]
        assert ran == bundles * len(GRID)
        for m in metrics:
            assert swept[m] == tuple(float(getattr(r, m)) for r in reports)

    @pytest.mark.parametrize("mode", ["fused", "bidir-0.3", "rerank"])
    def test_screens_each_block_once(self, mode, monkeypatch):
        # Every evaluation, re-ranked or not, screens each block of bundles
        # once, for every bundle at every point. Each screen gets one image
        # row per bundle, and each query is owned by its bundle's row, except
        # that the uni-directional re-rank screen reads no image and gets none.
        spec, index, bundles = tie_corpus(0, "sparse")
        config = EvalConfig(encoder=spec, **SWEEP_MODES[mode])
        assert (config.pool_size or 0) < len(index)  # a pool of every row needs no screen
        screen, calls = search._screen, []
        monkeypatch.setattr(search, "_screen", lambda *a: calls.append(a) or screen(*a))
        n, grid = len(bundles), len(GRID)
        rerank = mode == "rerank"

        def check_owners(points):
            if rerank:
                assert all(images is None and owner is None for _, _, images, owner, *_ in calls)
                return
            start = 0
            for _, _, images, owner, *_ in calls:
                block = bundles[start : start + len(images)]
                assert images.tolist() == [b.e_img.values.tolist() for b in block]
                assert owner.tolist() == [j for j in range(len(block)) for _ in range(points)]
                start += len(block)
            assert start == n

        # By default every bundle fits one block; then blocks of 3 queries hold
        # 3 bundles at one point, or one bundle at every grid point.
        for queries, sweep_blocks, eval_blocks in ((None, [grid * n], [n]), (3, [grid] * n, [3, 3])):
            if queries:
                monkeypatch.setattr(search, "_ROW_BLOCK_BYTES", 8 * len(index) * queries)
            calls.clear()
            sweep_fusion_weight(bundles, index, GRID, config)
            assert [len(a[0]) for a in calls] == sweep_blocks
            check_owners(grid)
            calls.clear()
            evaluate_corpus(bundles, index, config)
            assert [len(a[0]) for a in calls] == eval_blocks
            check_owners(1)

    @pytest.mark.parametrize("queries", [1, 3])
    def test_block_size_never_changes_a_report(self, queries, monkeypatch):
        spec, index, bundles = tie_corpus(2, "sparse", item_rows=True)
        configs = [EvalConfig(encoder=spec, **COUNTED_MODES[m]) for m in sorted(COUNTED_MODES)]
        configs += [EvalConfig(encoder=spec, **SWEEP_MODES[m]) for m in sorted(SWEEP_MODES)]

        def outputs():
            reports = [render_report(evaluate_corpus(bundles, index, c)) for c in configs]
            return reports + [sweep_fusion_weight(bundles, index, GRID, c, "mean_ap") for c in configs]

        default = outputs()
        monkeypatch.setattr(search, "_ROW_BLOCK_BYTES", 8 * len(index) * queries)
        assert outputs() == default

    def test_grid_zero_equals_baseline(self):
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec, text_source="sparse")
        sweep = sweep_fusion_weight(bundles, index, [0.0], config)
        baseline = evaluate_corpus(
            bundles, index, EvalConfig(encoder=spec, weights=FusionWeights(1.0, 0.0)),
        )
        assert sweep.values[0] == baseline.recall_at_1

    def test_non_monotone_grid_rejected(self):
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec)
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_fusion_weight(bundles, index, [0.0, 0.5, 0.3], config)

    def test_out_of_range_grid_rejected(self):
        spec, index, bundles = small_corpus()
        with pytest.raises(ValueError, match="0, 1"):
            sweep_fusion_weight(bundles, index, [0.0, 1.5], EvalConfig(encoder=spec))

    def test_empty_grid_rejected(self):
        spec, index, bundles = small_corpus()
        with pytest.raises(ValueError, match="non-empty"):
            sweep_fusion_weight(bundles, index, [], EvalConfig(encoder=spec))

    def test_map_metric_on_dense_index_conflicts(self):
        spec, index, bundles = small_corpus(kind="dense")
        config = EvalConfig(encoder=spec)
        with pytest.raises(ConfigConflictError):
            sweep_fusion_weight(bundles, index, [0.0], config, metric="mean_ap")

    def test_peak(self):
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec, text_source="sparse")
        sweep = sweep_fusion_weight(bundles, index, [0.0, 0.3], config)
        w, v = sweep.peak()
        assert w in (0.0, 0.3)
        assert v == max(sweep.values)


class TestReports:
    def make_report(self):
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec, weights=FusionWeights(0.7, 0.3), text_source="sparse")
        return evaluate_corpus(bundles, index, config)

    def test_csv_shape(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        write_report(report, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "image_id,k,gt_rank,ap,hit@1,hit@5"
        assert len(lines) == 1 + len(report.per_query)

    def test_json_round_trip_and_determinism(self, tmp_path):
        report = self.make_report()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_report(report, p1, "json")
        write_report(report, p2, "json")
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert payload["recall_at_1"] == report.recall_at_1
        assert len(payload["per_query"]) == len(report.per_query)

    def test_json_layout_is_pinned(self):
        report = EvalReport(
            corpus_name="tiny",
            config={"k": 5, "weights": [0.7, 0.3], "encoder_fingerprint": None},
            recall_at_1=0.5,
            recall_at_5=1.0,
            mean_ap=None,
            per_query=(
                QueryOutcome("img-1", 2, 3, 0.1 + 0.2, 0, 1),
                QueryOutcome("img-2", 5, None, None, 0, 0),
            ),
        )
        assert render_report(report) == (
            "{\n"
            '  "corpus_name": "tiny",\n'
            '  "config": {\n'
            '    "k": 5,\n'
            '    "weights": [\n'
            "      0.7,\n"
            "      0.3\n"
            "    ],\n"
            '    "encoder_fingerprint": null\n'
            "  },\n"
            '  "recall_at_1": 0.5,\n'
            '  "recall_at_5": 1.0,\n'
            '  "mean_ap": null,\n'
            '  "per_query": [\n'
            "    {\n"
            '      "image_id": "img-1",\n'
            '      "k": 2,\n'
            '      "gt_rank": 3,\n'
            '      "ap": 0.30000000000000004,\n'
            '      "hit_at_1": 0,\n'
            '      "hit_at_5": 1\n'
            "    },\n"
            "    {\n"
            '      "image_id": "img-2",\n'
            '      "k": 5,\n'
            '      "gt_rank": null,\n'
            '      "ap": null,\n'
            '      "hit_at_1": 0,\n'
            '      "hit_at_5": 0\n'
            "    }\n"
            "  ]\n"
            "}\n"
        )

    def test_unwritable_path(self, tmp_path):
        report = self.make_report()
        with pytest.raises(OSError):
            write_report(report, tmp_path / "missing" / "report.json")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_report(self.make_report(), tmp_path / "r.x", "xml")

    def test_sweep_csv(self, tmp_path):
        spec, index, bundles = small_corpus()
        config = EvalConfig(encoder=spec, text_source="sparse")
        sweep = sweep_fusion_weight(bundles, index, [0.0, 0.5, 1.0], config)
        path = tmp_path / "sweep.csv"
        write_sweep(sweep, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "w_text,recall_at_1"
        assert len(lines) == 4


class TestLoadBundles:
    def test_round_trip(self, tmp_path):
        vec = unit(np.arange(1.0, 9.0))
        write_embedding_file([("img1", vec)], tmp_path / "images.f4e")
        (tmp_path / "bundles.jsonl").write_text(
            json.dumps(
                {
                    "image_id": "img1",
                    "dense_pred_text": "a plate",
                    "sparse_pred_text": "rice",
                    "gt_caption_ids": ["c1", "c2"],
                }
            )
            + "\n"
        )
        [bundle] = load_bundles(tmp_path / "bundles.jsonl", tmp_path / "images.f4e")
        assert bundle.image_id == "img1"
        assert bundle.gt_caption_ids == ("c1", "c2")
        np.testing.assert_allclose(bundle.e_img.values, vec.values, atol=1e-7)

    def test_missing_embedding_record(self, tmp_path):
        write_embedding_file([("img1", unit(np.ones(8)))], tmp_path / "images.f4e")
        (tmp_path / "bundles.jsonl").write_text('{"image_id": "other", "gt_caption_ids": ["c"]}\n')
        with pytest.raises(MalformedLineError, match="other"):
            load_bundles(tmp_path / "bundles.jsonl", tmp_path / "images.f4e")

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("dense_pred_text", 5, "dense_pred_text must be a string or null"),
            ("sparse_pred_text", ["rice"], "sparse_pred_text must be a string or null"),
            ("gt_caption_ids", "d00000", "gt_caption_ids must be a list of strings"),
            ("gt_caption_ids", [["d0"]], "gt_caption_ids must be a list of strings"),
            ("gt_caption_ids", [7], "gt_caption_ids must be a list of strings"),
            ("image_id", ["img1"], "no embedding record"),
        ],
        ids=["dense-int", "sparse-list", "gt-string", "gt-nested", "gt-int", "image-list"],
    )
    def test_bad_field_type_carries_line_number(self, tmp_path, field, value, reason):
        write_embedding_file([("img1", unit(np.ones(8)))], tmp_path / "images.f4e")
        good = {"image_id": "img1", "dense_pred_text": None, "gt_caption_ids": ["c"]}
        lines = [json.dumps(good), json.dumps({**good, field: value})]
        (tmp_path / "bundles.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedLineError, match=reason) as excinfo:
            load_bundles(tmp_path / "bundles.jsonl", tmp_path / "images.f4e")
        assert excinfo.value.line_no == 2


def _bundles_without_image_id(index, bundle, tmp_path):
    write_embedding_file([("img1", unit([1.0, 0.0]))], tmp_path / "images.f4e")
    (tmp_path / "bundles.jsonl").write_text('{"gt_caption_ids": ["a"]}\n')
    return load_bundles(tmp_path / "bundles.jsonl", tmp_path / "images.f4e")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda index, bundle, tmp_path: evaluate_corpus([], index, EvalConfig()),
         ValueError, "no query bundles to evaluate"),
        # search._encode_bundles owns the text source, at any weight, for evaluations and sweeps as for bundle searches.
        (lambda index, bundle, tmp_path: evaluate_corpus([bundle], index, EvalConfig(text_source="x")),
         ValueError, "unknown text source 'x'"),
        (lambda index, bundle, tmp_path: sweep_fusion_weight([bundle], index, [0.0], EvalConfig(text_source="x")),
         ValueError, "unknown text source 'x'"),
        # ... checked as the texts are encoded, after the bundles' own checks.
        (lambda index, bundle, tmp_path: evaluate_corpus([replace(bundle, e_img=unit([1.0, 0.0, 0.0]))], index,
                                                         EvalConfig(text_source="x")),
         DimensionMismatchError, "bundle 'q': image dim 3 vs 2 of the index"),
        (lambda index, bundle, tmp_path: sweep_fusion_weight([bundle], index, [0.0], EvalConfig(),
                                                             metric="x"),
         ValueError, "unknown sweep metric 'x'"),
        (_bundles_without_image_id, MalformedLineError, "line 1: expected an object with image_id"),
    ],
    ids=["no-bundles", "unknown-text-source", "sweep-unknown-text-source", "image-dim-before-text-source",
         "unknown-metric", "no-image-id"],
)
def test_guard_raises(make_index, tmp_path, call, error, message):
    index = make_index({"a": [1.0, 0.0], "b": [0.0, 1.0]})
    bundle = QueryBundle("q", unit([1.0, 0.0]), dense_pred_text="rice", gt_caption_ids=("a",))
    with pytest.raises(error, match=re.escape(message)):
        call(index, bundle, tmp_path)
