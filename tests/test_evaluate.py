import json

import numpy as np
import pytest

from f4search import evaluate, search
from f4search.encoders import EncoderSpec, encode_text_synthetic
from f4search.errors import (
    ConfigConflictError,
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
from f4search.rerank import retrieve_and_rerank
from f4search.search import (
    QueryBundle,
    RankedList,
    fused_query,
    search_bidirectional,
    search_fused_topk,
)
from f4search.vectors import FusionWeights

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


def tie_corpus(seed, kind, dim=16, n_random=40, n_bundles=6):
    """Bundles whose ground truth sits among exact ties and clamped scores.

    Every bundle adds, next to random rows: near-duplicates of its image and
    of its fused query (cosines that can round above 1.0 and clamp to a tie),
    two exact copies of one image near-duplicate and three of a random row.
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
        fused = fused_query(bundle, weights, "dense", spec).values
        first = len(rows)
        rows += [e_img.values + 1e-8 * rng.standard_normal(dim) for _ in range(2)]
        rows += [fused + 1e-8 * rng.standard_normal(dim) for _ in range(2)]
        rows += [rows[first]] * 2 + [rows[int(rng.integers(n_random))]] * 3
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


def full_ranking_outcome(bundle, index, config, encoded=None):
    """The outcome read off a complete ranking with the public metrics.

    The public per-bundle functions encode their own texts, so the
    pre-encoded vectors are ignored.
    """
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
        monkeypatch.setattr(evaluate, "_evaluate_bundle", full_ranking_outcome)
        ranked = evaluate_corpus(bundles, index, config)
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
        monkeypatch.setattr(evaluate, "_evaluate_bundle", full_ranking_outcome)
        assert render_report(counted) == render_report(evaluate_corpus(bundles, index, config))

    def test_corpus_has_clamped_ties(self):
        # Guard the fixture: some gt row must score above 1.0 before clamping
        # and some gt rank must depend on the id tie-break.
        clamped = tie_broken = False
        for seed in range(5):
            _, index, bundles = tie_corpus(seed, "dense")
            for b in bundles:
                scores = search._query_scores(b.e_img, index)
                for cid in b.gt_caption_ids:
                    row = index.row_of(cid)
                    clamped |= bool(scores[row] > 1.0)
                    tied = np.flatnonzero(np.clip(scores, -1, 1) == min(scores[row], 1.0))
                    by_row = int(np.count_nonzero(tied < row))
                    by_id = int(np.count_nonzero(index._id_rank[tied] < index._id_rank[row]))
                    tie_broken |= by_row != by_id
        assert clamped and tie_broken


class TestSweep:
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
