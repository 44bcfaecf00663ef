"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(visible with ``pytest -s``) and enforcing its stated tolerance and runtime
budget. Direction-of-effect criteria run on synthetic corpora whose baseline
metrics were recorded at generation time by the naive reference scan."""

import time

import numpy as np
import pytest

from f4search.embfile import load_embedding_file, write_embedding_file
from f4search.encoders import EncoderSpec
from f4search.evaluate import (
    EvalConfig,
    average_precision,
    derive_k,
    evaluate_corpus,
    render_report,
    sweep_fusion_weight,
    write_report,
)
from f4search.index import Caption, build_index, load_index, save_index
from f4search.rerank import parse_items, rerank
from f4search.search import (
    QueryBundle,
    RankedList,
    search_bidirectional,
    search_fused_topk,
    search_topk,
    search_topk_naive,
)
from f4search.vectors import FusionWeights

from conftest import unit


def check(num, desc, ok, elapsed, limit, detail=""):
    status = "PASS" if (ok and elapsed < limit) else "FAIL"
    print(f"[criterion {num:2d}] {status}: {desc} ({elapsed:.2f}s, limit {limit:.0f}s) {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.2f}s over {limit}s budget"


def random_caption_index(n, dim, seed):
    rng = np.random.default_rng(seed)
    pool = [f"tok{j:03d}" for j in range(300)]
    captions = []
    for i in range(n):
        words = rng.choice(pool, size=5, replace=False)
        captions.append(Caption(f"c{i:05d}", " ".join(words), "dense"))
    return build_index(captions, EncoderSpec("synthetic", dim, seed=seed))


def test_criterion_1_fusion_degeneration():
    t0 = time.perf_counter()
    index = random_caption_index(1000, 64, seed=101)
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(500):
        e_img = unit(rng.standard_normal(64))
        baseline = search_topk(e_img, index, k=len(index))
        fused = search_fused_topk(
            QueryBundle("q", e_img), index, FusionWeights(1.0, 0.0), k=len(index)
        )
        if fused.ids != baseline.ids:
            ok = False
            break
    check(1, "w=(1,0) fused ranking == baseline, 500 queries x 1000 captions",
          ok, time.perf_counter() - t0, 5.0)


def test_criterion_2_oracle_equivalence(make_index):
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for seed in range(10):
        for dim in (8, 32, 256):
            rng = np.random.default_rng(1000 + 17 * seed + dim)
            rows = {f"v{i:04d}": rng.standard_normal(dim) for i in range(1000)}
            index = make_index(rows)
            query = unit(rng.standard_normal(dim))
            slow = search_topk_naive(query, index, 37)
            for k in (1, 5, 37):
                fast = search_topk(query, index, k)
                if fast.ids != slow.ids[:k]:
                    ok, detail = False, f"id mismatch seed={seed} dim={dim} k={k}"
                    break
                if np.max(np.abs(np.array(fast.scores) - np.array(slow.scores[:k]))) > 1e-6:
                    ok, detail = False, f"score drift seed={seed} dim={dim} k={k}"
                    break
    check(2, "optimized parallel top-k == naive full sort, 10 seeds x 3 dims x 3 ks",
          ok, time.perf_counter() - t0, 30.0, detail)


def test_criterion_3_metric_correctness():
    t0 = time.perf_counter()
    interleaved = RankedList((("a", 0.9), ("x", 0.8), ("b", 0.7)), k=3)
    expected = (1.0 / 1.0 + 2.0 / 3.0) / 2.0
    ok = abs(average_precision(interleaved, {"a", "b"}, 3) - expected) <= 1e-9
    perfect = RankedList((("a", 0.9), ("b", 0.8)), k=2)
    ok = ok and average_precision(perfect, {"a", "b"}, 2) == 1.0
    miss = RankedList((("x", 0.9), ("y", 0.8), ("z", 0.7)), k=3)
    ok = ok and average_precision(miss, {"a"}, 1) == 0.0
    ok = ok and derive_k("scallop, cauliflower, greens, herb oil") == 4
    check(3, "average precision and per-image k rule", ok, time.perf_counter() - t0, 1.0)


def test_criterion_4_fusion_lift(corpus42):
    t0 = time.perf_counter()
    baseline_recorded = corpus42.manifest["metrics"]["dense_baseline_recall_at_1"]
    in_band = 0.30 <= baseline_recorded <= 0.60

    base_cfg = EvalConfig(encoder=corpus42.encoder, weights=FusionWeights(1.0, 0.0))
    baseline = evaluate_corpus(corpus42.bundles, corpus42.dense_index, base_cfg)
    agrees = baseline.recall_at_1 == baseline_recorded

    fused_cfg = EvalConfig(encoder=corpus42.encoder, weights=FusionWeights(0.7, 0.3),
                           text_source="dense")
    fused = evaluate_corpus(corpus42.bundles, corpus42.dense_index, fused_cfg)
    lift = fused.recall_at_1 - baseline.recall_at_1
    ok = in_band and agrees and lift >= 0.05
    check(4, "uni-directional fusion lifts R@1 by >= +0.05 over recorded baseline",
          ok, time.perf_counter() - t0, 20.0,
          f"baseline={baseline.recall_at_1:.3f} fused={fused.recall_at_1:.3f} lift={lift:+.3f}")


def test_criterion_5_sweep_shape(corpus42):
    t0 = time.perf_counter()
    config = EvalConfig(encoder=corpus42.encoder, text_source="dense")
    sweep = sweep_fusion_weight(
        corpus42.bundles, corpus42.dense_index, [0.0, 0.2, 0.3, 1.0], config
    )
    by_w = dict(zip(sweep.grid, sweep.values))
    ok = all(by_w[w] > by_w[0.0] and by_w[w] > by_w[1.0] for w in (0.2, 0.3))
    check(5, "R@1 at w_text in {0.2, 0.3} strictly beats w_text in {0, 1}",
          ok, time.perf_counter() - t0, 60.0,
          " ".join(f"w={w:g}:{v:.3f}" for w, v in by_w.items()))


def test_criterion_6_rerank_lift(rerank_fixture):
    t0 = time.perf_counter()
    fx = rerank_fixture
    plain_cfg = EvalConfig(encoder=fx.encoder, weights=FusionWeights(0.7, 0.3),
                           text_source="sparse", pool_size=50)
    rerank_cfg = EvalConfig(encoder=fx.encoder, weights=FusionWeights(0.7, 0.3),
                            text_source="sparse", rerank=True, pool_size=50)
    plain = evaluate_corpus(fx.bundles, fx.index, plain_cfg)
    boosted = evaluate_corpus(fx.bundles, fx.index, rerank_cfg)
    gain = boosted.mean_ap - plain.mean_ap
    ok = gain >= 0.10
    check(6, "retrieve_and_rerank(N=50) mAP >= no-rerank mAP + 0.10",
          ok, time.perf_counter() - t0, 20.0,
          f"no-rerank={plain.mean_ap:.3f} rerank={boosted.mean_ap:.3f} gain={gain:+.3f}")


def test_criterion_7_rerank_properties():
    t0 = time.perf_counter()
    spec = EncoderSpec("synthetic", 32, seed=13)
    vocab = [f"food{j:02d}" for j in range(60)]
    index = build_index([Caption(f"i{j:02d}", w, "sparse") for j, w in enumerate(vocab)], spec)
    rng = np.random.default_rng(14)
    ok = True
    detail = ""
    for case in range(1000):
        query = unit(rng.standard_normal(32))
        initial = search_topk(query, index, k=8)
        words = rng.choice(vocab, size=int(rng.integers(1, 5)), replace=False).tolist()
        items = parse_items(", ".join(words))
        once = rerank(initial, items, index, spec)
        if sorted(once.ids) != sorted(initial.ids):
            ok, detail = False, f"case {case}: candidate set changed"
            break
        twice = rerank(once, items, index, spec)
        if twice.entries != once.entries:
            ok, detail = False, f"case {case}: not idempotent"
            break
        permuted = parse_items(", ".join(reversed(words)))
        swapped = rerank(initial, permuted, index, spec)
        if swapped.entries != once.entries:
            ok, detail = False, f"case {case}: item order mattered"
            break
    check(7, "rerank idempotence, set preservation, item-order independence x1000",
          ok, time.perf_counter() - t0, 10.0, detail)


def test_criterion_8_bidirectional_consistency():
    t0 = time.perf_counter()
    spec = EncoderSpec("synthetic", 32, seed=15)
    vocab = [f"w{j:03d}" for j in range(150)]
    captions = [Caption(f"c{j:03d}", vocab[j], "sparse") for j in range(150)]
    index = build_index(captions, spec)
    rng = np.random.default_rng(16)
    ok = True
    detail = ""
    for q in range(100):
        words = rng.choice(vocab, size=3, replace=False)
        bundle = QueryBundle(
            f"q{q}", unit(rng.standard_normal(32)), sparse_pred_text=", ".join(words)
        )
        uni = search_fused_topk(bundle, index, FusionWeights(0.7, 0.3), "sparse", spec,
                                k=len(index))
        bi = search_bidirectional(bundle, index, FusionWeights(0.7, 0.3),
                                  FusionWeights(0.0, 1.0), "sparse", spec)
        if bi.ids != uni.ids:
            ok, detail = False, f"query {q}: id order diverged"
            break
        if np.max(np.abs(np.array(bi.scores) - np.array(uni.scores))) > 1e-6:
            ok, detail = False, f"query {q}: scores diverged"
            break
        # Near-degenerate index weights drive the general per-candidate
        # fusion path; its scores must agree with uni-directional too.
        near = search_bidirectional(bundle, index, FusionWeights(0.7, 0.3),
                                    FusionWeights(1e-7, 1.0 - 1e-7), "sparse", spec)
        uni_by_id = dict(uni.entries)
        drift = max(abs(score - uni_by_id[cid]) for cid, score in near.entries)
        if drift > 1e-6:
            ok, detail = False, f"query {q}: general path drift {drift:.2e}"
            break
        collapsed = search_bidirectional(bundle, index, FusionWeights(0.7, 0.3),
                                         FusionWeights(1.0, 0.0), "sparse", spec)
        if list(collapsed.ids) != sorted(collapsed.ids):
            ok, detail = False, f"query {q}: collapse not id-ordered"
            break
    check(8, "w_index=(0,1) matches uni-directional; w_index=(1,0) orders by id",
          ok, time.perf_counter() - t0, 5.0, detail)


def test_criterion_9_persistence(tmp_path, synthetic_spec):
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    records = [(f"r{i:03d}", unit(rng.standard_normal(32))) for i in range(100)]
    f1, f2 = tmp_path / "a.f4e", tmp_path / "b.f4e"
    write_embedding_file(records, f1)
    write_embedding_file(records, f2)
    loaded = load_embedding_file(f1)
    ok = f1.read_bytes() == f2.read_bytes()
    ok = ok and [r[0] for r in loaded] == [r[0] for r in records]
    ok = ok and all(
        np.max(np.abs(a.values - b.values)) <= 1e-7
        for (_, a), (_, b) in zip(records, loaded)
    )

    captions = [Caption(f"c{i:03d}", f"dish {i} with rice and beans", "dense") for i in range(100)]
    index = build_index(captions, synthetic_spec)
    i1, i2 = tmp_path / "a.f4i", tmp_path / "b.f4i"
    save_index(index, i1)
    save_index(index, i2)
    back = load_index(i1)
    ok = ok and i1.read_bytes() == i2.read_bytes()
    ok = ok and [c.id for c in back.captions] == [c.id for c in index.captions]
    ok = ok and [c.text for c in back.captions] == [c.text for c in index.captions]
    ok = ok and float(np.max(np.abs(back.embeddings - index.embeddings))) <= 1e-7
    ok = ok and back.encoder_fingerprint == index.encoder_fingerprint
    check(9, "F4E/F4I round-trips exact; double saves byte-identical",
          ok, time.perf_counter() - t0, 5.0)


def test_criterion_10_parallel_determinism(corpus42, tmp_path):
    t0 = time.perf_counter()
    reports = {}
    for workers in (1, 8):
        config = EvalConfig(encoder=corpus42.encoder, weights=FusionWeights(0.7, 0.3),
                            text_source="dense", workers=workers)
        report = evaluate_corpus(corpus42.bundles, corpus42.dense_index, config)
        path = tmp_path / f"report_w{workers}.json"
        write_report(report, path, "json")
        reports[workers] = path.read_bytes()
    ok = reports[1] == reports[8]
    check(10, "evaluate_corpus reports byte-identical for 1 and 8 workers",
          ok, time.perf_counter() - t0, 30.0)
