"""Bundle searches encode each call's distinct texts once, in batched remote requests."""

import dataclasses
import math
import re

import numpy as np
import pytest

from f4search import remote
from f4search.encoders import encode_image_synthetic
from f4search.errors import (
    ConfigConflictError,
    EmptyTextError,
    MissingPredictionTextError,
    NoItemsError,
)
from f4search.evaluate import EvalConfig, evaluate_corpus, sweep_fusion_weight
from f4search.index import Caption, build_index
from f4search.rerank import parse_items, retrieve_and_rerank
from f4search.search import QueryBundle
from f4search.vectors import FusionWeights

# The remote spec names the stub's endpoint, not the synthetic index encoder.
pytestmark = pytest.mark.filterwarnings("ignore:query encoder remote")

FUSED = FusionWeights(0.7, 0.3)
IMAGE_ONLY = FusionWeights(1.0, 0.0)
GRID = [i / 10 for i in range(11)]
MODES = {
    "fused": dict(weights=FUSED),
    "bidirectional": dict(weights=FUSED, bidirectional=True),
    "rerank": dict(weights=FUSED, rerank=True, text_source="sparse", pool_size=10),
}


def stub_corpus(spec, n_bundles=45, n_dense=30, vocab=40):
    """A sparse index of 3-item dishes and one bundle per dish.

    Bundle j's dense text repeats that of bundle j - ``n_dense``, so the
    bundles carry ``n_dense`` distinct dense texts; every sparse text is
    distinct and holds 2 or 3 phrases.
    """
    rng = np.random.default_rng(11)
    words = [f"herb{j:02d}" for j in range(vocab)]
    dishes = [tuple(rng.choice(words, size=3, replace=False)) for _ in range(n_bundles)]
    captions = [Caption(f"c{j:02d}", ", ".join(d), "sparse") for j, d in enumerate(dishes)]
    index = build_index(captions, spec)
    bundles = [
        QueryBundle(
            f"q{j:02d}",
            encode_image_synthetic(captions[j].text, 0.8, spec, noise_seed=j),
            dense_pred_text="a plate of " + " and ".join(dishes[j % n_dense]),
            sparse_pred_text=", ".join(dishes[j][: 2 + j % 2]),
            gt_caption_ids=(captions[j].id,),
        )
        for j in range(n_bundles)
    ]
    return index, bundles


@pytest.fixture
def corpus(synthetic_spec):
    return stub_corpus(synthetic_spec)


def sent(stub):
    return stub.requests, stub.texts


class TestRequestCount:
    def test_fused_sends_distinct_texts_in_one_request(self, corpus, embed_stub):
        index, bundles = corpus
        assert len(bundles) == 45 and len({b.dense_pred_text for b in bundles}) == 30
        evaluate_corpus(bundles, index, EvalConfig(encoder=embed_stub.remote, weights=FUSED))
        assert sent(embed_stub) == (1, 30)

    def test_batches_of_batch_size(self, corpus, embed_stub, monkeypatch):
        monkeypatch.setattr(remote, "BATCH_SIZE", 8)
        index, bundles = corpus
        evaluate_corpus(bundles, index, EvalConfig(encoder=embed_stub.remote, weights=FUSED))
        assert sent(embed_stub) == (4, 30)

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_image_only_sends_nothing(self, corpus, embed_stub, bidirectional):
        index, bundles = corpus
        config = EvalConfig(
            encoder=embed_stub.remote, weights=IMAGE_ONLY, bidirectional=bidirectional
        )
        evaluate_corpus(bundles, index, config)
        assert sent(embed_stub) == (0, 0)

    def test_rerank_sends_sparse_texts_and_phrases(self, corpus, embed_stub):
        index, bundles = corpus
        sparse = {b.sparse_pred_text for b in bundles}
        phrases = {p for text in sparse for p in parse_items(text).phrases}
        # Guards: no sparse text is also a phrase, and the texts need two batches.
        assert not sparse & phrases and len(sparse) + len(phrases) > remote.BATCH_SIZE
        evaluate_corpus(bundles, index, EvalConfig(encoder=embed_stub.remote, **MODES["rerank"]))
        distinct = len(sparse) + len(phrases)
        assert sent(embed_stub) == (math.ceil(distinct / remote.BATCH_SIZE), distinct)

    @pytest.mark.parametrize("mode", ["fused", "rerank"])
    def test_sweep_sends_as_much_as_one_evaluation(self, corpus, embed_stub, mode):
        index, bundles = corpus
        config = EvalConfig(encoder=embed_stub.remote, **MODES[mode])
        evaluate_corpus(bundles, index, config)
        one = sent(embed_stub)
        sweep_fusion_weight(bundles, index, GRID, config, "mean_ap")
        assert sent(embed_stub) == (2 * one[0], 2 * one[1])


class TestRetrieveAndRerank:
    """The public two-stage search encodes its texts as an evaluation does."""

    def test_text_and_phrases_in_one_request(self, corpus, embed_stub):
        index, bundles = corpus
        bundle = dataclasses.replace(bundles[0], sparse_pred_text="shrimp, rice, greens")
        got = retrieve_and_rerank(bundle, index, encoder=embed_stub.remote)
        assert sent(embed_stub) == (1, 4)
        assert got == retrieve_and_rerank(bundle, index, encoder=embed_stub.spec)

    def test_no_items_raises_before_any_request(self, corpus, embed_stub):
        index, bundles = corpus
        bundle = dataclasses.replace(bundles[0], sparse_pred_text=",,,")
        with pytest.raises(NoItemsError):
            retrieve_and_rerank(bundle, index, encoder=embed_stub.remote)
        assert sent(embed_stub) == (0, 0)


class TestRemoteMatchesSynthetic:
    """The stub answers synthetic vectors, so both encoders give one outcome."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_evaluation(self, corpus, embed_stub, mode):
        index, bundles = corpus
        got = evaluate_corpus(bundles, index, EvalConfig(encoder=embed_stub.remote, **MODES[mode]))
        want = evaluate_corpus(bundles, index, EvalConfig(encoder=embed_stub.spec, **MODES[mode]))
        assert got.per_query == want.per_query

    def test_rerank_sweep(self, corpus, embed_stub):
        index, bundles = corpus
        got = sweep_fusion_weight(
            bundles, index, GRID, EvalConfig(encoder=embed_stub.remote, **MODES["rerank"]),
            "mean_ap",
        )
        want = sweep_fusion_weight(
            bundles, index, GRID, EvalConfig(encoder=embed_stub.spec, **MODES["rerank"]),
            "mean_ap",
        )
        assert got.values == want.values


class TestErrorOrder:
    @pytest.mark.parametrize("mode, field", [("fused", "dense"), ("rerank", "sparse")])
    def test_missing_text_raises_before_any_request(self, corpus, embed_stub, mode, field):
        index, bundles = corpus
        bundles[20] = dataclasses.replace(bundles[20], **{f"{field}_pred_text": None})
        config = EvalConfig(encoder=embed_stub.remote, **MODES[mode])
        with pytest.raises(MissingPredictionTextError, match=f"'q20' has no {field}"):
            evaluate_corpus(bundles, index, config)
        with pytest.raises(MissingPredictionTextError, match="'q20'"):
            sweep_fusion_weight(bundles, index, GRID, config)
        assert sent(embed_stub) == (0, 0)

    @pytest.mark.parametrize("pool", [-5, 0, 6])
    def test_pool_below_the_cut_raises_before_any_request(self, corpus, embed_stub, pool):
        # Seven ground-truth ids give bundle q05 a re-rank cut of 7 entries.
        index, bundles = corpus
        gt = tuple(c.id for c in index.captions[:7])
        bundles[5] = dataclasses.replace(bundles[5], gt_caption_ids=gt)
        config = EvalConfig(encoder=embed_stub.remote, **{**MODES["rerank"], "pool_size": pool})
        # The error names the first bundle whose cut exceeds the pool.
        named = "'q05''s cut 7" if pool == 6 else "'q00''s cut 5"
        message = re.escape(f"pool {pool} ") + ".*" + re.escape(named)
        with pytest.raises(ConfigConflictError, match=message):
            evaluate_corpus(bundles, index, config)
        with pytest.raises(ConfigConflictError, match=message):
            sweep_fusion_weight(bundles, index, GRID, config)
        assert sent(embed_stub) == (0, 0)

    def test_map_on_dense_index_raises_before_any_request(self, corpus, synthetic_spec, embed_stub):
        index, bundles = corpus
        dense = build_index([Caption(c.id, c.text, "dense") for c in index.captions], synthetic_spec)
        config = EvalConfig(encoder=embed_stub.remote, **MODES["fused"])
        with pytest.raises(ConfigConflictError, match="^metric mean_ap unavailable on a dense index$"):
            sweep_fusion_weight(bundles, dense, GRID, config, "mean_ap")
        assert sent(embed_stub) == (0, 0)

    @pytest.mark.parametrize(
        "mode, field, text",
        [("fused", "dense", "!!! ..."), ("rerank", "sparse", "herb01, ???")],
    )
    def test_text_without_tokens(self, corpus, synthetic_spec, mode, field, text):
        index, bundles = corpus
        bundles[7] = dataclasses.replace(bundles[7], **{f"{field}_pred_text": text})
        config = EvalConfig(encoder=synthetic_spec, **MODES[mode])
        with pytest.raises(EmptyTextError):
            evaluate_corpus(bundles, index, config)

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_image_only_needs_no_text_or_encoder(self, corpus, synthetic_spec, bidirectional):
        index, bundles = corpus
        no_text = dict(dense_pred_text=None, sparse_pred_text=None)
        bare = [dataclasses.replace(b, **no_text) for b in bundles]
        config = EvalConfig(weights=IMAGE_ONLY, bidirectional=bidirectional)
        got = evaluate_corpus(bare, index, config)
        want = evaluate_corpus(bundles, index, dataclasses.replace(config, encoder=synthetic_spec))
        assert got.per_query == want.per_query
        assert sweep_fusion_weight(bare, index, [0.0], config).values == (got.recall_at_1,)
