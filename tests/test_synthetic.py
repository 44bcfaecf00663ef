import json

import numpy as np
import pytest

from f4search.encoders import EncoderSpec, tokenize
from f4search.evaluate import load_bundles
from f4search.index import build_index, ingest_captions
from f4search.synthetic import SyntheticCorpusConfig, _build_vocab, generate_corpus

SMALL = dict(vocab_size=80, num_captions=60, dim=32, seed=11)


def test_regeneration_is_byte_identical(tmp_path):
    config = SyntheticCorpusConfig(**SMALL)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    generate_corpus(config, d1)
    generate_corpus(config, d2)
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_noiseless_corpus_is_perfectly_retrievable(tmp_path):
    config = SyntheticCorpusConfig(noise_sigma=0.0, dropout=0.0, **SMALL)
    manifest = generate_corpus(config, tmp_path)
    assert manifest["metrics"]["dense_baseline_recall_at_1"] == 1.0
    assert manifest["metrics"]["dense_baseline_recall_at_5"] == 1.0


def test_full_dropout_refused():
    with pytest.raises(ValueError, match="dropout"):
        SyntheticCorpusConfig(dropout=1.0)


def test_invalid_ranges_refused():
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(items_min=0)
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(items_min=5, items_max=3)
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(vocab_size=4, items_max=6)
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(noise_sigma=-1.0)


def test_generated_files_are_ingestable(tmp_path):
    config = SyntheticCorpusConfig(**SMALL)
    manifest = generate_corpus(config, tmp_path)
    encoder = EncoderSpec.from_fingerprint(manifest["encoder_fingerprint"])

    dense = ingest_captions(tmp_path / "captions_dense.jsonl")
    sparse = ingest_captions(tmp_path / "captions_sparse.jsonl")
    items = ingest_captions(tmp_path / "captions_items.jsonl")
    assert len(dense) == len(sparse) == SMALL["num_captions"]
    assert len(items) == SMALL["vocab_size"]
    assert {c.kind for c in dense} == {"dense"}
    assert {c.kind for c in sparse} == {"sparse"}

    dense_index = build_index(dense, encoder)
    items_index = build_index(items, encoder)

    bundles = load_bundles(tmp_path / "bundles.jsonl", tmp_path / "images.f4e")
    assert len(bundles) == SMALL["num_captions"]
    for bundle in bundles:
        assert all(dense_index.has_id(gt) for gt in bundle.gt_caption_ids)
        assert bundle.dense_pred_text and bundle.sparse_pred_text

    item_bundles = load_bundles(tmp_path / "bundles_items.jsonl", tmp_path / "images.f4e")
    for bundle in item_bundles:
        assert all(items_index.has_id(gt) for gt in bundle.gt_caption_ids)
        assert len(bundle.gt_caption_ids) >= config.items_min


def test_dense_captions_carry_more_tokens_than_sparse(tmp_path):
    config = SyntheticCorpusConfig(**SMALL)
    generate_corpus(config, tmp_path)
    dense = {c.id: c.text for c in ingest_captions(tmp_path / "captions_dense.jsonl")}
    sparse = {c.id: c.text for c in ingest_captions(tmp_path / "captions_sparse.jsonl")}
    for cid, dense_text in dense.items():
        assert len(tokenize(dense_text)) > len(tokenize(sparse[cid]))


def test_manifest_metrics_in_range(tmp_path):
    manifest = generate_corpus(SyntheticCorpusConfig(**SMALL), tmp_path)
    metrics = manifest["metrics"]
    assert 0.0 <= metrics["dense_baseline_recall_at_1"] <= metrics["dense_baseline_recall_at_5"] <= 1.0
    assert 0.0 <= metrics["items_baseline_mean_ap"] <= 1.0
    assert manifest["config"]["seed"] == SMALL["seed"]


def test_manifest_json_is_stable(tmp_path):
    generate_corpus(SyntheticCorpusConfig(**SMALL), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["format"] == "f4-synthetic-corpus"
    assert set(manifest["files"]) == {
        "captions_dense",
        "captions_sparse",
        "captions_items",
        "images",
        "bundles",
        "bundles_items",
    }


@pytest.mark.parametrize(
    "field, message",
    [("vocab_size", "vocab_size must be >= 1"), ("num_captions", "num_captions must be >= 1")],
)
def test_config_guard_raises(field, message):
    with pytest.raises(ValueError, match=message):
        SyntheticCorpusConfig(**{field: 0})


def test_vocab_beyond_the_generated_words_refused(tmp_path):
    assert len(_build_vocab(5625, np.random.default_rng(0))) == 5625
    config = SyntheticCorpusConfig(**{**SMALL, "vocab_size": 5626})
    with pytest.raises(ValueError, match="vocab_size 5626 exceeds the 5625 available words"):
        generate_corpus(config, tmp_path)


def test_too_few_distinct_item_sets_refused(tmp_path):
    # Three words make one 3-item set, so the second caption finds no new one.
    config = SyntheticCorpusConfig(
        **{**SMALL, "vocab_size": 3, "items_min": 3, "items_max": 3, "num_captions": 2}
    )
    with pytest.raises(ValueError, match="could not draw enough distinct item sets"):
        generate_corpus(config, tmp_path)
