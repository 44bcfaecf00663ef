"""Deterministic synthetic corpus generator for desk-scale experiments.

Each generated "dish" is a set of invented single-word ingredients. The
dish's dense caption is a templated sentence over those items, the sparse
caption is the comma-joined item list, and the image embedding is a noisy
view of the dense caption. Prediction texts are built from the item list
after seeded token dropout, with a freshly drawn template on the dense
side so predicted phrasing never matches index phrasing verbatim.

A corpus directory contains:

    captions_dense.jsonl   one dense caption per dish
    captions_sparse.jsonl  one comma-list caption per dish (same ids)
    captions_items.jsonl   one caption per vocabulary word (ingredient index)
    images.f4e             image embeddings keyed by dish id
    bundles.jsonl          per-dish query bundles, gt = the dish id
    bundles_items.jsonl    per-dish bundles, gt = the dish's ingredient ids
    manifest.json          config echo + baseline metrics from the naive oracle
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .embfile import _write_atomic, write_embedding_file
from .encoders import EncoderSpec, _synthetic_images, _token_seed, tokenize
from .evaluate import average_precision, recall_at_k
from .index import Caption, build_index
from .search import search_topk_naive
from .vectors import EmbeddingVector, _Adopted

DENSE_TEMPLATES = (
    "a plate of {items}",
    "hearty bowl of {items} served warm",
    "rustic platter with {items} on top",
    "fresh serving of {items} with garnish",
    "homestyle dish of {items} drizzled in sauce",
    "generous portion of {items} arranged neatly",
)

_CONSONANTS = "bcdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    vocab_size: int = 400
    num_captions: int = 800
    items_min: int = 3
    items_max: int = 6
    noise_sigma: float = 0.25
    dropout: float = 0.45
    seed: int = 42
    dim: int = 64

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if self.num_captions < 1:
            raise ValueError("num_captions must be >= 1")
        if not 1 <= self.items_min <= self.items_max:
            raise ValueError("need 1 <= items_min <= items_max")
        if self.items_max > self.vocab_size:
            raise ValueError("items_max cannot exceed vocab_size")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1); 1.0 would empty predictions")


def _build_vocab(size: int, rng: np.random.Generator) -> list[str]:
    template_words = set()
    for tpl in DENSE_TEMPLATES:
        template_words.update(tokenize(tpl.format(items="x")))
    words = [
        c1 + v1 + c2 + v2
        for c1 in _CONSONANTS
        for v1 in _VOWELS
        for c2 in _CONSONANTS
        for v2 in _VOWELS
    ]
    words = [w for w in words if w not in template_words]
    if size > len(words):
        raise ValueError(f"vocab_size {size} exceeds the {len(words)} available words")
    order = rng.permutation(len(words))
    return [words[i] for i in order[:size]]


def _join_items(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    return ", ".join(items[:-1]) + " and " + items[-1]


def _drop_items(items: list[str], dropout: float, rng: np.random.Generator) -> list[str]:
    kept = [it for it in items if rng.random() >= dropout]
    return kept if kept else [items[0]]


def generate_corpus(config: SyntheticCorpusConfig, out_dir) -> dict:
    """Write a full synthetic corpus; returns the manifest dict.

    Regeneration with the same config is byte-identical: every random
    draw comes from generators seeded by the config seed alone.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    encoder = EncoderSpec("synthetic", config.dim, seed=config.seed)

    vocab = _build_vocab(config.vocab_size, rng)
    item_ids = {word: f"i{j:04d}" for j, word in enumerate(vocab)}

    dishes = []
    seen_sets: set[frozenset] = set()
    for i in range(config.num_captions):
        for _ in range(1000):
            n_items = int(rng.integers(config.items_min, config.items_max + 1))
            idx = rng.choice(config.vocab_size, size=n_items, replace=False)
            items = [vocab[j] for j in idx]
            key = frozenset(items)
            if key not in seen_sets:
                seen_sets.add(key)
                break
        else:
            raise ValueError("could not draw enough distinct item sets; widen ranges")
        template = DENSE_TEMPLATES[int(rng.integers(len(DENSE_TEMPLATES)))]
        dense_text = template.format(items=_join_items(items))
        pred_items_dense = _drop_items(items, config.dropout, rng)
        pred_items_sparse = _drop_items(items, config.dropout, rng)
        pred_template = DENSE_TEMPLATES[int(rng.integers(len(DENSE_TEMPLATES)))]
        dishes.append(
            {
                "id": f"d{i:05d}",
                "items": items,
                "dense_text": dense_text,
                "sparse_text": ", ".join(items),
                "dense_pred": pred_template.format(items=_join_items(pred_items_dense)),
                "sparse_pred": ", ".join(pred_items_sparse),
            }
        )

    dense_captions = [Caption(d["id"], d["dense_text"], "dense") for d in dishes]
    sparse_captions = [Caption(d["id"], d["sparse_text"], "sparse") for d in dishes]
    item_captions = [Caption(item_ids[w], w, "sparse") for w in vocab]

    rows = _synthetic_images(
        [d["dense_text"] for d in dishes],
        config.noise_sigma,
        encoder,
        [_token_seed(f"image:{d['id']}", config.seed) for d in dishes],
    )
    images = [(d["id"], EmbeddingVector(_Adopted(row), normalized=True)) for d, row in zip(dishes, rows)]

    for name, captions in (
        ("dense", dense_captions),
        ("sparse", sparse_captions),
        ("items", item_captions),
    ):
        _write_jsonl(out / f"captions_{name}.jsonl", [asdict(c) for c in captions])
    write_embedding_file(images, out / "images.f4e")
    for name, gt_ids in (
        ("bundles", [[d["id"]] for d in dishes]),
        ("bundles_items", [[item_ids[w] for w in d["items"]] for d in dishes]),
    ):
        rows = [
            {
                "image_id": d["id"],
                "dense_pred_text": d["dense_pred"],
                "sparse_pred_text": d["sparse_pred"],
                "gt_caption_ids": gt,
            }
            for d, gt in zip(dishes, gt_ids)
        ]
        _write_jsonl(out / f"{name}.jsonl", rows)

    metrics = _baseline_metrics(dishes, images, dense_captions, item_captions, item_ids, encoder)
    manifest = {
        "format": "f4-synthetic-corpus",
        "version": 1,
        "config": {
            "vocab_size": config.vocab_size,
            "num_captions": config.num_captions,
            "items_per_caption": [config.items_min, config.items_max],
            "noise_sigma": config.noise_sigma,
            "dropout": config.dropout,
            "seed": config.seed,
            "dim": config.dim,
        },
        "encoder_fingerprint": encoder.fingerprint(),
        "files": {
            "captions_dense": "captions_dense.jsonl",
            "captions_sparse": "captions_sparse.jsonl",
            "captions_items": "captions_items.jsonl",
            "images": "images.f4e",
            "bundles": "bundles.jsonl",
            "bundles_items": "bundles_items.jsonl",
        },
        "metrics": metrics,
    }
    _write_atomic(out / "manifest.json", (json.dumps(manifest, indent=2) + "\n").encode("utf-8"))
    return manifest


def _baseline_metrics(dishes, images, dense_captions, item_captions, item_ids, encoder):
    """Image-only retrieval metrics, computed with the naive reference scan."""
    dense_index = build_index(dense_captions, encoder)
    items_index = build_index(item_captions, encoder)
    image_by_id = dict(images)

    hits1 = hits5 = 0
    aps = []
    for d in dishes:
        e_img = image_by_id[d["id"]]
        ranked = search_topk_naive(e_img, dense_index, 5)
        hits1 += recall_at_k(ranked, [d["id"]], 1)
        hits5 += recall_at_k(ranked, [d["id"]], 5)

        gt_items = [item_ids[w] for w in d["items"]]
        k_q = len(gt_items)
        ranked_items = search_topk_naive(e_img, items_index, max(5, k_q))
        aps.append(average_precision(ranked_items, gt_items, k_q))

    n = len(dishes)
    return {
        "dense_baseline_recall_at_1": hits1 / n,
        "dense_baseline_recall_at_5": hits5 / n,
        "items_baseline_mean_ap": sum(aps) / n,
    }


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    lines = [json.dumps(row, ensure_ascii=False) for row in rows]
    _write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))
