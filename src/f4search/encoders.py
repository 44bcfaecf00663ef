"""Embedding sources for images and texts.

Three interchangeable kinds sit behind one ``EncoderSpec``:

* ``synthetic`` — a deterministic bag-of-tokens encoder. Each token is
  hashed (keyed blake2b, so results are stable across processes and
  platforms) into a seeded random projection; a text embeds as the
  normalized sum of its token vectors. Texts that share tokens therefore
  score higher cosine similarity than disjoint texts, which is the whole
  property retrieval experiments need at desk scale.
* ``file`` — precomputed vectors loaded from an F4E file; cannot encode
  new text.
* ``remote`` — an HTTP embedding service (see ``remote.py``).
"""

from __future__ import annotations

import hashlib
import string
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptyTextError, NoItemsError
from .vectors import EmbeddingVector, _unit

MIN_DIM = 8
ENCODER_KINDS = ("file", "synthetic", "remote")


@dataclass(frozen=True)
class EncoderSpec:
    """Identity of an embedding source: kind, dimension and parameters."""

    kind: str
    dim: int
    seed: int = 0
    endpoint: str = ""

    def __post_init__(self):
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        if self.dim < MIN_DIM:
            raise ValueError(f"encoder dim must be >= {MIN_DIM}, got {self.dim}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")
        if self.kind == "remote" and not self.endpoint:
            raise ValueError("remote encoder requires an endpoint")

    def fingerprint(self) -> str:
        """Stable string identity, recorded in indexes and reports."""
        if self.kind == "synthetic":
            return f"synthetic:dim={self.dim}:seed={self.seed}"
        if self.kind == "remote":
            return f"remote:dim={self.dim}:endpoint={self.endpoint}"
        return f"file:dim={self.dim}"

    @classmethod
    def from_fingerprint(cls, fp: str) -> "EncoderSpec":
        """Reconstruct a spec from a fingerprint string."""
        kind, sep, rest = fp.partition(":dim=")
        if not sep or kind not in ENCODER_KINDS:
            raise ValueError(f"unparseable encoder fingerprint {fp!r}")
        if kind == "synthetic":
            dim_s, sep, seed_s = rest.partition(":seed=")
            if not sep:
                raise ValueError(f"unparseable encoder fingerprint {fp!r}")
            return cls("synthetic", int(dim_s), seed=int(seed_s))
        if kind == "remote":
            dim_s, sep, endpoint = rest.partition(":endpoint=")
            if not sep:
                raise ValueError(f"unparseable encoder fingerprint {fp!r}")
            return cls("remote", int(dim_s), endpoint=endpoint)
        return cls("file", int(rest))


def tokenize(text: str) -> list[str]:
    """Lowercase, split on commas and whitespace, strip ASCII punctuation."""
    tokens = []
    for raw in text.lower().replace(",", " ").split():
        tok = raw.strip(string.punctuation)
        if tok:
            tokens.append(tok)
    return tokens


@dataclass(frozen=True)
class ParsedItems:
    """Ordered, deduplicated item phrases parsed from a sparse caption."""

    phrases: tuple[str, ...]
    source_text: str

    def __post_init__(self):
        if not self.phrases:
            raise NoItemsError(f"no item phrases in {self.source_text!r}")


def parse_items(sparse_text: str) -> ParsedItems:
    """Split a sparse caption on commas into trimmed, lowercased phrases.

    Empty fragments are dropped and duplicates are removed keeping the
    first occurrence. Only the comma splits: multi-word items like
    "herb oil" stay intact.
    """
    phrases = []
    seen = set()
    for fragment in sparse_text.split(","):
        phrase = fragment.strip().lower()
        if phrase and phrase not in seen:
            seen.add(phrase)
            phrases.append(phrase)
    return ParsedItems(tuple(phrases), sparse_text)


def _token_seed(token: str, seed: int) -> int:
    digest = hashlib.blake2b(
        token.encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(8, "little"),
    ).digest()
    return int.from_bytes(digest, "little")


@lru_cache(maxsize=None)
def _token_vector(token: str, dim: int, seed: int) -> np.ndarray:
    """Unit projection of one token, cached per (token, dim, seed).

    The same (token, dim, seed) always yields the identical vector, so
    racing fills of the cache from concurrent callers are benign.
    """
    return _unit(np.random.default_rng(_token_seed(token, seed)).standard_normal(dim))


def _encode(texts: list[str], spec: EncoderSpec | None) -> np.ndarray:
    """``encode_texts`` as one float64 matrix of unit rows."""
    if spec is None:
        raise ValueError("encoding text requires an encoder spec")
    if spec.kind == "remote":
        from .remote import _encode_remote

        return _encode_remote(texts, spec, None)
    if spec.kind != "synthetic":
        raise ValueError("file-backed encoder specs cannot encode new text")
    totals = np.zeros((len(texts), spec.dim))
    for total, text in zip(totals, texts):
        tokens = tokenize(text)
        if not tokens:
            raise EmptyTextError(f"no tokens survive in {text!r}")
        for tok in sorted(tokens):
            total += _token_vector(tok, spec.dim, spec.seed)
    return _unit(totals)


def encode_text_synthetic(text: str, spec: EncoderSpec) -> EmbeddingVector:
    """Embed a text as the normalized sum of its token projections.

    Tokens are summed in sorted order so any two texts with the same token
    multiset produce bitwise-identical vectors.
    """
    if spec.kind != "synthetic":
        raise ValueError("encode_text_synthetic needs a synthetic encoder spec")
    return EmbeddingVector(_encode([text], spec)[0], normalized=True)


def encode_image_synthetic(
    gt_caption: str,
    noise_sigma: float,
    spec: EncoderSpec,
    noise_seed: int,
) -> EmbeddingVector:
    """Synthesize an image embedding as a noisy view of its caption.

    With ``noise_sigma == 0`` this is exactly the caption embedding;
    larger sigmas push the vector toward an independent random direction,
    which controls how hard pure-image retrieval is.
    """
    return EmbeddingVector(_synthetic_images([gt_caption], noise_sigma, spec, [noise_seed])[0], normalized=True)


def _synthetic_images(
    gt_captions: list[str], noise_sigma: float, spec: EncoderSpec, noise_seeds: list[int]
) -> np.ndarray:
    """``encode_image_synthetic`` of each caption with its noise seed, as one float64 matrix of unit rows."""
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be >= 0")
    if spec.kind != "synthetic":
        raise ValueError("encode_image_synthetic needs a synthetic encoder spec")
    clean = _encode(gt_captions, spec)
    if noise_sigma == 0:
        return clean
    noise = np.array([np.random.default_rng(seed).standard_normal(spec.dim) for seed in noise_seeds])
    return _unit(clean + noise_sigma * noise)


def encode_texts(texts: list[str], spec: EncoderSpec | None) -> list[EmbeddingVector]:
    """Encode a batch of texts with whatever source ``spec`` names.

    Each text's vector depends on that text alone, never on the rest of the
    batch, so callers may batch and deduplicate texts freely.
    """
    return [EmbeddingVector(row, normalized=True) for row in _encode(texts, spec)]
