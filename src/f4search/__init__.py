"""Training-free multi-modal caption retrieval.

Weighted image-text embedding fusion (uni- and bi-directional), exact
cosine top-k search over immutable caption indexes, ingredient-level
max-similarity re-ranking, and an evaluation harness with Recall@k and
variable-k mAP.
"""

from .embfile import load_embedding_file, write_embedding_file
from .encoders import (
    EncoderSpec,
    ParsedItems,
    encode_image_synthetic,
    encode_text_synthetic,
    encode_texts,
    parse_items,
    tokenize,
)
from .errors import F4SearchError
from .evaluate import (
    EvalConfig,
    EvalReport,
    SweepResult,
    average_precision,
    derive_k,
    evaluate_corpus,
    load_bundles,
    recall_at_k,
    sweep_fusion_weight,
    write_report,
    write_sweep,
)
from .index import (
    Caption,
    CaptionIndex,
    build_index,
    build_index_from_records,
    ingest_captions,
    load_index,
    save_index,
)
from .rerank import rerank, retrieve_and_rerank
from .remote import encode_remote
from .search import (
    QueryBundle,
    RankedList,
    search_bidirectional,
    search_fused_topk,
    search_top1_fused,
    search_topk,
    search_topk_naive,
)
from .synthetic import SyntheticCorpusConfig, generate_corpus
from .vectors import (
    DEFAULT_INDEX_WEIGHTS,
    DEFAULT_QUERY_WEIGHTS,
    EmbeddingVector,
    FusionWeights,
    cosine_similarity,
    fuse,
    l2_normalize,
)

__all__ = [
    "Caption",
    "CaptionIndex",
    "DEFAULT_INDEX_WEIGHTS",
    "DEFAULT_QUERY_WEIGHTS",
    "EmbeddingVector",
    "EncoderSpec",
    "EvalConfig",
    "EvalReport",
    "F4SearchError",
    "FusionWeights",
    "ParsedItems",
    "QueryBundle",
    "RankedList",
    "SweepResult",
    "SyntheticCorpusConfig",
    "average_precision",
    "build_index",
    "build_index_from_records",
    "cosine_similarity",
    "derive_k",
    "encode_image_synthetic",
    "encode_remote",
    "encode_text_synthetic",
    "encode_texts",
    "evaluate_corpus",
    "fuse",
    "generate_corpus",
    "ingest_captions",
    "l2_normalize",
    "load_bundles",
    "load_embedding_file",
    "load_index",
    "parse_items",
    "recall_at_k",
    "rerank",
    "retrieve_and_rerank",
    "save_index",
    "search_bidirectional",
    "search_fused_topk",
    "search_top1_fused",
    "search_topk",
    "search_topk_naive",
    "sweep_fusion_weight",
    "tokenize",
    "write_embedding_file",
    "write_report",
    "write_sweep",
]
