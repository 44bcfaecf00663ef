"""Command-line front door for the retrieval pipeline.

Exit codes are a stable scripting contract, mapped once by ``main`` for
every command: 0 on success, 1 on runtime errors (bad data, unreachable
services, config conflicts), 2 on usage errors (unknown or missing flags).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .embfile import load_embedding_file
from .encoders import EncoderSpec
from .errors import ConfigConflictError, F4SearchError
from .evaluate import (
    EvalConfig,
    _check_mode,
    evaluate_corpus,
    load_bundles,
    sweep_fusion_weight,
    write_report,
    write_sweep,
)
from .index import build_index, build_index_from_records, ingest_captions, load_index, save_index
from .rerank import retrieve_and_rerank
from .remote import default_endpoint
from .search import QueryBundle, search_bidirectional, search_fused_topk
from .synthetic import SyntheticCorpusConfig, generate_corpus
from .vectors import DEFAULT_INDEX_WEIGHTS, DEFAULT_QUERY_WEIGHTS, EmbeddingVector, FusionWeights, l2_normalize


class _Main(click.Group):
    """``error: <message>`` and exit 1 for a runtime error raised converting a command's options or running it."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (F4SearchError, OSError, ValueError, KeyError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    """Training-free multi-modal caption retrieval toolkit."""


@main.command("build-index")
@click.option("--captions", "captions_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--encoder", "encoder_kind", type=click.Choice(["synthetic", "file", "remote"]), default="synthetic", show_default=True)
@click.option("--dim", default=256, show_default=True, help="Embedding dimension (synthetic/remote).")
@click.option("--seed", default=0, show_default=True, help="Synthetic encoder seed.")
@click.option("--endpoint", default="", help="Remote service endpoint (or F4_ENCODER_ENDPOINT).")
@click.option("--embeddings", "embeddings_path", type=click.Path(exists=True, dir_okay=False), help="F4E file with one record per caption id (file encoder only).")
def cmd_build_index(captions_path, out_path, encoder_kind, dim, seed, endpoint, embeddings_path):
    """Encode a JSONL caption file and persist a searchable F4I index."""
    captions = ingest_captions(captions_path)
    if encoder_kind == "file":
        if not embeddings_path:
            raise ConfigConflictError("--encoder file requires --embeddings")
        records = load_embedding_file(embeddings_path)
        index = build_index_from_records(captions, records)
    else:
        endpoint = endpoint or default_endpoint()
        spec = EncoderSpec(encoder_kind, dim, seed=seed, endpoint=endpoint)
        index = build_index(captions, spec)
    save_index(index, out_path)
    click.echo(f"wrote {out_path}: {len(index)} captions, dim={index.dim}, kind={index.kind}")


def _encoder_from_index(index) -> EncoderSpec:
    """Reconstruct the query-side encoder from the index fingerprint.

    For remote encoders the F4_ENCODER_ENDPOINT environment variable
    overrides the recorded endpoint, so an index stays usable after the
    service moves.
    """
    spec = EncoderSpec.from_fingerprint(index.encoder_fingerprint)
    if spec.kind == "remote":
        override = default_endpoint()
        if override and override != spec.endpoint:
            spec = EncoderSpec("remote", spec.dim, endpoint=override)
    return spec


def _weights(w_text: float, default: FusionWeights) -> FusionWeights:
    """(1 - w_text, w_text), or the library's ``default`` at its own text weight (1 - 0.7 != 0.3)."""
    return default if w_text == default.w_text else FusionWeights(1.0 - w_text, w_text)


def _parse_image_embedding(value: str) -> EmbeddingVector:
    """Accept "FILE.f4e:RECORD_ID", FILE the longest prefix before a ':' that exists, or inline comma-separated floats."""
    cuts = [i for i, c in enumerate(value) if c == ":" and Path(value[:i]).exists()]
    if cuts:
        path_part, record_id = value[: cuts[-1]], value[cuts[-1] + 1 :]
        for rid, vec in load_embedding_file(path_part):
            if rid == record_id:
                return vec
        raise KeyError(f"record id {record_id!r} not found in {path_part}")
    try:
        floats = [float(x) for x in value.split(",") if x.strip()]
    except ValueError as exc:
        raise ValueError(f"cannot parse image embedding {value!r}") from exc
    return l2_normalize(floats)


@main.command("search")
@click.option("--index", "index_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--image-embedding", "image_embedding", required=True, help="FILE.f4e:RECORD_ID or inline comma-separated floats.")
@click.option("--dense-text", default=None)
@click.option("--sparse-text", default=None)
@click.option("--k", default=5, show_default=True)
@click.option("--w-text", default=DEFAULT_QUERY_WEIGHTS.w_text, show_default=True)
@click.option("--text-source", type=click.Choice(["dense", "sparse"]), default=None, help="Prediction text used for fusion (default: whichever was given).")
@click.option("--bidirectional", is_flag=True)
@click.option("--index-w-text", default=DEFAULT_INDEX_WEIGHTS.w_text, show_default=True, help="Text weight for index-side fusion (bi-directional mode).")
@click.option("--rerank", "do_rerank", is_flag=True)
@click.option("--n", "pool_size", default=None, type=int, help="Initial pool size before re-ranking.")
def cmd_search(index_path, image_embedding, dense_text, sparse_text, k, w_text,
               text_source, bidirectional, index_w_text, do_rerank, pool_size):
    """One-shot query: print ranked (id, score, text) lines."""
    index = load_index(index_path)
    e_img = _parse_image_embedding(image_embedding)
    bundle = QueryBundle("query", e_img, dense_pred_text=dense_text, sparse_pred_text=sparse_text)
    text_source = text_source or ("dense" if dense_text else "sparse")
    config = _eval_config(index, w_text, index_w_text, text_source, bidirectional, do_rerank, pool_size)
    if config.weights.w_text > 0 and not (dense_text or sparse_text or do_rerank):
        raise ConfigConflictError("fusing a text needs --dense-text or --sparse-text; pass --w-text 0 for image-only search")
    if do_rerank and not sparse_text:
        raise ConfigConflictError("--rerank requires --sparse-text")
    _check_mode(index, config)

    if do_rerank:
        ranked = retrieve_and_rerank(bundle, index, config.weights, N=pool_size, k=k, encoder=config.encoder)
    elif bidirectional:
        ranked = search_bidirectional(bundle, index, config.weights, config.index_weights, text_source, config.encoder, k=k)
    else:
        ranked = search_fused_topk(bundle, index, config.weights, text_source, config.encoder, k=k)

    click.echo(f"# stage={ranked.stage}")
    for rank, (cid, score) in enumerate(ranked.entries, start=1):
        click.echo(f"{rank}\t{cid}\t{score:.6f}\t{index.text_of(cid)}")


def _eval_config(index, w_text, index_w_text, text_source, bidirectional, do_rerank, pool_size):
    return EvalConfig(
        encoder=_encoder_from_index(index),
        weights=_weights(w_text, DEFAULT_QUERY_WEIGHTS),
        index_weights=_weights(index_w_text, DEFAULT_INDEX_WEIGHTS),
        text_source=text_source,
        bidirectional=bidirectional,
        rerank=do_rerank,
        pool_size=pool_size,
    )


@main.command("evaluate")
@click.option("--index", "index_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--bundles", "bundles_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--image-embeddings", "embeddings_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--w-text", default=DEFAULT_QUERY_WEIGHTS.w_text, show_default=True)
@click.option("--text-source", type=click.Choice(["dense", "sparse"]), default="dense", show_default=True)
@click.option("--bidirectional", is_flag=True)
@click.option("--index-w-text", default=DEFAULT_INDEX_WEIGHTS.w_text, show_default=True)
@click.option("--rerank", "do_rerank", is_flag=True)
@click.option("--n", "pool_size", default=None, type=int)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True)
@click.option("--corpus-name", default="corpus", show_default=True)
def cmd_evaluate(index_path, bundles_path, embeddings_path, w_text, text_source,
                 bidirectional, index_w_text, do_rerank, pool_size, out_path, fmt, corpus_name):
    """Evaluate a bundle corpus and print a table-row summary."""
    index = load_index(index_path)
    bundles = load_bundles(bundles_path, embeddings_path)
    config = _eval_config(index, w_text, index_w_text, text_source, bidirectional, do_rerank, pool_size)
    report = evaluate_corpus(bundles, index, config, corpus_name=corpus_name)
    if out_path:
        write_report(report, out_path, fmt)
    summary = f"{corpus_name}: R@1={report.recall_at_1:.3f} R@5={report.recall_at_5:.3f}"
    if report.mean_ap is not None:
        summary += f" mAP={report.mean_ap:.3f}"
    click.echo(summary)


@main.command("sweep")
@click.option("--index", "index_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--bundles", "bundles_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--image-embeddings", "embeddings_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--grid", "grid_text", default=None, help="Comma-separated w_text values, e.g. 0,0.1,0.2.")
@click.option("--grid-step", default=None, type=float, help="Step size for a uniform grid over [0, 1].")
@click.option("--metric", type=click.Choice(["recall_at_1", "recall_at_5", "mean_ap"]), default="recall_at_1", show_default=True)
@click.option("--text-source", type=click.Choice(["dense", "sparse"]), default="dense", show_default=True)
@click.option("--bidirectional", is_flag=True)
@click.option("--index-w-text", default=DEFAULT_INDEX_WEIGHTS.w_text, show_default=True)
@click.option("--rerank", "do_rerank", is_flag=True)
@click.option("--n", "pool_size", default=None, type=int)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def cmd_sweep(index_path, bundles_path, embeddings_path, grid_text, grid_step, metric,
              text_source, bidirectional, index_w_text, do_rerank, pool_size, out_path):
    """Evaluate across a text-weight grid and write a plot-ready CSV."""
    if grid_text is not None:
        try:
            grid = [float(x) for x in grid_text.split(",") if x.strip()]
        except ValueError as exc:
            raise ValueError(f"cannot parse --grid {grid_text!r}") from exc
    elif grid_step is not None:
        if not 0.0 < grid_step <= 1.0:
            raise click.UsageError("--grid-step must lie in (0, 1]")
        steps = int((1.0 + 1e-9) / grid_step)  # i * step <= 1, up to rounding
        grid = [min(round(i * grid_step, 10), 1.0) for i in range(steps + 1)]
    else:
        grid = []
    if not grid:
        raise click.UsageError("empty grid; pass --grid or --grid-step")

    index = load_index(index_path)
    bundles = load_bundles(bundles_path, embeddings_path)
    config = _eval_config(index, DEFAULT_QUERY_WEIGHTS.w_text, index_w_text, text_source, bidirectional, do_rerank, pool_size)
    sweep = sweep_fusion_weight(bundles, index, grid, config, metric=metric)
    write_sweep(sweep, out_path)
    peak_w, peak_v = sweep.peak()
    click.echo(f"wrote {out_path}; peak w_text={peak_w:g} ({metric}={peak_v:.3f})")


@main.command("gen-synthetic")
@click.option("--vocab-size", default=400, show_default=True)
@click.option("--num-captions", default=800, show_default=True)
@click.option("--items-per-caption", default="3:6", show_default=True, help="MIN:MAX items per dish.")
@click.option("--noise-sigma", default=0.25, show_default=True)
@click.option("--dropout", default=0.45, show_default=True, help="Fraction of items dropped from prediction texts.")
@click.option("--seed", default=42, show_default=True)
@click.option("--dim", default=64, show_default=True)
@click.option("--out-dir", required=True, type=click.Path(file_okay=False))
def cmd_gen_synthetic(vocab_size, num_captions, items_per_caption, noise_sigma, dropout, seed, dim, out_dir):
    """Generate a synthetic corpus with a generator-recorded baseline manifest."""
    try:
        lo_s, _, hi_s = items_per_caption.partition(":")
        items_min, items_max = int(lo_s), int(hi_s or lo_s)
    except ValueError as exc:
        raise ValueError(f"cannot parse --items-per-caption {items_per_caption!r}") from exc
    config = SyntheticCorpusConfig(
        vocab_size=vocab_size,
        num_captions=num_captions,
        items_min=items_min,
        items_max=items_max,
        noise_sigma=noise_sigma,
        dropout=dropout,
        seed=seed,
        dim=dim,
    )
    manifest = generate_corpus(config, out_dir)
    metrics = manifest["metrics"]
    click.echo(
        f"wrote corpus to {out_dir}: {num_captions} captions, "
        f"baseline R@1={metrics['dense_baseline_recall_at_1']:.3f} "
        f"R@5={metrics['dense_baseline_recall_at_5']:.3f} "
        f"items mAP={metrics['items_baseline_mean_ap']:.3f}"
    )


if __name__ == "__main__":
    main()
