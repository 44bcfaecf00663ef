import json

import pytest
from click.testing import CliRunner

from f4search.cli import main
from f4search.embfile import load_embedding_file
from f4search.index import load_index
from f4search.search import search_topk


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    """Small generated corpus shared across CLI tests."""
    out = tmp_path_factory.mktemp("cli_corpus")
    result = CliRunner().invoke(
        main,
        [
            "gen-synthetic",
            "--vocab-size", "60",
            "--num-captions", "40",
            "--items-per-caption", "3:5",
            "--dim", "32",
            "--seed", "9",
            "--out-dir", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture(scope="module")
def dense_index_path(runner, corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_idx") / "dense.f4i"
    result = runner.invoke(
        main,
        [
            "build-index",
            "--captions", str(corpus_dir / "captions_dense.jsonl"),
            "--out", str(out),
            "--encoder", "synthetic",
            "--dim", "32",
            "--seed", "9",
        ],
    )
    assert result.exit_code == 0, result.output
    assert "40 captions" in result.output
    return out


@pytest.fixture(scope="module")
def items_index_path(runner, corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_idx_items") / "items.f4i"
    result = runner.invoke(
        main,
        [
            "build-index",
            "--captions", str(corpus_dir / "captions_items.jsonl"),
            "--out", str(out),
            "--encoder", "synthetic",
            "--dim", "32",
            "--seed", "9",
        ],
    )
    assert result.exit_code == 0, result.output
    return out


class TestGenSynthetic:
    def test_manifest_written(self, corpus_dir):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["config"]["num_captions"] == 40

    def test_full_dropout_exits_one(self, runner, tmp_path):
        result = runner.invoke(
            main, ["gen-synthetic", "--dropout", "1.0", "--out-dir", str(tmp_path / "x")]
        )
        assert result.exit_code == 1
        assert "dropout" in result.output

    def test_bad_items_range_exits_one(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["gen-synthetic", "--items-per-caption", "6:3", "--out-dir", str(tmp_path / "x")],
        )
        assert result.exit_code == 1


class TestBuildIndex:
    def test_missing_captions_flag_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(main, ["build-index", "--out", str(tmp_path / "x.f4i")])
        assert result.exit_code == 2

    def test_remote_unreachable_exits_one(self, runner, corpus_dir, tmp_path):
        result = runner.invoke(
            main,
            [
                "build-index",
                "--captions", str(corpus_dir / "captions_dense.jsonl"),
                "--out", str(tmp_path / "x.f4i"),
                "--encoder", "remote",
                "--dim", "32",
                "--endpoint", "http://127.0.0.1:9",
            ],
        )
        assert result.exit_code == 1
        assert "unreachable" in result.output

    def test_file_encoder_builds_from_f4e(self, runner, corpus_dir, tmp_path):
        # The image embeddings share ids with the captions, so they can
        # stand in as precomputed caption vectors here.
        out = tmp_path / "file.f4i"
        result = runner.invoke(
            main,
            [
                "build-index",
                "--captions", str(corpus_dir / "captions_dense.jsonl"),
                "--out", str(out),
                "--encoder", "file",
                "--embeddings", str(corpus_dir / "images.f4e"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert load_index(out).encoder_fingerprint == "file:dim=32"


class TestSearch:
    def test_pure_image_matches_library(self, runner, corpus_dir, dense_index_path):
        records = load_embedding_file(corpus_dir / "images.f4e")
        image_id, e_img = records[0]
        result = runner.invoke(
            main,
            [
                "search",
                "--index", str(dense_index_path),
                "--image-embedding", f"{corpus_dir / 'images.f4e'}:{image_id}",
                "--k", "1",
                "--w-text", "0",
            ],
        )
        assert result.exit_code == 0, result.output
        expected = search_topk(e_img, load_index(dense_index_path), 1)
        top_line = result.output.splitlines()[1]
        assert top_line.split("\t")[1] == expected.ids[0]

    def test_inline_embedding(self, runner, dense_index_path):
        inline = ",".join(["0.25"] * 32)
        result = runner.invoke(
            main,
            [
                "search",
                "--index", str(dense_index_path),
                "--image-embedding", inline,
                "--k", "3",
                "--w-text", "0",
            ],
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith("# stage=initial")
        assert len(result.output.splitlines()) == 4

    @pytest.mark.parametrize(
        "inline, reason",
        [(",", "non-empty"), ("nan,1", "finite"), ("0,0", "zero vector"), ("x,1", "cannot parse")],
    )
    def test_bad_inline_embedding_exits_one(self, runner, dense_index_path, inline, reason):
        result = runner.invoke(
            main,
            ["search", "--index", str(dense_index_path), "--image-embedding", inline, "--w-text", "0"],
        )
        assert result.exit_code == 1
        assert reason in result.output

    def test_rerank_prints_reranked_stage(self, runner, corpus_dir, items_index_path):
        records = load_embedding_file(corpus_dir / "images.f4e")
        image_id, _ = records[0]
        bundle = json.loads((corpus_dir / "bundles_items.jsonl").read_text().splitlines()[0])
        result = runner.invoke(
            main,
            [
                "search",
                "--index", str(items_index_path),
                "--image-embedding", f"{corpus_dir / 'images.f4e'}:{image_id}",
                "--sparse-text", bundle["sparse_pred_text"],
                "--k", "4",
                "--rerank",
            ],
        )
        assert result.exit_code == 0, result.output
        assert result.output.startswith("# stage=reranked")

    def test_rerank_without_sparse_text_exits_one(self, runner, corpus_dir, dense_index_path):
        records = load_embedding_file(corpus_dir / "images.f4e")
        image_id, _ = records[0]
        result = runner.invoke(
            main,
            [
                "search",
                "--index", str(dense_index_path),
                "--image-embedding", f"{corpus_dir / 'images.f4e'}:{image_id}",
                "--rerank",
            ],
        )
        assert result.exit_code == 1
        assert "--sparse-text" in result.output

    def test_unknown_record_id_exits_one(self, runner, corpus_dir, dense_index_path):
        result = runner.invoke(
            main,
            [
                "search",
                "--index", str(dense_index_path),
                "--image-embedding", f"{corpus_dir / 'images.f4e'}:nope",
                "--w-text", "0",
            ],
        )
        assert result.exit_code == 1
        assert "nope" in result.output


class TestEvaluate:
    def test_baseline_matches_manifest(self, runner, corpus_dir, dense_index_path):
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--index", str(dense_index_path),
                "--bundles", str(corpus_dir / "bundles.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--w-text", "0",
            ],
        )
        assert result.exit_code == 0, result.output
        r1 = manifest["metrics"]["dense_baseline_recall_at_1"]
        r5 = manifest["metrics"]["dense_baseline_recall_at_5"]
        assert f"R@1={r1:.3f}" in result.output
        assert f"R@5={r5:.3f}" in result.output

    def test_rerank_beats_no_rerank_on_items(self, runner, corpus_dir, items_index_path, tmp_path):
        outputs = {}
        for flag, name in ((False, "plain"), (True, "rerank")):
            args = [
                "evaluate",
                "--index", str(items_index_path),
                "--bundles", str(corpus_dir / "bundles_items.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--text-source", "sparse",
                "--out", str(tmp_path / f"{name}.json"),
            ]
            if flag:
                args.append("--rerank")
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            outputs[name] = json.loads((tmp_path / f"{name}.json").read_text())
        assert outputs["rerank"]["mean_ap"] > outputs["plain"]["mean_ap"]

    def test_unknown_gt_id_exits_one_with_name(self, runner, corpus_dir, dense_index_path, tmp_path):
        bad = tmp_path / "bad_bundles.jsonl"
        first = json.loads((corpus_dir / "bundles.jsonl").read_text().splitlines()[0])
        first["gt_caption_ids"] = ["phantom-id"]
        bad.write_text(json.dumps(first) + "\n")
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--index", str(dense_index_path),
                "--bundles", str(bad),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--w-text", "0",
            ],
        )
        assert result.exit_code == 1
        assert "phantom-id" in result.output

    def test_csv_report(self, runner, corpus_dir, dense_index_path, tmp_path):
        out = tmp_path / "report.csv"
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--index", str(dense_index_path),
                "--bundles", str(corpus_dir / "bundles.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--w-text", "0",
                "--out", str(out),
                "--format", "csv",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "image_id,k,gt_rank,ap,hit@1,hit@5"
        assert len(lines) == 41


class TestSweep:
    def test_grid_step_produces_eleven_rows(self, runner, corpus_dir, dense_index_path, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            [
                "sweep",
                "--index", str(dense_index_path),
                "--bundles", str(corpus_dir / "bundles.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--grid-step", "0.1",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert len(lines) == 12  # header + 11 grid points
        assert "peak w_text=" in result.output

    def test_empty_grid_is_usage_error(self, runner, corpus_dir, dense_index_path, tmp_path):
        result = runner.invoke(
            main,
            [
                "sweep",
                "--index", str(dense_index_path),
                "--bundles", str(corpus_dir / "bundles.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--out", str(tmp_path / "s.csv"),
            ],
        )
        assert result.exit_code == 2

    def test_explicit_grid(self, runner, corpus_dir, dense_index_path, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            [
                "sweep",
                "--index", str(dense_index_path),
                "--bundles", str(corpus_dir / "bundles.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--grid", "0,0.3,1.0",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert len(out.read_text().splitlines()) == 4

    def test_peak_is_interior_on_calibrated_corpus(self, runner, corpus42, tmp_path):
        index_path = tmp_path / "dense42.f4i"
        result = runner.invoke(
            main,
            [
                "build-index",
                "--captions", str(corpus42.root / "captions_dense.jsonl"),
                "--out", str(index_path),
                "--encoder", "synthetic",
                "--dim", "64",
                "--seed", "42",
            ],
        )
        assert result.exit_code == 0, result.output
        out = tmp_path / "sweep42.csv"
        result = runner.invoke(
            main,
            [
                "sweep",
                "--index", str(index_path),
                "--bundles", str(corpus42.root / "bundles.jsonl"),
                "--image-embeddings", str(corpus42.root / "images.f4e"),
                "--grid", "0,0.2,0.3,1.0",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        peak = result.output.split("peak w_text=")[1].split()[0]
        assert peak in ("0.2", "0.3")
