import json

import pytest
from click.testing import CliRunner

from f4search import remote
from f4search.cli import main
from f4search.embfile import load_embedding_file
from f4search.encoders import EncoderSpec, encode_texts
from f4search.evaluate import EvalConfig, evaluate_corpus, load_bundles, render_report
from f4search.index import Caption, build_index_from_records, load_index, save_index
from f4search.remote import ENDPOINT_ENV_VAR
from f4search.rerank import retrieve_and_rerank
from f4search.search import QueryBundle, search_bidirectional, search_fused_topk, search_topk
from f4search.vectors import DEFAULT_INDEX_WEIGHTS, DEFAULT_QUERY_WEIGHTS, FusionWeights, l2_normalize


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

    def test_remote_unreachable_exits_one(self, runner, corpus_dir, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(remote.time, "sleep", sleeps.append)
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
        assert sleeps == [0.5, 1.0]

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

    def test_bidirectional_matches_library(self, runner, corpus_dir, dense_index_path):
        records = load_embedding_file(corpus_dir / "images.f4e")
        image_id, e_img = records[0]
        text = json.loads((corpus_dir / "bundles.jsonl").read_text().splitlines()[0])["dense_pred_text"]
        result = runner.invoke(
            main,
            [
                "search",
                "--index", str(dense_index_path),
                "--image-embedding", f"{corpus_dir / 'images.f4e'}:{image_id}",
                "--dense-text", text,
                "--k", "5",
                "--w-text", "0.3",
                "--bidirectional",
                "--index-w-text", "0.6",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[0] == "# stage=initial"
        index = load_index(dense_index_path)
        expected = search_bidirectional(
            QueryBundle("query", e_img, dense_pred_text=text),
            index,
            FusionWeights(1.0 - 0.3, 0.3),
            FusionWeights(1.0 - 0.6, 0.6),
            "dense",
            EncoderSpec.from_fingerprint(index.encoder_fingerprint),
            k=5,
        )
        got = [line.split("\t")[1:3] for line in lines[1:]]
        assert got == [[cid, f"{score:.6f}"] for cid, score in expected.entries]

    def test_endpoint_variable_overrides_a_dead_index_endpoint(
        self, runner, embed_stub, tmp_path, monkeypatch
    ):
        texts = ["rice and beans", "lime soup", "beans on toast"]
        captions = [Caption(f"c{i}", t, "dense") for i, t in enumerate(texts)]
        records = list(zip([c.id for c in captions], encode_texts(texts, embed_stub.spec)))
        index = build_index_from_records(captions, records, "remote:dim=32:endpoint=http://127.0.0.1:9")
        save_index(index, tmp_path / "remote.f4i")
        monkeypatch.setenv(ENDPOINT_ENV_VAR, embed_stub.remote.endpoint)
        inline = ",".join(["0.25"] * 32)
        result = runner.invoke(
            main,
            [
                "search",
                "--index", str(tmp_path / "remote.f4i"),
                "--image-embedding", inline,
                "--dense-text", "rice beans",
                "--k", "2",
            ],
        )
        assert result.exit_code == 0, result.output
        assert embed_stub.requests >= 1
        bundle = QueryBundle("query", l2_normalize([0.25] * 32), dense_pred_text="rice beans")
        expected = search_fused_topk(bundle, index, FusionWeights(0.7, 0.3), "dense", embed_stub.spec, k=2)
        assert [line.split("\t")[1] for line in result.output.splitlines()[1:]] == list(expected.ids)

    def test_rerank_prints_reranked_stage(self, runner, corpus_dir, items_index_path):
        records = load_embedding_file(corpus_dir / "images.f4e")
        image_id, e_img = records[0]
        bundle = json.loads((corpus_dir / "bundles_items.jsonl").read_text().splitlines()[0])
        args = [
            "search",
            "--index", str(items_index_path),
            "--image-embedding", f"{corpus_dir / 'images.f4e'}:{image_id}",
            "--sparse-text", bundle["sparse_pred_text"],
            "--rerank",
        ]
        index = load_index(items_index_path)
        spec = EncoderSpec.from_fingerprint(index.encoder_fingerprint)
        query = QueryBundle("query", e_img, sparse_pred_text=bundle["sparse_pred_text"])
        for flags, N, k in ((("--k", "4"), None, 4), (("--n", "7", "--k", "5"), 7, 5)):
            result = runner.invoke(main, [*args, *flags])
            assert result.exit_code == 0, result.output
            assert result.output.startswith("# stage=reranked")
            # Every printed field is the library's: rank, id, score to six places and text.
            expected = retrieve_and_rerank(query, index, N=N, k=k, encoder=spec)
            assert len(expected.entries) == k
            got = [line.split("\t") for line in result.output.splitlines()[1:]]
            assert got == [
                [str(rank), cid, f"{score:.6f}", index.text_of(cid)]
                for rank, (cid, score) in enumerate(expected.entries, start=1)
            ]

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

    def test_rerank_with_bidirectional_exits_one(self, runner, corpus_dir, items_index_path):
        records = load_embedding_file(corpus_dir / "images.f4e")
        image_id, _ = records[0]
        result = runner.invoke(
            main,
            [
                "search",
                "--index", str(items_index_path),
                "--image-embedding", f"{corpus_dir / 'images.f4e'}:{image_id}",
                "--sparse-text", "rice, beans",
                "--rerank",
                "--bidirectional",
            ],
        )
        assert result.exit_code == 1
        assert "re-ranking uses uni-directional initial retrieval" in result.output

    def test_image_only_needs_no_text(self, runner, corpus_dir, dense_index_path):
        image_id, e_img = load_embedding_file(corpus_dir / "images.f4e")[0]
        result = runner.invoke(
            main,
            [
                "search",
                "--index", str(dense_index_path),
                "--image-embedding", f"{corpus_dir / 'images.f4e'}:{image_id}",
                "--w-text", "0",
            ],
        )
        assert result.exit_code == 0, result.output
        index = load_index(dense_index_path)
        expected = search_topk(e_img, index, 5)
        got = [line.split("\t") for line in result.output.splitlines()[1:]]
        assert got == [
            [str(rank), cid, f"{score:.6f}", index.text_of(cid)]
            for rank, (cid, score) in enumerate(expected.entries, start=1)
        ]

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
    def test_default_weights_are_the_library_defaults(self, runner, corpus_dir, dense_index_path, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--index", str(dense_index_path),
                "--bundles", str(corpus_dir / "bundles.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--bidirectional",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        index = load_index(dense_index_path)
        bundles = load_bundles(corpus_dir / "bundles.jsonl", corpus_dir / "images.f4e")
        config = EvalConfig(encoder=EncoderSpec.from_fingerprint(index.encoder_fingerprint), bidirectional=True)
        assert out.read_bytes() == render_report(evaluate_corpus(bundles, index, config)).encode("utf-8")
        for command in ("search", "evaluate", "sweep"):
            shown = runner.invoke(main, [command, "--help"], terminal_width=200).output
            assert f"[default: {DEFAULT_INDEX_WEIGHTS.w_text}]" in shown
            if command != "sweep":
                assert f"[default: {DEFAULT_QUERY_WEIGHTS.w_text}]" in shown

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

    def test_rerank_pool_below_the_cut_exits_one(self, runner, corpus_dir, items_index_path):
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--index", str(items_index_path),
                "--bundles", str(corpus_dir / "bundles_items.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--text-source", "sparse",
                "--rerank",
                "--n", "-5",
            ],
        )
        assert result.exit_code == 1
        assert "re-rank pool -5" in result.output

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

    def test_zero_image_record_exits_one_with_file(self, runner, corpus_dir, dense_index_path, tmp_path):
        zeroed = tmp_path / "zeroed.f4e"
        data = (corpus_dir / "images.f4e").read_bytes()
        zeroed.write_bytes(data[: -4 * 32] + bytes(4 * 32))  # the last record's 32 floats
        result = runner.invoke(
            main,
            [
                "evaluate",
                "--index", str(dense_index_path),
                "--bundles", str(corpus_dir / "bundles.jsonl"),
                "--image-embeddings", str(zeroed),
                "--w-text", "0",
            ],
        )
        assert result.exit_code == 1
        assert f"{zeroed}: record " in result.output
        assert f" before byte {len(data)}: cannot normalize a zero vector" in result.output

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

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_workers_flag_is_usage_error(self, runner, corpus_dir, dense_index_path, tmp_path, command):
        result = runner.invoke(
            main,
            [
                command,
                "--index", str(dense_index_path),
                "--bundles", str(corpus_dir / "bundles.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--grid-step" if command == "sweep" else "--w-text", "0.5",
                "--out", str(tmp_path / "out"),
                "--workers", "2",
            ],
        )
        assert result.exit_code == 2
        assert "--workers" in result.output


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

    @pytest.mark.parametrize(
        "step, grid",
        [
            ("0.6", ["0.0", "0.6"]),
            ("0.15", ["0.0", "0.15", "0.3", "0.45", "0.6", "0.75", "0.9"]),
            ("0.25", ["0.0", "0.25", "0.5", "0.75", "1.0"]),
            ("0.1", ["0.0", "0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1.0"]),
        ],
    )
    def test_grid_step_stops_at_one(self, runner, corpus_dir, dense_index_path, tmp_path, step, grid):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            [
                "sweep",
                "--index", str(dense_index_path),
                "--bundles", str(corpus_dir / "bundles.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--grid-step", step,
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == grid

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

    @pytest.mark.parametrize("pool", [[], ["--n", "10"]], ids=["default-pool", "pool-10"])
    def test_rerank_values_equal_evaluate_at_each_weight(
        self, runner, corpus_dir, items_index_path, tmp_path, pool
    ):
        data = [
            "--index", str(items_index_path),
            "--bundles", str(corpus_dir / "bundles_items.jsonl"),
            "--image-embeddings", str(corpus_dir / "images.f4e"),
            "--text-source", "sparse",
            "--rerank", *pool,
        ]
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main, ["sweep", *data, "--grid-step", "0.25", "--metric", "mean_ap", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [g for g, _ in rows] == ["0.0", "0.25", "0.5", "0.75", "1.0"]
        for g, value in rows:
            report = tmp_path / f"report-{g}.json"
            result = runner.invoke(main, ["evaluate", *data, "--w-text", g, "--out", str(report)])
            assert result.exit_code == 0, result.output
            assert float(value) == json.loads(report.read_text())["mean_ap"]

    @pytest.mark.parametrize(
        "index_fixture, flags, message",
        [
            ("items_index_path", ["--rerank", "--bidirectional"], "uni-directional initial retrieval"),
            ("dense_index_path", ["--rerank"], "requires a sparse caption index"),
            ("items_index_path", ["--rerank", "--n", "-5"], "re-rank pool -5"),
        ],
        ids=["rerank-bidirectional", "rerank-dense-index", "pool-below-the-cut"],
    )
    def test_conflicts_exit_one(self, runner, corpus_dir, tmp_path, request, index_fixture, flags, message):
        result = runner.invoke(
            main,
            [
                "sweep",
                "--index", str(request.getfixturevalue(index_fixture)),
                "--bundles", str(corpus_dir / "bundles_items.jsonl"),
                "--image-embeddings", str(corpus_dir / "images.f4e"),
                "--text-source", "sparse",
                "--grid-step", "0.5",
                "--out", str(tmp_path / "s.csv"),
                *flags,
            ],
        )
        assert result.exit_code == 1
        assert message in result.output
        assert not (tmp_path / "s.csv").exists()

    def test_bidirectional_values_equal_evaluate(self, runner, corpus_dir, dense_index_path, tmp_path):
        data = [
            "--index", str(dense_index_path),
            "--bundles", str(corpus_dir / "bundles.jsonl"),
            "--image-embeddings", str(corpus_dir / "images.f4e"),
            "--bidirectional", "--index-w-text", "0.6",
        ]
        out = tmp_path / "sweep.csv"
        result = runner.invoke(main, ["sweep", *data, "--grid", "0,0.4", "--out", str(out)])
        assert result.exit_code == 0, result.output
        for line in out.read_text().splitlines()[1:]:
            g, value = line.split(",")
            report = tmp_path / f"report-{g}.json"
            result = runner.invoke(main, ["evaluate", *data, "--w-text", g, "--out", str(report)])
            assert result.exit_code == 0, result.output
            assert float(value) == json.loads(report.read_text())["recall_at_1"]


@pytest.mark.parametrize(
    "args, exit_code, message",
    [
        (lambda corpus, index, tmp: [
            "build-index", "--captions", str(corpus / "captions_dense.jsonl"),
            "--out", str(tmp / "x.f4i"), "--encoder", "file",
        ], 1, "error: --encoder file requires --embeddings"),
        (lambda corpus, index, tmp: [
            "sweep", "--index", str(index), "--bundles", str(corpus / "bundles.jsonl"),
            "--image-embeddings", str(corpus / "images.f4e"), "--grid-step", "0",
            "--out", str(tmp / "s.csv"),
        ], 2, "--grid-step must lie in (0, 1]"),
        (lambda corpus, index, tmp: [
            "gen-synthetic", "--items-per-caption", "x", "--out-dir", str(tmp / "x"),
        ], 1, "error: cannot parse --items-per-caption 'x'"),
        *[
            (lambda corpus, index, tmp, flags=flags: [
                "search", "--index", str(index), "--image-embedding", ",".join(["0.25"] * 32), *flags,
            ], 1, "error: fusing a text needs --dense-text or --sparse-text; pass --w-text 0")
            for flags in ((), ("--bidirectional", "--k", "3"))
        ],
        (lambda corpus, index, tmp: [
            "search", "--index", str(index), "--image-embedding", ",".join(["0.25"] * 32),
            "--sparse-text", "rice, chicken", "--rerank",
        ], 1, "error: re-ranking requires a sparse caption index"),
    ],
    ids=["file-encoder-without-embeddings", "grid-step-zero", "unparseable-items-per-caption",
         "search-without-text", "bidirectional-search-without-text", "rerank-search-on-dense-index"],
)
def test_guard_exits(runner, corpus_dir, dense_index_path, tmp_path, args, exit_code, message):
    result = runner.invoke(main, args(corpus_dir, dense_index_path, tmp_path))
    assert result.exit_code == exit_code
    assert message in result.output
