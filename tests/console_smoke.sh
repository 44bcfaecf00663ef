#!/usr/bin/env bash
# End-to-end checks of the f4search console script, run in the current directory.
#
# Every command goes through the `f4search` found on PATH: CI runs this from an
# empty directory against the installed entry point, and tests/test_console_smoke.py
# against a shim for `python -m f4search.cli`. The remote-encoder check serves
# embeddings with the benchmark's stub service, found next to this script.
set -e
BENCH="$(cd "$(dirname "${BASH_SOURCE[0]}")/../bench" && pwd)"
f4search gen-synthetic --num-captions 80 --vocab-size 100 --out-dir corpus
f4search build-index --captions corpus/captions_items.jsonl --out items.f4i --dim 64 --seed 42
f4search sweep --index items.f4i --bundles corpus/bundles_items.jsonl \
  --image-embeddings corpus/images.f4e --text-source sparse \
  --rerank --metric mean_ap --grid-step 0.1 --out sweep.csv
test "$(wc -l < sweep.csv)" -eq 12
f4search build-index --captions corpus/captions_dense.jsonl --out dense.f4i --dim 64 --seed 42
f4search sweep --index dense.f4i --bundles corpus/bundles.jsonl \
  --image-embeddings corpus/images.f4e --bidirectional --index-w-text 0.7 \
  --grid-step 0.1 --out bidir.csv
test "$(wc -l < bidir.csv)" -eq 12
# At equal index weights the bi-directional screen bound is at its loosest.
f4search sweep --index dense.f4i --bundles corpus/bundles.jsonl \
  --image-embeddings corpus/images.f4e --bidirectional --index-w-text 0.5 \
  --grid-step 0.1 --out bidir-half.csv
test "$(wc -l < bidir-half.csv)" -eq 12
# Building the same index twice writes the same bytes.
f4search build-index --captions corpus/captions_dense.jsonl --out dense-again.f4i --dim 64 --seed 42
cmp dense.f4i dense-again.f4i
# The file encoder: caption rows come from an F4E file (here the image embeddings,
# keyed by the same ids). Two builds write the same bytes; an image finds its own
# row first, at cosine 1; a text query exits 1, as such an index cannot encode text.
for out in file.f4i file-again.f4i; do
  f4search build-index --captions corpus/captions_dense.jsonl --out "$out" \
    --encoder file --embeddings corpus/images.f4e
done
cmp file.f4i file-again.f4i
f4search search --index file.f4i --image-embedding corpus/images.f4e:d00007 \
  --w-text 0 --k 2 > file.txt
test "$(sed -n 2p file.txt | cut -f 2,3)" = "$(printf 'd00007\t1.000000')"
status=0
f4search search --index file.f4i --image-embedding corpus/images.f4e:d00007 \
  --dense-text rice --k 2 2> file.err || status=$?
test "$status" -eq 1
grep -F "file-backed encoder specs cannot encode new text" file.err
# An index cut inside its caption section (the header is 19 bytes): the load exits 1
# and names the file.
head -c 40 dense.f4i > cut.f4i
status=0
f4search search --index cut.f4i --image-embedding corpus/images.f4e:d00000 \
  --w-text 0 --k 3 2> cut.err || status=$?
test "$status" -eq 1
grep -F "cut.f4i: " cut.err
# Evaluation in the image-only, fused and bi-directional modes: one entry per bundle.
f4search evaluate --index dense.f4i --bundles corpus/bundles.jsonl \
  --image-embeddings corpus/images.f4e --w-text 0 --out image.json
f4search evaluate --index dense.f4i --bundles corpus/bundles.jsonl \
  --image-embeddings corpus/images.f4e --out fused.json
f4search evaluate --index dense.f4i --bundles corpus/bundles.jsonl \
  --image-embeddings corpus/images.f4e --bidirectional --index-w-text 0.5 --out bidir.json
for report in image.json fused.json bidir.json; do
  python -c 'import json, sys; assert len(json.load(open(sys.argv[1]))["per_query"]) == 80' "$report"
done
# The remote encoder: build-index and evaluate through the HTTP client, served by
# the benchmark's stub service; evaluate takes the endpoint from the environment.
python - "$BENCH" <<'EOF'
import json, os, subprocess, sys
sys.path.insert(0, sys.argv[1])
from stub import StubService
with StubService(64, 42) as stub:
    subprocess.run(["f4search", "build-index", "--captions", "corpus/captions_dense.jsonl",
                    "--out", "remote.f4i", "--encoder", "remote", "--dim", "64",
                    "--endpoint", stub.endpoint], check=True)
    subprocess.run(["f4search", "evaluate", "--index", "remote.f4i", "--bundles", "corpus/bundles.jsonl",
                    "--image-embeddings", "corpus/images.f4e", "--out", "remote.json"],
                   env=dict(os.environ, F4_ENCODER_ENDPOINT=stub.endpoint), check=True)
assert len(json.load(open("remote.json"))["per_query"]) == 80
EOF
f4search search --index items.f4i --image-embedding corpus/images.f4e:d00000 \
  --sparse-text "rice, chicken" --rerank --n 7 --k 5 > rerank.txt
test "$(wc -l < rerank.txt)" -eq 6
# Re-ranking needs a sparse caption index, in search as in evaluate and sweep. Under
# bash -e a bare "! cmd" never fails the script, so the exit status is tested.
status=0
f4search search --index dense.f4i --image-embedding corpus/images.f4e:d00000 \
  --sparse-text "rice, chicken" --rerank || status=$?
test "$status" -eq 1
f4search search --index dense.f4i --image-embedding corpus/images.f4e:d00000 \
  --dense-text "rice with chicken" --bidirectional --k 3 > bidir.txt
test "$(wc -l < bidir.txt)" -eq 4
# Uni-directional fused search is bi-directional search at index weights (0, 1).
f4search search --index dense.f4i --image-embedding corpus/images.f4e:d00000 \
  --dense-text "rice with chicken" --k 5 > fused.txt
f4search search --index dense.f4i --image-embedding corpus/images.f4e:d00000 \
  --dense-text "rice with chicken" --bidirectional --index-w-text 1 --k 5 > fused-bidir.txt
test "$(wc -l < fused.txt)" -eq 6
cmp fused.txt fused-bidir.txt
# Image-only search: at --w-text 0 the query row is the image row, and no text is needed.
f4search search --index dense.f4i --image-embedding corpus/images.f4e:d00000 \
  --w-text 0 --k 3 > image.txt
test "$(wc -l < image.txt)" -eq 4
# A NaN in the last float of the last record: the load exits 1 and names the file
# and the end of that record, which is the end of the file.
cp corpus/images.f4e nan.f4e
python -c 'import struct, sys; d = bytearray(open(sys.argv[1], "rb").read()); d[-4:] = struct.pack("<f", float("nan")); open(sys.argv[1], "wb").write(d)' nan.f4e
status=0
f4search evaluate --index dense.f4i --bundles corpus/bundles.jsonl \
  --image-embeddings nan.f4e --out nan.json 2> nan.err || status=$?
test "$status" -eq 1
grep -F "nan.f4e: bad content before byte $(wc -c < nan.f4e): non-finite float" nan.err
# A zero last record: the load exits 1 and names the file, the record and its end.
cp corpus/images.f4e zero.f4e
python -c 'import struct, sys; d = bytearray(open(sys.argv[1], "rb").read()); n = 4 * struct.unpack_from("<I", d, 6)[0]; d[-n:] = bytes(n); open(sys.argv[1], "wb").write(d)' zero.f4e
status=0
f4search evaluate --index dense.f4i --bundles corpus/bundles.jsonl \
  --image-embeddings zero.f4e --out zero.json 2> zero.err || status=$?
test "$status" -eq 1
grep -F "zero.f4e: record " zero.err
grep -F " before byte $(wc -c < zero.f4e): cannot normalize a zero vector" zero.err
# main maps a runtime error of any command to one "error:" line and exit 1; an
# unknown flag is a usage error and exits 2.
status=0
f4search gen-synthetic --dropout 1.0 --out-dir dropout 2> dropout.err || status=$?
test "$status" -eq 1
test "$(grep -c '^error:' dropout.err)" -eq 1
grep -F "error: dropout must lie in [0, 1)" dropout.err
status=0
f4search build-index --captions corpus/captions_dense.jsonl --out no-records.f4i \
  --encoder file 2> no-records.err || status=$?
test "$status" -eq 1
test "$(grep -c '^error:' no-records.err)" -eq 1
grep -F "error: --encoder file requires --embeddings" no-records.err
status=0
f4search sweep --index dense.f4i --bundles corpus/bundles.jsonl \
  --image-embeddings corpus/images.f4e --grid 0.5,0.5 --out repeat.csv 2> repeat.err || status=$?
test "$status" -eq 1
test "$(grep -c '^error:' repeat.err)" -eq 1
grep -F "error: grid must be strictly increasing" repeat.err
status=0
f4search evaluate --index dense.f4i --bundles corpus/bundles.jsonl \
  --image-embeddings corpus/images.f4e --out workers.json --workers 2 2> workers.err || status=$?
test "$status" -eq 2
grep -F -- "--workers" workers.err
