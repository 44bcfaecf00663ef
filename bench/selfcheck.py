"""Self-check of the benchmark at tiny size.

Runs every workload untraced and traced on tiny inputs, about a second
each, and asserts that:

* the output checks pass and nothing failed;
* every end-to-end (untraced) or per-layer (traced) metric named in
  ``BENCHMARK.json`` is printed, with the unit given there;
* per-layer counts are non-zero on the workloads whose layer runs and
  zero elsewhere.

Run it from the root of a checkout with either of:

    python3 bench/selfcheck.py
    python3 -m pytest -q bench/selfcheck.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# Counts that only the named workload makes; every workload searches.
COUNTS_ONLY_ON = {
    "rerank.candidates": "sweep-rerank",
    "rerank.items_encoded": "sweep-rerank",
    "remote.requests": "remote-fused",
    "remote.connections": "remote-fused",
    "remote.bytes_sent": "remote-fused",
    "remote.bytes_received": "remote-fused",
}
COUNTS_EVERYWHERE = ("search.calls", "search.rows_scanned", "encoders.texts_encoded")


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_selfcheck():
    run.import_program()
    from workloads import TINY

    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        declared = _declared(kind)
        for name in run.WORKLOAD_NAMES:
            info, result = run.run(name, seed=7, seconds=0.2, trace=trace, size=TINY[name])
            where = f"{name} trace={int(trace)}"
            assert result["correct"] and result["failed"] == 0, (where, info["failures"])
            assert result["attempted"] >= 1, where
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, (where, printed, declared)
            json.dumps(result, allow_nan=False)
            if trace:
                values = {k: v["value"] for k, v in result["metrics"].items()}
                for metric in COUNTS_EVERYWHERE:
                    assert values[metric] > 0, (where, metric)
                for metric, only_on in COUNTS_ONLY_ON.items():
                    assert (values[metric] > 0) == (name == only_on), (where, metric)


if __name__ == "__main__":
    test_selfcheck()
    print("benchmark self-check passed")
