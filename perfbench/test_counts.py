"""Exact-count check: two runs with the same seed repeat their counts.

Timings move from run to run; counts must not. For every call of round 0
(untraced and traced pass) two fresh runs must agree on the iteration
count, the number of quaternion products (``_qops.qmatmul`` spans) and
which calls failed, with which error. Tracing must not change a result
either: the traced pass repeats the untraced pass's iterations and
outcomes.

    python3 -m pytest perfbench/test_counts.py     (about two minutes)
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7


def _calls(out_dir: Path, workload: str) -> dict:
    # --seconds 0 runs exactly one round, once untraced and once traced
    subprocess.run([sys.executable, str(RUN), "--workload", workload,
                    "--seed", str(SEED), "--seconds", "0", "--trace", "1",
                    "--out", str(out_dir)],
                   check=True, capture_output=True, timeout=600)
    record = json.loads(
        (out_dir / f"{workload}-seed{SEED}-trace1.json").read_text())
    return {(c["traced"], c["input"], c["method"]):
            (c["iterations"], c.get("qmatmul_calls"), c["ok"], c["error"])
            for c in record["calls"]}


@pytest.mark.parametrize("workload", ["dense", "sketch", "apps", "oracle"])
def test_same_seed_repeats_counts(workload, tmp_path):
    first = _calls(tmp_path / "first", workload)
    second = _calls(tmp_path / "second", workload)
    assert first == second

    traced = {k[1:]: v for k, v in first.items() if k[0]}
    untraced = {k[1:]: v for k, v in first.items() if not k[0]}
    assert traced.keys() == untraced.keys()
    for key, (iters, products, ok, error) in traced.items():
        assert (iters, ok, error) == (untraced[key][0], untraced[key][2],
                                      untraced[key][3]), key
        assert products is not None
