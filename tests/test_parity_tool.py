"""``tools/parity.py``'s call-by-call comparison: the digest fields that
differ are named. The tool file is loaded by path and is not modified."""

import importlib.util
from pathlib import Path

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def _parity():
    spec = importlib.util.spec_from_file_location("tools_parity", PARITY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(digest, iterations=(3,)):
    return dict(key="dense tall220x200#0 ns", digest=digest, error=None,
                iterations=list(iterations), penrose=[[0.0] * 4])


def test_bits_name_the_fields_that_differ(capsys):
    here = {"r.0": "(200, 220, 4):float64:aa", "r.1.history": "h1"}
    there = {"r.0": "(200, 220, 4):float64:aa", "r.1.history": "h0"}
    assert _parity()._bits(here, here) == "same"
    assert _parity()._bits(here, there) == "differ[r.1.history]"
    # a field on one side only differs too, listed after this side's
    assert _parity()._bits({"error": "Breakdown"}, here) == \
        "differ[error,r.0,r.1.history]"
    assert _parity().compare([_record(here)], [_record(there)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("dense tall220x200#0 ns bits=differ[r.1.history] "
                      "iterations=same error=same penrose_gap=0")
    assert out[1].startswith("# 1 calls: 0 bitwise equal, 0 with a changed")
