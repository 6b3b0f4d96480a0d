"""``tools/parity.py``'s call-by-call comparison: the digest fields that
differ are named, a changed benchmark verdict is shown and counted by its
direction, and a closed output pipe ends the tool quietly. The tool file
is loaded by path or run in a subprocess, and is not modified."""

import importlib.util
import subprocess
import sys
from pathlib import Path

PARITY = Path(__file__).resolve().parents[1] / "tools" / "parity.py"


def _parity():
    spec = importlib.util.spec_from_file_location("tools_parity", PARITY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(digest, iterations=(3,), ok=True):
    return dict(key="dense tall220x200#0 ns", digest=digest, error=None,
                ok=ok, iterations=list(iterations), penrose=[[0.0] * 4])


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
                      "iterations=same error=same ok=same penrose_gap=0")
    assert out[1].startswith("# 1 calls: 0 bitwise equal, 0 with a changed")
    assert "verdicts 0 False->True and 0 True->False" in out[1]


def test_changed_verdict_is_shown_and_counted_but_keeps_exit(capsys):
    # the exit status follows iteration counts and error classes only
    here = {"r.0": "(200, 220, 4):float64:aa"}
    assert _parity().compare([_record(here, ok=True)],
                             [_record(here, ok=False)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("dense tall220x200#0 ns bits=same iterations=same "
                      "error=same ok=False->True penrose_gap=0")
    assert out[1] == ("# 1 calls: 1 bitwise equal, 0 with a changed "
                      "iteration count or error class or on one tree only, "
                      "verdicts 1 False->True and 0 True->False, largest "
                      "Penrose gap 0")


def test_changed_verdicts_are_counted_by_direction(capsys):
    here = {"r.0": "(200, 220, 4):float64:aa"}
    own = [dict(_record(here, ok=ok), key=f"call {i}")
           for i, ok in enumerate((True, False, False, True))]
    other = [dict(_record(here, ok=ok), key=f"call {i}")
             for i, ok in enumerate((False, True, True, True))]
    assert _parity().compare(own, other) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[5] for line in out[:4]] == [
        "ok=False->True", "ok=True->False", "ok=True->False", "ok=same"]
    assert "verdicts 1 False->True and 2 True->False" in out[4]


def test_oracle_pool_runs_in_a_subprocess():
    # the oracle pool's qsvd calls on this checkout, one line per call: 8
    # pool instances of 7 inputs each, the rank-deficient and zero ones
    # among them
    out = subprocess.run([sys.executable, str(PARITY), "--seed", "1",
                          "--workload", "oracle", "--method", "qsvd"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 8 * 7
    assert all(line.startswith("oracle ") and " qsvd " in line
               for line in lines)
    assert any(line.startswith("oracle zero30x20#0 qsvd ") for line in lines)


def test_a_closed_output_pipe_ends_quietly():
    # as ``parity.py ... | head -1`` closes it; a traceback was printed
    p = subprocess.Popen([sys.executable, str(PARITY), "--seed", "1",
                          "--workload", "oracle", "--method", "qsvd"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    assert p.stdout.readline().startswith("oracle ")
    p.stdout.close()
    assert p.wait(timeout=120) == 1
    assert p.stderr.read() == ""
