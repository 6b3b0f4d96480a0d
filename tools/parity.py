"""Bitwise-parity digest of every benchmark call.

    python3 tools/parity.py --seed 1 > new.txt
    python3 tools/parity.py --seed 1 --tree ../other-checkout > old.txt
    diff old.txt new.txt
    python3 tools/parity.py --seed 1 --workload sketch
    python3 tools/parity.py --seed 1 --workload sketch --method rsp-column

Runs every call of the ``dense``, ``sketch``, ``apps`` and ``oracle`` pools
of ``perfbench/workloads.py`` (each pool instance once, as round i of a
benchmark run uses instance i; ``--workload`` picks pools and ``--method``
the calls of the named methods) and prints one line per call: the workload,
input and method, then either the error class the call raised or a digest
of what it returned -- a hash of the bytes of every returned array, the
iteration count, a hash of the residual history and the Penrose residuals
a solver reports, and every other returned number. Wall times are left
out. Two checkouts that compute the same bits print the same lines, so a
change meant to leave every result bitwise unchanged shows an empty diff.

``--tree`` selects the checkout whose ``src/`` and ``perfbench/`` are
imported (default: the one holding this file); neither is modified.

``--against TREE`` compares, call by call, with another checkout, for a
change that is not meant to keep every bit:

    python3 tools/parity.py --seed 1 --workload sketch --against ../other

It runs the same calls on ``--tree`` and, in a child process, on TREE, and
prints per call whether the digests (the bits) match, naming the digest
fields that differ (``bits=differ[r.1.history]`` for a call whose returned
arrays keep their bits and whose residual history does not), whether the
iteration counts and the error class match (``same``, or ``a->b`` for
TREE's value a and this tree's b), whether the benchmark's verdict on the
call matches (``ok=same``, or ``ok=False->True``: perfbench's check of the
result, run with an elapsed time of 0, and False for a call that raised),
and the largest absolute gap between the Penrose residuals the two report
(``-`` for a call that reports none). A last line sums up, counting the
verdicts that turned False->True and those that turned True->False apart,
so that a change that only removes failures shows 0 in the second. The
exit status is 1 when any iteration count or error class changed, or a
call ran on one tree only, and 0 otherwise. A run whose output pipe is
closed, as ``head`` closes it, ends quietly with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("dense", "sketch", "apps", "oracle")


def _hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fields(obj, path: str = "r"):
    """(label, text) pairs that pin down a call's result, wall times
    excepted."""
    import numpy as np
    from quatpinv.qmatrix import QMatrix
    from quatpinv.solvers import SolverReport

    if isinstance(obj, QMatrix):
        obj = obj.data
    if isinstance(obj, np.ndarray):
        return [(path, f"{obj.shape}:{obj.dtype}:{_hash(obj.tobytes())}")]
    if isinstance(obj, SolverReport):
        return [(f"{path}.iterations", str(obj.iterations)),
                (f"{path}.history", _hash(repr(obj.residual_history).encode())),
                (f"{path}.penrose", ",".join(map(repr, obj.penrose))),
                (f"{path}.converged", str(obj.converged))]
    if isinstance(obj, dict):
        return [f for key in sorted(obj) if key != "wall_time"
                for f in fields(obj[key], f"{path}.{key}")]
    if isinstance(obj, (tuple, list)):
        if obj and all(isinstance(v, float) for v in obj):
            return [(path, f"{len(obj)}:{_hash(repr(list(obj)).encode())}")]
        return [f for i, v in enumerate(obj) for f in fields(v, f"{path}.{i}")]
    return [(path, repr(obj))]


def reports(obj) -> list:
    """Every SolverReport in a call's result, in the order fields() sees
    them."""
    from quatpinv.solvers import SolverReport

    if isinstance(obj, SolverReport):
        return [obj]
    if isinstance(obj, dict):
        return [r for key in sorted(obj) for r in reports(obj[key])]
    if isinstance(obj, (tuple, list)):
        return [r for v in obj for r in reports(v)]
    return []


def run_calls(tree: Path, seed: int, names, methods):
    """One record per call of the named pools, run on the checkout tree:
    its key, digest, error class (or None), the benchmark's verdict ok,
    and the iteration counts and Penrose residuals of its reports."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import quatpinv  # noqa: F401  (caps the BLAS threads before numpy loads)
    import workloads

    for name in names:
        wl = workloads.Workload(name, seed)
        for i in range(len(wl.pool)):
            for call in wl.round(i):
                if methods and call.method not in methods:
                    continue
                key = f"{name} {call.input} {call.method}"
                try:
                    result = call.run()
                except workloads.QuatpinvError as exc:
                    error = type(exc).__name__
                    yield dict(key=key, digest={"error": error}, error=error,
                               ok=False, iterations=[], penrose=[])
                    continue
                reps = reports(result)
                yield dict(key=key, digest=dict(fields(result)), error=None,
                           ok=bool(call.check(result, 0.0).ok),
                           iterations=[r.iterations for r in reps],
                           penrose=[list(r.penrose) for r in reps])


def _changed(here, there) -> str:
    """"same", or "a->b" for there's value a and here's b."""
    def text(v):
        if isinstance(v, list):
            return ",".join(map(str, v)) or "-"
        return str(v)
    return "same" if here == there else f"{text(there)}->{text(here)}"


def _bits(here: dict, there: dict) -> str:
    """"same", or "differ[...]" naming the digest fields that differ, in
    this tree's order and then the other's."""
    keys = list(here) + [k for k in there if k not in here]
    differ = [k for k in keys if here.get(k) != there.get(k)]
    return f"differ[{','.join(differ)}]" if differ else "same"


def compare(own, other: list) -> int:
    """Print the per-call comparison of the records own, as they come,
    against the records other; return the exit status."""
    theirs = {r["key"]: r for r in other}
    calls = bad = equal = fixed = broken = 0
    worst = 0.0
    for r in own:
        calls += 1
        t = theirs.pop(r["key"], None)
        if t is None:
            print(r["key"], "only-here", flush=True)
            bad += 1
            continue
        gaps = [abs(x - y) for p, q in zip(r["penrose"], t["penrose"])
                for x, y in zip(p, q)]
        gap = max(gaps) if gaps else None
        worst = max(worst, gap or 0.0)
        iters = _changed(r["iterations"], t["iterations"])
        error = _changed(r["error"], t["error"])
        ok = _changed(r["ok"], t["ok"])
        bits = _bits(r["digest"], t["digest"])
        equal += bits == "same"
        fixed += ok == "False->True"
        broken += ok == "True->False"
        bad += iters != "same" or error != "same"
        print(r["key"], f"bits={bits} iterations={iters} error={error} "
              f"ok={ok} penrose_gap={'-' if gap is None else f'{gap:.3g}'}",
              flush=True)
    for key in theirs:
        print(key, "only-there")
        bad += 1
    print(f"# {calls} calls: {equal} bitwise equal, {bad} with a changed "
          f"iteration count or error class or on one tree only, verdicts "
          f"{fixed} False->True and {broken} True->False, largest Penrose "
          f"gap {worst:.3g}")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tree", default=str(Path(__file__).resolve().parents[1]),
                   help="checkout whose src/ and perfbench/ are imported")
    p.add_argument("--workload", choices=WORKLOADS, action="append",
                   help="pool to run (repeatable; default: all four)")
    p.add_argument("--method", action="append",
                   help="run only this method's calls, e.g. rsp-row "
                        "(repeatable; default: every method)")
    p.add_argument("--against", metavar="TREE",
                   help="compare each call with the checkout TREE")
    p.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    names = args.workload or WORKLOADS
    if args.against:
        cmd = [sys.executable, __file__, "--seed", str(args.seed), "--json",
               "--tree", str(Path(args.against).resolve())]
        cmd += [f"--workload={n}" for n in names]
        cmd += [f"--method={m}" for m in args.method or ()]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        other = [json.loads(line) for line in out.splitlines()]
    records = run_calls(Path(args.tree).resolve(), args.seed, names,
                        args.method)
    if args.against:
        return compare(records, other)
    for r in records:
        print(json.dumps(r) if args.json else " ".join(
            [r["key"]] + [f"{k}={v}" for k, v in r["digest"].items()]),
            flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # the reader closed the pipe, as ``| head`` does: stop quietly, with
        # stdout on /dev/null so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
