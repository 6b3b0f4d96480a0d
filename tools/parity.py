"""Bitwise-parity digest of every benchmark call.

    python3 tools/parity.py --seed 1 > new.txt
    python3 tools/parity.py --seed 1 --tree ../other-checkout > old.txt
    diff old.txt new.txt
    python3 tools/parity.py --seed 1 --workload sketch
    python3 tools/parity.py --seed 1 --workload sketch --method rsp-column

Runs every call of the ``dense``, ``sketch`` and ``apps`` pools of
``perfbench/workloads.py`` (each pool instance once, as round i of a
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
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

WORKLOADS = ("dense", "sketch", "apps")


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tree", default=str(Path(__file__).resolve().parents[1]),
                   help="checkout whose src/ and perfbench/ are imported")
    p.add_argument("--workload", choices=WORKLOADS, action="append",
                   help="pool to run (repeatable; default: all three)")
    p.add_argument("--method", action="append",
                   help="run only this method's calls, e.g. rsp-row "
                        "(repeatable; default: every method)")
    args = p.parse_args(argv)
    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import quatpinv  # noqa: F401  (caps the BLAS threads before numpy loads)
    import workloads

    for name in args.workload or WORKLOADS:
        wl = workloads.Workload(name, args.seed)
        for i in range(len(wl.pool)):
            for call in wl.round(i):
                if args.method and call.method not in args.method:
                    continue
                try:
                    result = call.run()
                except workloads.QuatpinvError as exc:
                    digest = f"error={type(exc).__name__}"
                else:
                    digest = " ".join(f"{k}={v}" for k, v in fields(result))
                print(name, call.input, call.method, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
