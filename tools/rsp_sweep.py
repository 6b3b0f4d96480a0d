"""Iterations of sketch-and-project with and without heavy-ball momentum.

    python3 tools/rsp_sweep.py
    python3 tools/rsp_sweep.py --seeds 3 --sketch-seed 7

Runs ``rsp_column`` (``rsp_row`` on a wide shape), which adds heavy-ball
momentum to every step after the tenth, and the plain loop of the paper's
RSP-Q (``tests/rsp_helpers.py::plain_rsp``: the same sketch stream, test
sketch and stopping loop, each step one plain ``_update``) on the same
inputs, and prints their iteration counts side by side:

* over a list of shapes, fast and slow ones, each with A = randn_qmat(m,
  n, s) and sketch seed s for s = 1..--seeds, at tol 1e-10: one line per
  shape with the summed iterations of both, their ratio, how many runs of
  each converged and the largest Penrose residual of the momentum runs;
* over the ``rsp-column`` and ``rsp-row`` calls of every instance of the
  perfbench ``sketch`` pool drawn from --sketch-seed, with the workload's
  own inputs and settings: one line per method, summed the same way.

A shape whose momentum sum exceeds 1.05x the plain sum is marked SLOWER.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"),
                str(ROOT / "perfbench")]

import quatpinv  # noqa: E402,F401  (caps the BLAS threads before numpy loads)
from quatpinv import solvers  # noqa: E402
from quatpinv.errors import QuatpinvError  # noqa: E402
from quatpinv.qmatrix import randn_qmat  # noqa: E402
from rsp_helpers import plain_rsp  # noqa: E402

# (m, n, block_r): the first four converge in tens of steps, the rest in
# hundreds to thousands
SHAPES = ((12, 7, 6), (12, 5, 4), (30, 10, 4), (50, 12, 10), (30, 20, 8),
          (20, 30, 8), (60, 40, 8), (30, 20, 2))
TOL = 1e-10
MAXIT = 50000


class Tally:
    def __init__(self):
        self.iterations = self.converged = self.runs = 0
        self.penrose = 0.0
        self.errors = []

    def add(self, solve):
        self.runs += 1
        try:
            _, rep = solve()
        except QuatpinvError as exc:
            self.errors.append(type(exc).__name__)
            return
        self.iterations += rep.iterations
        self.converged += rep.converged
        self.penrose = max(self.penrose, max(rep.penrose))


def row(label, plain, momentum) -> str:
    ratio = momentum.iterations / max(plain.iterations, 1)
    flag = " SLOWER" if ratio > 1.05 else ""
    errors = ""
    if plain.errors or momentum.errors:
        errors = f" errors plain={plain.errors} momentum={momentum.errors}"
    return (f"{label:<22} plain {plain.iterations:>7} momentum "
            f"{momentum.iterations:>7} ratio {ratio:.3f} converged "
            f"{plain.converged}/{plain.runs} {momentum.converged}/"
            f"{momentum.runs} penrose<={momentum.penrose:.2g}{flag}{errors}")


def sweep_shapes(seeds: int):
    cfg = solvers.SolverConfig(tol=TOL, maxit=MAXIT)
    for m, n, r in SHAPES:
        solver = solvers.rsp_column if m >= n else solvers.rsp_row
        plain, momentum = Tally(), Tally()
        for s in range(1, seeds + 1):
            A = randn_qmat(m, n, s)
            sk = solvers.SketchConfig(block_r=r, seed=s)
            plain.add(lambda: plain_rsp(A, cfg, sk))
            momentum.add(lambda: solver(A, cfg, sk))
        yield row(f"{m}x{n} r{r}", plain, momentum)


def sweep_sketch_pool(seed: int):
    import workloads

    wl = workloads.Workload("sketch", seed)
    tallies = {}
    for i in range(len(wl.pool)):
        for call in wl.round(i):
            if call.method not in ("rsp-column", "rsp-row"):
                continue
            plain, momentum = tallies.setdefault(call.method,
                                                 (Tally(), Tally()))
            momentum.add(call.run)
            # the call looks its solver up on the module when it runs
            saved = solvers.rsp_column, solvers.rsp_row
            solvers.rsp_column = solvers.rsp_row = plain_rsp
            try:
                plain.add(call.run)
            finally:
                solvers.rsp_column, solvers.rsp_row = saved
    for method, (plain, momentum) in tallies.items():
        yield row(f"sketch{seed} {method}", plain, momentum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=5,
                   help="inputs per shape (default 5)")
    p.add_argument("--sketch-seed", type=int, default=1,
                   help="perfbench sketch workload seed (default 1)")
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be >= 1")
    for line in sweep_shapes(args.seeds):
        print(line, flush=True)
    for line in sweep_sketch_pool(args.sketch_seed):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
