"""Iterations of sketch-and-project, plain and accelerated.

    python3 tools/rsp_sweep.py
    python3 tools/rsp_sweep.py --seeds 3 --sketch-seed 7

Runs ``rsp_column`` (``rsp_row`` on a wide shape), which takes the
accelerated step wherever its probe gives sqrt(mu / nu) < 0.2, and the
plain loop of the paper's RSP-Q (``tests/rsp_helpers.py::plain_rsp``: the
same sketch stream, test sketch and stopping loop, each step one plain
``_update``) on the same inputs, and prints their iteration counts side by
side:

* over a list of shapes, fast and slow ones, each with A = randn_qmat(m,
  n, s) and sketch seed s for s = 1..--seeds, at tol 1e-10: one line per
  shape with the range of sqrt(mu / nu) over its inputs, the summed
  iterations of both, their ratio, how many runs of each converged and
  the largest Penrose residual of the accelerated runs;
* over the ``rsp-column`` and ``rsp-row`` calls of every instance of the
  perfbench ``sketch`` pool drawn from --sketch-seed, with the workload's
  own inputs and settings: one line per method, summed the same way.

A line whose accelerated sum exceeds 1.05x the plain sum is marked SLOWER.
The exit status is 1 when a line is marked SLOWER or a run raised or did
not converge, and 0 otherwise, so the sweep serves as a check.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"),
                str(ROOT / "perfbench")]

import quatpinv  # noqa: E402,F401  (caps the BLAS threads before numpy loads)
from quatpinv import solvers  # noqa: E402
from quatpinv.errors import QuatpinvError  # noqa: E402
from quatpinv.qmatrix import QMatrix, randn_qmat  # noqa: E402
from rsp_helpers import plain_rsp  # noqa: E402

# (m, n, block_r): the first four converge in tens of steps, the rest in
# hundreds to tens of thousands (plain 50 x 48 needs up to 66095 steps)
SHAPES = ((12, 7, 6), (12, 5, 4), (30, 10, 4), (50, 12, 10), (30, 20, 8),
          (20, 30, 8), (60, 40, 8), (30, 20, 2), (50, 48, 8))
TOL = 1e-10
MAXIT = 100000


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

    @property
    def failed(self) -> bool:
        return self.converged < self.runs


def row(label, plain, accelerated, qs=None):
    """(line, whether the line fails the check)."""
    ratio = accelerated.iterations / max(plain.iterations, 1)
    slower = ratio > 1.05
    errors = ""
    if plain.errors or accelerated.errors:
        errors = (f" errors plain={plain.errors} "
                  f"accelerated={accelerated.errors}")
    q = f" q {min(qs):.3f}-{max(qs):.3f}" if qs else ""
    line = (f"{label:<22}{q} plain {plain.iterations:>7} accelerated "
            f"{accelerated.iterations:>7} ratio {ratio:.3f} converged "
            f"{plain.converged}/{plain.runs} {accelerated.converged}/"
            f"{accelerated.runs} penrose<={accelerated.penrose:.2g}"
            f"{' SLOWER' if slower else ''}{errors}")
    return line, slower or plain.failed or accelerated.failed


def _q(A: QMatrix, r: int) -> float:
    """sqrt(mu / nu) of the probe that rsp_column or rsp_row runs on A."""
    B = A if A.rows >= A.cols else A.adjoint()
    return solvers._accel_constants(B, r, solvers._probe(B))[0]


def sweep_shapes(seeds: int):
    cfg = solvers.SolverConfig(tol=TOL, maxit=MAXIT)
    for m, n, r in SHAPES:
        solver = solvers.rsp_column if m >= n else solvers.rsp_row
        plain, accelerated, qs = Tally(), Tally(), []
        for s in range(1, seeds + 1):
            A = randn_qmat(m, n, s)
            sk = solvers.SketchConfig(block_r=r, seed=s)
            qs.append(_q(A, r))
            plain.add(lambda: plain_rsp(A, cfg, sk))
            accelerated.add(lambda: solver(A, cfg, sk))
        yield row(f"{m}x{n} r{r}", plain, accelerated, qs)


def sweep_sketch_pool(seed: int):
    import workloads

    wl = workloads.Workload("sketch", seed)
    tallies = {}
    for i in range(len(wl.pool)):
        for call in wl.round(i):
            if call.method not in ("rsp-column", "rsp-row"):
                continue
            plain, accelerated = tallies.setdefault(call.method,
                                                    (Tally(), Tally()))
            accelerated.add(call.run)
            # the call looks its solver up on the module when it runs
            saved = solvers.rsp_column, solvers.rsp_row
            solvers.rsp_column = solvers.rsp_row = plain_rsp
            try:
                plain.add(call.run)
            finally:
                solvers.rsp_column, solvers.rsp_row = saved
    for method, (plain, accelerated) in tallies.items():
        yield row(f"sketch{seed} {method}", plain, accelerated)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=5,
                   help="inputs per shape (default 5)")
    p.add_argument("--sketch-seed", type=int, default=1,
                   help="perfbench sketch workload seed (default 1)")
    args = p.parse_args(argv)
    if args.seeds < 1:
        p.error("--seeds must be >= 1")
    failed = False
    for line, bad in itertools.chain(sweep_shapes(args.seeds),
                                     sweep_sketch_pool(args.sketch_seed)):
        print(line, flush=True)
        failed |= bad
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
