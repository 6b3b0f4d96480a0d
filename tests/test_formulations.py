"""The fixed-operator row step against the per-step solve it replaces.

rsp_row forms each row sketch's Z^+ = ((Z Z^H)^-1 Z)^H ahead and steps
X + Z^+ (S^H - Z X); it used to solve (Z Z^H) W = S^H - Z X at every step
and add Z^H W. The two are equal in exact arithmetic but round
differently, so the reference below keeps the old formulation, and the
pinned run must take the same number of iterations and land within a
bound of the same X. The bound is about 10x the gap measured on this
instance, 8.0e-16.
"""

from quatpinv import solvers
from quatpinv.errors import Indefinite, SketchFailure
from quatpinv.factor import hpd_factor
from quatpinv.qmatrix import QMatrix, randn_qmat, randn_qmat_rng
from quatpinv.rng import QuatRNG
from quatpinv.solvers import SketchConfig, SolverConfig, rsp_row


def _per_step_rsp_row(A, cfg, sk):
    """rsp_row with one Gram solve against S^H - Z X per step."""
    rng = QuatRNG(sk.seed)

    def step(X, _):
        for _ in range(10):
            Sh = randn_qmat_rng(A.rows, sk.block_r, rng).adjoint()
            Z = Sh @ A
            try:
                W = hpd_factor(Z @ Z.adjoint()).solve(Sh - Z @ X)
            except Indefinite:
                continue
            return X + Z.adjoint() @ W
        raise SketchFailure("10 consecutive rank-deficient sketches")

    measure = solvers._test_sketch_measure(A, sk, rng, row=True)
    X, _, rep = solvers._drive("rsp-row", QMatrix.zeros(A.cols, A.rows),
                               step, measure, cfg.tol, cfg.maxit)
    return X, rep


def test_rsp_row_matches_per_step_solves():
    A = randn_qmat(20, 30, 3)
    cfg = SolverConfig(tol=1e-9, maxit=5000)
    sk = SketchConfig(block_r=8, test_s=5, seed=9)
    X, rep = rsp_row(A, cfg, sk)
    Xref, ref = _per_step_rsp_row(A, cfg, sk)
    assert rep.converged and ref.converged
    assert rep.iterations == ref.iterations > 1
    assert (X - Xref).fro_norm() <= 1e-14 * Xref.fro_norm()
