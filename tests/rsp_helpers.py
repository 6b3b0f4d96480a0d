"""Sketch-and-project and QR helpers that only the tests and the acceptance
criteria call: one column step with its own sketch, the mean one-step
contraction ratio, and the pseudoinverse of a thin QR."""

from quatpinv.factor import solve_upper_triangular, thin_qr
from quatpinv.qmatrix import QMatrix
from quatpinv.rng import QuatRNG
from quatpinv.solvers import (SketchConfig, _SketchStream, _update,
                              rsp_contraction_samples)


def _rsp_col_step(A: QMatrix, X: QMatrix, sk: SketchConfig,
                  rng: QuatRNG) -> QMatrix:
    """One column sketch-and-project update; redraws rank-deficient
    sketches, and draws from rng only the sketches it uses."""
    return _update(X, _SketchStream(A, sk, rng, block=1))


def rsp_rate_check(A: QMatrix, sk: SketchConfig, trials: int) -> float:
    """Empirical mean one-step contraction ratio (compare to rsp_rate_bound)."""
    return float(rsp_contraction_samples(A, sk, trials).mean())


def pinv_from_qr(Y: QMatrix, rank_tol: float = 1e-12) -> QMatrix:
    """Y^dagger = R^{-1} Q^H for numerically full-column-rank Y."""
    f = thin_qr(Y, rank_tol)
    return solve_upper_triangular(f.R, f.Q.adjoint())
