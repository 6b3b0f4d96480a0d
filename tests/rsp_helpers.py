"""Helpers that only the tests and the acceptance criteria call: one
column sketch-and-project step with its own sketch, the mean one-step
contraction ratio, the pseudoinverse of a thin QR, and the count of
square products in a Neumann polynomial."""

from quatpinv import _qops
from quatpinv.factor import solve_upper_triangular, thin_qr
from quatpinv.qmatrix import QMatrix
from quatpinv.rng import QuatRNG
from quatpinv.solvers import (SketchConfig, _SketchStream, _update,
                              eval_neumann_poly, rsp_contraction_samples)


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


def square_products(R: QMatrix, X: QMatrix, p: int, schedule: str) -> int:
    """How many quaternion products of two R-shaped operands
    eval_neumann_poly(R, X, p, schedule) makes: for an X that is not
    square, its products of powers of R with each other."""
    qmatmul = _qops.qmatmul
    count = 0

    def counting(x, y):
        nonlocal count
        count += x.shape == y.shape == R.data.shape
        return qmatmul(x, y)
    _qops.qmatmul = counting
    try:
        eval_neumann_poly(R, X, p, schedule)
    finally:
        _qops.qmatmul = qmatmul
    return count
