"""Helpers that only the tests, the acceptance criteria and
tools/rsp_sweep.py call: one column sketch-and-project step with its own
sketch, through the solvers' stream or without it, the sketch-and-project
solve with the plain step, the mean one-step contraction ratio, the
pseudoinverse of a thin QR or of a Gram solve, and the count of square
products in a Neumann polynomial."""

import numpy as np

from quatpinv import _qops, factor, solvers
from quatpinv.errors import SketchFailure
from quatpinv.factor import solve_upper_triangular, thin_qr
from quatpinv.qmatrix import QMatrix, randn_qmat_rng
from quatpinv.rng import QuatRNG
from quatpinv.solvers import (SketchConfig, SolverConfig, _sketch_solve,
                              _SketchStream, _update, eval_neumann_poly,
                              rsp_contraction_samples)


def _rsp_col_step(A: QMatrix, X: QMatrix, sk: SketchConfig,
                  rng: QuatRNG) -> QMatrix:
    """One column sketch-and-project update; redraws rank-deficient
    sketches, and draws from rng only the sketches it uses."""
    return _update(X, _SketchStream(A, sk, rng, block=1))


def plain_rsp(A: QMatrix, cfg: SolverConfig, sk: SketchConfig):
    """rsp_column, or rsp_row for a wide A, with the plain step: the paper's
    RSP-Q, each step one plain _update, with the solvers' sketch stream,
    test sketch and stopping loop."""
    return _sketch_solve(A, cfg, sk, "rsp-plain", _update)


def rsp_rate_check(A: QMatrix, sk: SketchConfig, trials: int) -> float:
    """Empirical mean one-step contraction ratio (compare to rsp_rate_bound)."""
    return float(rsp_contraction_samples(A, sk, trials).mean())


def pinv_from_qr(Y: QMatrix) -> QMatrix:
    """Y^dagger = R^{-1} Q^H for numerically full-column-rank Y."""
    f = thin_qr(Y)
    return solve_upper_triangular(f.R, f.Q.adjoint())


def gram_pinv(Y: QMatrix) -> QMatrix | None:
    """Y^+ by the Cholesky solve of Y^H Y + ridge I against Y^H, or None
    when a pivot or the residual check fails."""
    Gd = (Y.adjoint() @ Y).data.copy()
    r = Gd.shape[0]
    Gd[np.arange(r), np.arange(r), 0] += solvers._RIDGE
    L = factor._cholesky(Gd)
    if L is None:
        return None
    Z, ok = factor._checked_chol_solve(L, Gd, Y.adjoint().data)
    return QMatrix(Z) if ok else None


def ref_col_step(A: QMatrix, X: QMatrix, sk: SketchConfig, rng: QuatRNG,
                 pinv=gram_pinv) -> QMatrix:
    """One column sketch-and-project step without the stream, Y^+ =
    pinv(Y): a sketch whose pinv is None is redrawn, up to 10 times."""
    for _ in range(10):
        Omega = randn_qmat_rng(A.cols, sk.block_r, rng)
        Y = A @ Omega
        Ydag = pinv(Y)
        if Ydag is not None:
            return X + (Omega - X @ Y) @ Ydag
    raise SketchFailure("10 consecutive rank-deficient sketches")


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
