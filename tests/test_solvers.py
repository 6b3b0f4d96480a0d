import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quatpinv import _qops, factor, solvers
from quatpinv._loop import _dot, _fro_norm
from quatpinv.errors import (Breakdown, ConvergenceFailure,
                             DimensionMismatch, Divergence, NonFinite,
                             QuatpinvError, RankDeficient, SketchFailure)
from quatpinv.factor import pinv_normal_eq, pinv_qsvd, qsvd, thin_qr
from quatpinv.qmatrix import QMatrix, _gram_ritz, op_norm_est, randn_qmat
from quatpinv.solvers import (SCHEDULE_BINARY, SCHEDULE_NAIVE, SCHEDULE_PS,
                              SketchConfig, SolverConfig, auto_alpha, cgne_q,
                              eval_neumann_poly, hybrid_rsp_ns, ns_damped,
                              ns_hyperpower, penrose_residuals,
                              recurrence_deviations, rsp_column,
                              rsp_rate_bound, rsp_row)
from quatpinv.rng import QuatRNG
from rsp_helpers import (_rsp_col_step, pinv_from_qr, plain_rsp,
                         ref_col_step, rsp_rate_check, square_products)


def scalar(x: float) -> QMatrix:
    return QMatrix.from_real(np.array([[x]]))


# ---------------------------------------------------------------------------
# Penrose residuals
# ---------------------------------------------------------------------------

def test_penrose_exact_inverse():
    assert penrose_residuals(scalar(2.0), scalar(0.5)) == (0.0, 0.0, 0.0, 0.0)


def test_penrose_wrong_candidate():
    e = penrose_residuals(scalar(2.0), scalar(1.0))
    # e1 = ||XAX - X|| = 1, e2 = ||AXA - A|| = 2; projectors stay Hermitian
    assert e[0] == pytest.approx(1.0)
    assert e[1] == pytest.approx(2.0)
    assert e[2] == 0.0 and e[3] == 0.0


def test_penrose_shape_check():
    with pytest.raises(DimensionMismatch):
        penrose_residuals(randn_qmat(3, 2, 0), randn_qmat(3, 2, 0))


# ---------------------------------------------------------------------------
# Newton-Schulz
# ---------------------------------------------------------------------------

def test_ns_scalar_exact_start():
    # A = [2], alpha = 0.25: X0 = 0.5 = A+, F0 = 0, done at iteration 0
    X, rep = ns_damped(scalar(2.0), SolverConfig(alpha=0.25))
    assert rep.converged and rep.iterations == 0
    assert X.data[0, 0, 0] == pytest.approx(0.5)


def test_ns_scalar_damped_residual():
    # t0 = 0.5, gamma = 0.5: next residual g(t0) = (1-g)t0 + g t0^2 = 0.375
    X, rep = ns_damped(scalar(2.0), SolverConfig(alpha=0.125, gamma=0.5,
                                                 tol=0.0, maxit=1))
    assert rep.residual_history[0][1] == pytest.approx(0.5)
    assert rep.residual_history[1][1] == pytest.approx(0.375)


def test_auto_alpha_initial_contraction():
    for seed in range(50):
        m, n = (12, 7) if seed % 2 else (7, 12)
        A = randn_qmat(m, n, seed)
        alpha = auto_alpha(A)
        X0 = A.adjoint().scale(alpha)
        F = (QMatrix.identity(n) - X0 @ A) if m >= n \
            else (QMatrix.identity(m) - A @ X0)
        assert op_norm_est(F) < 1.0


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_ns_recurrence_exact(gamma):
    A = randn_qmat(10, 6, 0)
    devs = recurrence_deviations(A, SolverConfig(gamma=gamma), "ns", steps=10)
    assert max(d for _, d in devs) <= 1e-12


def test_ns_scaled_recurrence_exact():
    # criterion 2's instance: a scaled step maps F to F_theta^2, with
    # F_theta = (1 - theta) I + theta F
    A = randn_qmat(10, 6, 0)
    spec = solvers._probe(A, A.adjoint())
    thetas = solvers._ns_scales(spec)
    X = A.adjoint().scale(spec.alpha)
    F = solvers._deviation(A, X)
    worst, scaled = 0.0, 0
    for _ in range(10):
        theta = next(thetas)
        F_theta = QMatrix.identity(6).scale(1.0 - theta) + F.scale(theta)
        X = solvers._ns_step(F, X, theta=theta)
        F = solvers._deviation(A, X)
        worst = max(worst, (F - F_theta @ F_theta).fro_norm())
        scaled += theta != 1.0
    assert scaled >= 5 and worst <= 1e-11


@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_hyperpower_recurrence_exact(p):
    A = randn_qmat(10, 6, 0)
    devs = recurrence_deviations(A, SolverConfig(order=p), "hyperpower",
                                 steps=5)
    assert max(d for _, d in devs) <= 1e-12


def test_hyperpower_p2_matches_ns_bitwise(monkeypatch):
    # hyperpower is never scaled; with the same alpha and every theta 1,
    # ns_damped's step is the plain step bit for bit
    A = randn_qmat(9, 5, 1)
    cfg = SolverConfig(alpha=auto_alpha(A), tol=1e-12, maxit=30)
    X2, _ = ns_hyperpower(A, cfg)
    monkeypatch.setattr(solvers, "_ns_scales",
                        lambda spec: itertools.repeat(1.0))
    X1, _ = ns_damped(A, cfg)
    assert np.array_equal(X1.data, X2.data)


def test_ns_converges_to_projectors():
    A = randn_qmat(12, 7, 2)
    X, rep = ns_damped(A, SolverConfig(tol=1e-12, maxit=60))
    assert rep.converged
    P = A @ X          # range projector AA+
    Q = X @ A          # = I_n at full column rank
    assert (P @ P - P).fro_norm() <= 1e-10
    assert (Q - QMatrix.identity(7)).fro_norm() <= 1e-10


def test_ns_divergence_detector():
    A = randn_qmat(6, 4, 3)
    with pytest.raises(Divergence):
        ns_damped(A, SolverConfig(alpha=50.0, maxit=100))


def test_ns_deterministic():
    cfg = SolverConfig(maxit=20, tol=1e-10)
    X1, _ = ns_damped(randn_qmat(8, 5, 4), cfg)
    X2, _ = ns_damped(randn_qmat(8, 5, 4), cfg)
    assert np.array_equal(X1.data, X2.data)


# ---------------------------------------------------------------------------
# polynomial schedules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 4, 8, 16])
def test_schedules_agree(p):
    R = randn_qmat(6, 6, 5).scale(0.05)
    X = randn_qmat(6, 4, 6)
    Y0 = eval_neumann_poly(R, X, p, SCHEDULE_NAIVE)
    Y2 = eval_neumann_poly(R, X, p, SCHEDULE_PS)
    assert (Y0 - Y2).fro_norm() <= 1e-11 * max(Y0.fro_norm(), 1.0)
    if p & (p - 1) == 0:
        Y1 = eval_neumann_poly(R, X, p, SCHEDULE_BINARY)
        assert (Y0 - Y1).fro_norm() <= 1e-11 * max(Y0.fro_norm(), 1.0)


@pytest.mark.parametrize("p,expected", [(2, 0), (3, 1), (8, 4), (10, 4)])
def test_paterson_stockmeyer_product_count(p, expected):
    # p = 2 is one block, I + R: no R^2 is formed (hybrid_rsp_ns's order-2
    # correction once formed it every cycle and dropped it); p = 3 and 10
    # end in a block of length 1, I, which is added, not multiplied by R^a
    R = randn_qmat(5, 5, 7).scale(0.1)
    X = randn_qmat(5, 3, 8)
    assert square_products(R, X, p, SCHEDULE_PS) == expected


@pytest.mark.parametrize("p,expected", [(8, 2), (16, 3)])
def test_binary_schedule_product_count(p, expected):
    R = randn_qmat(5, 5, 7).scale(0.1)
    X = randn_qmat(5, 3, 8)
    assert square_products(R, X, p, SCHEDULE_BINARY) == expected


def test_hyperpower_residual_power_bound():
    # one order-p step maps ||F|| to at most ||F||^p (plus roundoff)
    A = randn_qmat(10, 6, 9)
    cfg = SolverConfig(order=4, tol=0.0, maxit=1)
    _, rep = ns_hyperpower(A, cfg)
    t0 = rep.residual_history[0][1]
    t1 = rep.residual_history[1][1]
    assert t1 <= t0 ** 4 + 1e-10


# ---------------------------------------------------------------------------
# in-place loops: bitwise the out-of-place loops they replaced
# ---------------------------------------------------------------------------

# The references below form every intermediate as a fresh matrix, as the
# solvers did before they wrote into buffers they own; they share only the
# unchanged driver, _solve_tall and the Nystrom preconditioner.

def _ref_deviation(A, X):
    return QMatrix.identity(A.cols) - X @ A


def _ref_neumann(R, X, p, schedule):
    if schedule == SCHEDULE_NAIVE:
        acc = term = X
        for _ in range(p - 1):
            term = R @ term
            acc = acc + term
        return acc
    if schedule == SCHEDULE_BINARY:
        Y, cur = X, R
        for j in range(int(round(math.log2(p)))):
            if j > 0:
                cur = cur @ cur
            Y = Y + cur @ Y
        return Y
    a = max(2, math.ceil(math.sqrt(p - 1)))
    powers = [QMatrix.identity(R.rows), R]
    for _ in range(2, a + 1):
        powers.append(powers[-1] @ R)
    prefix = [QMatrix.zeros(R.rows, R.rows)]
    for i in range(a):
        prefix.append(prefix[-1] + powers[i])
    S = None
    for j in range((p + a - 1) // a - 1, -1, -1):
        Bj = prefix[min(a, p - j * a)]
        S = Bj if S is None else Bj + powers[a] @ S
    return S @ X


def _ref_ns_step(R, X, order=2, schedule=SCHEDULE_NAIVE, gamma=1.0,
                 theta=1.0):
    if gamma != 1.0:
        return X + (R @ X).scale(gamma)
    if theta != 1.0:
        R_theta = QMatrix.identity(R.rows).scale(1.0 - theta) + R.scale(theta)
        return (X + R_theta @ X).scale(theta)
    return _ref_neumann(R, X, order, schedule)


def _ref_ns(A, cfg, method, scaled=False, **step_kw):
    def solve(B, Bh, spec):
        thetas = (solvers._ns_scales(spec) if scaled
                  else itertools.repeat(1.0))

        def measure(X):
            F = _ref_deviation(B, X)
            return _fro_norm(F), F

        X, F, rep = solvers._drive(
            method, Bh.scale(spec.alpha),
            lambda X, F: _ref_ns_step(F, X, theta=next(thetas), **step_kw),
            measure, cfg.tol, cfg.maxit, diverge=True)
        return X, rep, F
    return solvers._solve_tall(A, cfg, method, solve)


# the loops' one inner product, so that the references keep their bits
_frob = _dot


def _ref_cgne(A, cfg, precond=None):
    def solve(B, Bh, spec):
        BhP = Bh if precond is None else \
            solvers._NystromPrecond(B, Bh, precond).apply_right(Bh)
        # S = R M by M's fixed-factor product, copied out of its scratch
        times_M = _qops.qmatmul_right((BhP @ B).data)

        def step(state, _):
            F, R, D, W, zz = state
            S = QMatrix(times_M(R.data).copy())
            zz_new = _frob(S, R)
            if D is None:
                D, W = R, S
            else:
                D = R + D.scale(zz_new / zz)
                W = S + W.scale(zz_new / zz)
            a_k = _frob(R, W) / _frob(W, W)
            return F + D.scale(a_k), R - W.scale(a_k), D, W, zz_new

        X0 = Bh.scale(spec.alpha)
        (F, *_), _, rep = solvers._drive(
            "cgne", (QMatrix.zeros(B.cols, B.cols), _ref_deviation(B, X0),
                     None, None, None), step,
            lambda state: (_fro_norm(state[1]), None), cfg.tol,
            cfg.maxit)
        return X0 + F @ BhP, rep, None
    return solvers._solve_tall(A, cfg, "cgne", solve)


def _hp_cfg(order, schedule):
    return SolverConfig(order=order, schedule=schedule, tol=1e-10)


def _ref_hp(A, cfg):
    return _ref_ns(A, cfg, f"hyperpower-{cfg.order}", order=cfg.order,
                   schedule=cfg.schedule)


_NYS = SketchConfig(block_r=4, seed=5)
_CG_CFG = SolverConfig(tol=1e-10, maxit=40)
# case -> (solver, out-of-place reference, config)
_INPLACE = {
    "ns": (ns_damped,
           lambda A, c: _ref_ns(A, c, "ns", scaled=True, gamma=c.gamma),
           SolverConfig(tol=1e-10)),
    "ns-gamma0.7": (ns_damped, lambda A, c: _ref_ns(A, c, "ns", gamma=c.gamma),
                    SolverConfig(gamma=0.7, tol=1e-10)),
    "hyperpower-naive3": (ns_hyperpower, _ref_hp, _hp_cfg(3, SCHEDULE_NAIVE)),
    "hyperpower-binary4": (ns_hyperpower, _ref_hp,
                           _hp_cfg(4, SCHEDULE_BINARY)),
    "hyperpower-ps8": (ns_hyperpower, _ref_hp, _hp_cfg(8, SCHEDULE_PS)),
    "cgne": (cgne_q, _ref_cgne, _CG_CFG),
    "cgne-nystrom": (lambda A, c: cgne_q(A, c, precond=_NYS),
                     lambda A, c: _ref_cgne(A, c, _NYS), _CG_CFG),
}


# slab-path products of qmatmul, which draw on its workspace
@pytest.mark.parametrize("shape", [(60, 50), (50, 60), (50, 50)])
@pytest.mark.parametrize("case", sorted(_INPLACE))
def test_inplace_loops_bitwise_equal_out_of_place(case, shape):
    solve, ref, cfg = _INPLACE[case]
    A = randn_qmat(*shape, shape[0] + 2 * shape[1])
    before = A.data.tobytes()
    X, rep = solve(A, cfg)
    assert A.data.tobytes() == before
    Xr, rr = ref(A, cfg)
    assert X.data.tobytes() == Xr.data.tobytes()
    assert (rep.iterations, rep.residual_history, rep.penrose,
            rep.converged) == (rr.iterations, rr.residual_history,
                               rr.penrose, rr.converged)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("zero_x", [False, True])
def test_deviation_bitwise_equal_out_of_place(real, zero_x):
    # a zero or real X puts exact zeros into XA, where the sign of I - XA's
    # zeros shows; the diagonal covers 1 - p
    rng = np.random.default_rng(4)
    A, X = randn_qmat(60, 50, 1), randn_qmat(50, 60, 2)
    if real:
        A = QMatrix.from_real(rng.standard_normal((60, 50)))
        X = QMatrix.from_real(rng.standard_normal((50, 60)))
    if zero_x:
        X = QMatrix.zeros(50, 60)
    kept = A.data.tobytes(), X.data.tobytes()
    got = solvers._deviation(A, X)
    assert (A.data.tobytes(), X.data.tobytes()) == kept
    assert got.data.tobytes() == _ref_deviation(A, X).data.tobytes()


@pytest.mark.parametrize("schedule,p", [
    (SCHEDULE_NAIVE, 2), (SCHEDULE_NAIVE, 5), (SCHEDULE_BINARY, 2),
    (SCHEDULE_BINARY, 8), (SCHEDULE_PS, 2), (SCHEDULE_PS, 3),
    (SCHEDULE_PS, 5), (SCHEDULE_PS, 7), (SCHEDULE_PS, 8), (SCHEDULE_PS, 10),
    (SCHEDULE_PS, 17)])
def test_eval_neumann_poly_bitwise_and_arguments_kept(schedule, p):
    R = randn_qmat(50, 50, 5).scale(0.05)
    X = randn_qmat(50, 60, 6)
    kept = R.data.tobytes(), X.data.tobytes()
    got = eval_neumann_poly(R, X, p, schedule)
    assert (R.data.tobytes(), X.data.tobytes()) == kept
    assert got.data.tobytes() == _ref_neumann(R, X, p, schedule).data.tobytes()


@pytest.mark.parametrize("p", [2, 3, 8])
def test_paterson_stockmeyer_signed_zeros_bitwise(p):
    # a real R with signed zeros puts -0.0 off the diagonal and in the
    # imaginary parts: I + R is formed as 0 + R plus 1 on the diagonal,
    # which must keep I + R's zero signs
    rng = np.random.default_rng(p)
    Rd = rng.standard_normal((6, 6)) * 0.1
    Rd[rng.random((6, 6)) < 0.4] = -0.0
    R = QMatrix.from_real(Rd)
    R.data[..., 1:] = -0.0
    X = QMatrix.from_real(rng.standard_normal((6, 2)))
    got = eval_neumann_poly(R, X, p, SCHEDULE_PS)
    assert got.data.tobytes() == _ref_neumann(R, X, p, SCHEDULE_PS).data.tobytes()


@pytest.mark.parametrize("shape", [(60, 50), (50, 60)])
@pytest.mark.parametrize("kind,cfg", [
    ("ns", SolverConfig()), ("ns", SolverConfig(gamma=0.7)),
    ("hyperpower", SolverConfig(order=3)),
    ("hyperpower", SolverConfig(order=4, schedule=SCHEDULE_BINARY)),
    ("hyperpower", SolverConfig(order=8, schedule=SCHEDULE_PS))])
def test_recurrence_deviations_bitwise_equal_out_of_place(kind, cfg, shape,
                                                          monkeypatch):
    A = randn_qmat(*shape, 3)
    before = A.data.tobytes()
    got = recurrence_deviations(A, cfg, kind, steps=4)
    assert A.data.tobytes() == before
    monkeypatch.setattr(solvers, "_deviation", _ref_deviation)
    monkeypatch.setattr(solvers, "_ns_step", _ref_ns_step)
    assert got == recurrence_deviations(A, cfg, kind, steps=4)


def _lorenz_problem(N, seed):
    from quatpinv.apps.lorenz import LorenzProblem, lorenz_build
    # RK4 at N = 20 is unstable over the default T_end = 10
    X, Y, _ = lorenz_build(LorenzProblem(N=N, seed=seed,
                                         T_end=2.0 if N < 50 else 10.0))
    return X, Y


def _ref_lorenz(X, Y, tol, maxit, xk_form=False):
    """lorenz_solve_ns with every intermediate a fresh matrix: on
    Z_k = X_k [X Y] = [P_k w_k], the scaled step of _ref_ns_step with the
    deviation I - P_k, or with xk_form on the inverse X_k itself,
    X_k <- theta (2 X_k - theta X_k X X_k), w = X_k Y."""
    N = X.rows
    ynorm = max(Y.fro_norm(), 1e-300)
    Xh = X.adjoint()
    spec = solvers._probe(X, Xh)
    thetas = solvers._ns_scales(spec)
    X0 = Xh.scale(spec.alpha)

    def step(state, _):
        theta = next(thetas)
        if xk_form:
            two, sq = 2.0 * theta, theta * theta
            return state.scale(two) - ((state @ X) @ state).scale(sq)
        P = QMatrix(state.data[:, :N])
        return _ref_ns_step(QMatrix.identity(N) - P, state, theta=theta)

    def measure(state):
        w = state @ Y if xk_form else QMatrix(state.data[:, N:].copy())
        return (X @ w - Y).fro_norm() / ynorm, w

    XY = QMatrix(np.concatenate((X.data, Y.data), axis=1))
    _, w, rep = solvers._drive(
        "ns-q-square", X0 if xk_form else X0 @ XY, step, measure,
        tol, maxit, diverge=True)
    return w, rep


def test_lorenz_solve_ns_bitwise_equal_out_of_place():
    from quatpinv.apps.lorenz import lorenz_solve_ns
    X, Y = _lorenz_problem(50, 3)
    before = X.data.tobytes(), Y.data.tobytes()
    w, rep = lorenz_solve_ns(X, Y, tol=1e-6, maxit=80)
    assert (X.data.tobytes(), Y.data.tobytes()) == before
    wr, rr = _ref_lorenz(X, Y, 1e-6, 80)
    assert (w.data.tobytes(), rep.iterations, rep.residual_history) == \
        (wr.data.tobytes(), rr.iterations, rr.residual_history)


@pytest.mark.parametrize("N, seed", [(50, s) for s in range(5)]
                         + [(20, 0), (100, 0)])
def test_lorenz_solve_ns_counts_match_inverse_form(N, seed):
    # the residual recurrence takes the iterations of the X_k loop it
    # replaced (17-28 at these sizes)
    from quatpinv.apps.lorenz import lorenz_solve_ns
    X, Y = _lorenz_problem(N, seed)
    w, rep = lorenz_solve_ns(X, Y, tol=1e-6, maxit=200)
    wr, rr = _ref_lorenz(X, Y, 1e-6, 200, xk_form=True)
    assert rep.converged and rr.converged
    assert rep.iterations == rr.iterations
    for v in (w, wr):
        assert (X @ v - Y).fro_norm() / Y.fro_norm() <= 1e-6


def test_lorenz_solve_ns_step_makes_one_square_product(monkeypatch):
    # ten more steps make ten more products with an N x N left factor and
    # more than one column: R_theta Z, N x N by N x (N+1); the residual's
    # X w is a matvec
    from quatpinv.apps.lorenz import lorenz_solve_ns
    X, Y = _lorenz_problem(20, 0)
    square = []
    qmatmul = _qops.qmatmul

    def counting(a, b):
        square.append(a.shape[:2] == (20, 20) and b.shape[1] > 1)
        return qmatmul(a, b)
    monkeypatch.setattr(_qops, "qmatmul", counting)
    counts = []
    for maxit in (5, 15):
        square.clear()
        _, rep = lorenz_solve_ns(X, Y, tol=0.0, maxit=maxit)
        assert rep.iterations == maxit
        counts.append(sum(square))
    assert counts[1] - counts[0] == 10


# ---------------------------------------------------------------------------
# scaled Newton-Schulz
# ---------------------------------------------------------------------------

# (m, n, seed, bound): each bound is the measured count plus one; every
# input took 15 iterations unscaled
@pytest.mark.parametrize("m, n, seed, bound", [
    (220, 200, 1, 12), (200, 220, 1, 12), (220, 200, 2, 13),
    (200, 220, 2, 12)])
def test_ns_scaled_takes_fewer_iterations(m, n, seed, bound):
    _, rep = ns_damped(randn_qmat(m, n, seed), SolverConfig(tol=1e-8))
    assert rep.converged and rep.iterations <= bound
    assert max(rep.penrose) <= 1e-6


def test_ns_scaled_geometric_spectrum():
    # 18 iterations unscaled, 13 scaled
    A = _with_spectrum(120, np.geomspace(1.0, 1e-2, 100), 1)
    _, rep = ns_damped(A, SolverConfig(tol=1e-8))
    assert rep.converged and rep.iterations <= 14
    assert max(rep.penrose) <= 1e-6


@pytest.mark.parametrize("m, n", [(8, 6), (40, 30), (30, 40)])
@pytest.mark.parametrize("seed", [1, 2])
def test_ns_scaled_rank_deficient_returns_finite_or_raises(m, n, seed):
    # a rank-3 A: the scales come from the smallest nonzero Ritz value, and
    # the run ends at maxit with a finite X, as the unscaled run did
    A = randn_qmat(m, 3, seed) @ randn_qmat(n, 3, seed + 100).adjoint()
    try:
        X, rep = ns_damped(A, SolverConfig())
    except QuatpinvError:
        return
    assert np.isfinite(X.data).all()
    assert not rep.converged or max(rep.penrose) <= 1e-6


# the probe's adversarial spectra at 120 x 100: a clustered top, one
# outlier, a flat one, geometric ratios 1e2 and 1e4, a top gap of 1e-6
_PROBE_SPECTRA = {
    "clustered-top": np.r_[1.0 - 1e-4 * np.arange(10),
                           np.linspace(0.5, 0.05, 90)],
    "outlier": np.r_[10.0, np.linspace(1.0, 0.1, 99)],
    "flat": np.linspace(1.0, 0.9, 100),
    "geometric-1e2": np.geomspace(1.0, 1e-2, 100),
    "geometric-1e4": np.geomspace(1.0, 1e-4, 100),
    "top-gap-1e-6": np.r_[1.0, 1.0 - 1e-6, np.linspace(0.9, 0.1, 98)],
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("spectrum", sorted(_PROBE_SPECTRA))
def test_ns_probe_bound_covers_spectrum(spectrum, seed):
    # u_0 = alpha * bound must lie above X_0 A's largest eigenvalue,
    # alpha sigma_max^2, up to rounding in the two computations of
    # sigma_max^2, where the Lanczos run has converged to it
    A = _with_spectrum(120, _PROBE_SPECTRA[spectrum], seed)
    smax2 = qsvd(A).S[0] ** 2
    _, top, bound = _gram_ritz(A)
    alpha = solvers._probe(A, A.adjoint()).alpha
    assert alpha == 0.99 / top and alpha * smax2 < 2.0
    assert alpha * bound >= alpha * smax2 * (1 - 1e-12)
    _, rep = ns_damped(A, SolverConfig(tol=1e-8))
    assert rep.converged


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_ns_probe_overflow_raises_non_finite(scale):
    # A^H A overflows in the Lanczos run, where numpy's eigvalsh once
    # raised its own LinAlgError; the solvers take such an A 2^-e, so the
    # probe is called on it directly
    A = randn_qmat(30, 20, 1).scale(scale)
    for probe in (op_norm_est, solvers._probe):
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            probe(A, A.adjoint())


# ---------------------------------------------------------------------------
# extreme scales: every solve takes A 2^-e outside the exponent band
# ---------------------------------------------------------------------------

_SCALED = {
    "ns": lambda A: ns_damped(A, SolverConfig()),
    "hyperpower": lambda A: ns_hyperpower(A, SolverConfig()),
    "cgne": lambda A: cgne_q(A, SolverConfig()),
    "cgne-nystrom": lambda A: cgne_q(A, SolverConfig(), SketchConfig()),
    "rsp": lambda A: (rsp_column if A.rows >= A.cols else rsp_row)(
        A, SolverConfig(maxit=300), SketchConfig()),
    "hybrid": lambda A: hybrid_rsp_ns(A, SolverConfig(), SketchConfig()),
}


@pytest.mark.parametrize("c", [1e-300, 1e-160, 1e-100, 1e100, 1e160, 1e300])
@pytest.mark.parametrize("solver, wide", [
    pytest.param(solver, wide, id=f"{solver}-{'wide' if wide else 'tall'}")
    for solver in sorted(_SCALED) for wide in (False, True)
    if not (wide and solver == "hybrid")])  # hybrid is tall only
def test_solvers_at_extreme_scales(solver, wide, c):
    # unscaled, ns, hyperpower, rsp and hybrid returned an X 1 off at
    # 1e-300 with only converged=False, cgne raised Breakdown there, and
    # from 1e+-100 to 1e+-300 they raised; (cA)^+ = A^+ / c
    A = randn_qmat(30, 20, 1)
    A = A.adjoint() if wide else A
    ref = pinv_qsvd(A).data
    X, rep = _SCALED[solver](A.scale(c))
    assert rep.converged
    assert np.linalg.norm(X.data * c - ref) <= 1e-7 * np.linalg.norm(ref)


@pytest.mark.parametrize("shape", [(30, 20), (20, 30), (120, 100)])
@pytest.mark.parametrize("solver", ["ns", "hyperpower", "cgne"])
def test_power_of_two_scale_returns_the_scaled_x(solver, shape):
    # every step commutes with an exact scale 2^e, the float32 phase of
    # the 120 x 100 Newton-Schulz solves included: X of A 2^e is 2^-e X,
    # bit for bit, with the same iteration count, outside the exponent
    # band and inside it (2^56 and 2^-60), where a float32 Gram phase on
    # B itself overflows G or leaves P subnormal
    A = randn_qmat(*shape, 5)
    X, rep = _SCALED[solver](A)
    for e in (200, -200, 56, -60):
        Xe, rep_e = _SCALED[solver](QMatrix._of(np.ldexp(A.data, e)))
        assert np.array_equal(Xe.data, np.ldexp(X.data, -e))
        assert rep_e.iterations == rep.iterations
        assert rep_e.float32_steps == rep.float32_steps


def test_explicit_alpha_is_scaled_with_a():
    # alpha is A's: the solve of A 2^-e takes alpha 2^2e; alpha itself,
    # 2^-672 of that, leaves the solve at maxit unconverged
    A = randn_qmat(30, 20, 1)
    c = 2.0 ** 333
    alpha = 0.5 / op_norm_est(A) ** 2
    X, rep = ns_damped(A, SolverConfig(alpha=alpha, gamma=0.5))
    Xc, rep_c = ns_damped(A.scale(c),
                          SolverConfig(alpha=alpha / c ** 2, gamma=0.5))
    assert rep_c.converged and rep_c.iterations == rep.iterations
    assert np.array_equal(Xc.data * c, X.data)


@pytest.mark.parametrize("e", [-600, 600])
def test_extreme_scale_reports_the_penrose_residuals_of_a(e):
    # e1 (on X's scale) and e2 (on A's) are reported scaled back, and e3
    # and e4 do not depend on the scale; the reference is taken at scale 1
    A = randn_qmat(30, 20, 1)
    X, rep = cgne_q(QMatrix._of(np.ldexp(A.data, e)), SolverConfig(maxit=5))
    e1, e2, e3, e4 = penrose_residuals(A, QMatrix._of(np.ldexp(X.data, e)))
    want = (np.ldexp(e1, -e), np.ldexp(e2, e), e3, e4)
    for got, ref in zip(rep.penrose, want):
        assert abs(got - ref) <= 1e-6 * ref


# ---------------------------------------------------------------------------
# the Newton-Schulz family's verify, from the last deviation
# ---------------------------------------------------------------------------

def _assert_penrose_close(A, X, reported):
    # within 1e-3 relative, or an absolute rounding floor
    floor = 1e2 * np.finfo(float).eps * A.fro_norm() * X.fro_norm()
    for got, want in zip(reported, penrose_residuals(A, X)):
        assert abs(got - want) <= max(1e-3 * want, floor), (got, want)


@pytest.mark.parametrize("e", [-600, 600])
def test_penrose_residuals_at_extreme_scales(e):
    # QMatrix.fro_norm's plain sum of squares once left the float range
    # here: at 2^-600 penrose_residuals gave ns_damped's X (inf, 0.0, ...)
    # where the report read (9.8e164, 4.4e-195, ...). Each residual is the
    # scale-1 pair's, scaled as the report scales it; stopped early,
    # cgne's stand above rounding and match its report
    A = randn_qmat(30, 20, 1)
    Ae = QMatrix._of(np.ldexp(A.data, e))
    for X, rep in (ns_damped(Ae, SolverConfig()),
                   cgne_q(Ae, SolverConfig(maxit=5))):
        # fro_norm's plain sum overflows before it rescales
        with np.errstate(over="ignore"):
            got = penrose_residuals(Ae, X)
        e1, e2, e3, e4 = penrose_residuals(A, QMatrix._of(np.ldexp(X.data,
                                                                   e)))
        want = (np.ldexp(e1, -e), np.ldexp(e2, e), e3, e4)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * w
    for g, r in zip(got, rep.penrose):
        assert abs(g - r) <= 1e-6 * r


def _sketch(A):
    return SketchConfig(block_r=min(8, *A.shape))


# every solver, each with the shapes it is defined on; the sketch solvers
# run up to 60 maxit steps, since rsp takes about 200 at 30 x 20 and 5700
# at 25 x 25
_VERIFIED = {
    "ns": ns_damped,
    "ns-gamma0.7": lambda A, c: ns_damped(
        A, SolverConfig(gamma=0.7, tol=c.tol, maxit=c.maxit)),
    "hyperpower-ps8": lambda A, c: ns_hyperpower(
        A, SolverConfig(order=8, schedule=SCHEDULE_PS, tol=c.tol,
                        maxit=c.maxit)),
    "cgne": cgne_q,
    "cgne-nystrom": lambda A, c: cgne_q(A, c, _sketch(A)),
    "rsp-column": lambda A, c: rsp_column(
        A, SolverConfig(tol=c.tol, maxit=60 * c.maxit), _sketch(A)),
    "rsp-row": lambda A, c: rsp_row(
        A, SolverConfig(tol=c.tol, maxit=60 * c.maxit), _sketch(A)),
    "hybrid": lambda A, c: hybrid_rsp_ns(A, c, _sketch(A)),
}
_SHAPES = [(30, 20), (20, 30), (25, 25)]
_UNDEFINED = {"rsp-column": (20, 30), "hybrid": (20, 30),
              "rsp-row": (30, 20)}


# maxit 2 stops far from A^+, where e1 and e2 stand well above rounding
@pytest.mark.parametrize("maxit", [2, 100])
@pytest.mark.parametrize("solver, shape", [
    pytest.param(solver, shape, id=f"{solver}-shape{i}")
    for solver in sorted(_VERIFIED) for i, shape in enumerate(_SHAPES)
    if _UNDEFINED.get(solver) != shape])
def test_ns_family_penrose_from_deviation(solver, shape, maxit):
    A = randn_qmat(*shape, 50 + sum(shape))
    X, rep = _VERIFIED[solver](A, SolverConfig(tol=1e-10, maxit=maxit))
    assert rep.converged == (maxit == 100)
    _assert_penrose_close(A, X, rep.penrose)
    if shape[0] >= shape[1]:  # ||F^H - F|| is e3 of the tall A bit for bit
        assert rep.penrose[2] == penrose_residuals(A, X)[2]


def test_penrose_from_deviation_swaps_e3_and_e4_for_a_wide_a():
    # an X that is no polynomial in A^H A leaves XA and AX far from
    # Hermitian, with different residuals; a wide A is solved as B = A^H,
    # whose e4 and e3 are A's e3 and e4
    A = randn_qmat(12, 20, 40)
    Xb = randn_qmat(12, 20, 41).scale(0.01)

    def solve(B, Bh, spec):
        return Xb, solvers.SolverReport("fixed", 0), solvers._deviation(B, Xb)
    X, rep = solvers._solve_tall(A, SolverConfig(), "fixed", solve)
    e = penrose_residuals(A, X)
    assert abs(e[2] - e[3]) > 0.1 * e[2]
    _assert_penrose_close(A, X, rep.penrose)


@pytest.mark.parametrize("solver", sorted(_VERIFIED))
@pytest.mark.parametrize("entry", [(2.0, -0.5, 0.25, 1.5), None])
def test_ns_family_1x1_reports(solver, entry):
    A = randn_qmat(1, 1, 3) if entry is None else QMatrix(np.array([[entry]]))
    X, rep = _VERIFIED[solver](A, SolverConfig())
    assert rep.converged
    _assert_penrose_close(A, X, rep.penrose)


# ---------------------------------------------------------------------------
# sketch-and-project
# ---------------------------------------------------------------------------

def test_rsp_full_sketch_one_step():
    A = randn_qmat(9, 4, 10)
    cfg = SolverConfig(tol=1e-10, maxit=3)
    sk = SketchConfig(block_r=4, seed=0)
    X, rep = rsp_column(A, cfg, sk)
    assert rep.converged and rep.iterations <= 1
    assert (X @ A - QMatrix.identity(4)).fro_norm() <= 1e-9


def test_rsp_fixed_point():
    A = randn_qmat(8, 3, 11)
    Xstar = pinv_normal_eq(A)
    X1 = _rsp_col_step(A, Xstar, SketchConfig(block_r=2, seed=1), QuatRNG(1))
    assert (X1 - Xstar).fro_norm() <= 1e-10 * Xstar.fro_norm()


def test_rsp_monotone_error():
    A = randn_qmat(30, 10, 12)
    Xstar = pinv_normal_eq(A)
    sk = SketchConfig(block_r=4, seed=2)
    rng = QuatRNG(2)
    X = A.adjoint().scale(auto_alpha(A))
    prev = (X - Xstar).fro_norm()
    for _ in range(200):
        X = _rsp_col_step(A, X, sk, rng)
        cur = (X - Xstar).fro_norm()
        assert cur <= prev * (1 + 1e-12)
        prev = cur


# (n, r): sketches of at least half the columns reach the floor in < 150
# steps; the example is test_rsp_monotone_error's instance
_rsp_shapes = st.integers(4, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers((n + 1) // 2, n - 1)))


@settings(deadline=None, max_examples=8)
@given(_rsp_shapes, st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1))
@example((10, 4), 12, 2)
def test_rsp_contraction_until_floor(shape, a_seed, sketch_seed):
    # the projection step never increases the error; checked only while
    # the error stands above 1e-12 ||X*||, clear of rounding in X* itself
    n, r = shape
    A = randn_qmat(3 * n, n, a_seed)
    Xstar = pinv_normal_eq(A)
    floor = 1e-12 * Xstar.fro_norm()
    sk = SketchConfig(block_r=r, seed=sketch_seed)
    rng = QuatRNG(sketch_seed)
    X = A.adjoint().scale(auto_alpha(A))
    prev = (X - Xstar).fro_norm()
    for _ in range(200):
        X = _rsp_col_step(A, X, sk, rng)
        cur = (X - Xstar).fro_norm()
        assert cur <= prev * (1 + 1e-12)
        if cur <= floor:
            break
        prev = cur
    assert cur <= floor


def test_rsp_row_example():
    A = QMatrix.from_real(np.array([[1.0, 0.0]]))
    cfg = SolverConfig(tol=1e-10, maxit=3)
    X, rep = rsp_row(A, cfg, SketchConfig(block_r=1, test_s=2, seed=0))
    assert rep.converged
    assert (X - QMatrix.from_real(np.array([[1.0], [0.0]]))).fro_norm() <= 1e-9


def test_rsp_row_square_converges():
    # a square A is not flipped: rsp_row runs the column solve on A
    A = randn_qmat(6, 6, 2)
    X, rep = rsp_row(A, SolverConfig(tol=1e-9, maxit=5000),
                     SketchConfig(block_r=3, seed=3))
    assert rep.converged and max(rep.penrose) <= 1e-6
    Xref = pinv_normal_eq(A)
    assert (X - Xref).fro_norm() <= 1e-6 * Xref.fro_norm()


def _steps(solve, m, n, r, seeds, tol):
    """Iterations of solve summed over A = randn_qmat(m, n, s), sketch seed
    s, for s in seeds; every run must converge to a pseudoinverse."""
    total = 0
    for s in seeds:
        _, rep = solve(randn_qmat(m, n, s), SolverConfig(tol=tol, maxit=20000),
                       SketchConfig(block_r=r, seed=s))
        assert rep.converged and max(rep.penrose) <= 1e-6
        total += rep.iterations
    return total


def _rsp(A, cfg, sk):
    return (rsp_column if A.rows >= A.cols else rsp_row)(A, cfg, sk)


@pytest.mark.parametrize("m,n", [(30, 20), (20, 30)])
def test_rsp_accelerated_takes_fewer_steps(m, n):
    # the accelerated step against the plain step on the sketch benchmark's
    # shapes: about 40% fewer steps over seeds 1-3
    accelerated = _steps(_rsp, m, n, 8, (1, 2, 3), 1e-9)
    assert accelerated <= 0.8 * _steps(plain_rsp, m, n, 8, (1, 2, 3), 1e-9)


def test_rsp_accelerated_halves_a_slow_shape():
    # 60 x 40 with r = 8 (sqrt(mu / nu) about 0.04) took 1685 steps against
    # the plain step's 4596 over seeds 1-3
    accelerated = _steps(_rsp, 60, 40, 8, (1, 2, 3), 1e-10)
    assert accelerated <= 0.5 * _steps(plain_rsp, 60, 40, 8, (1, 2, 3), 1e-10)


@pytest.mark.parametrize("m,n,r", [(12, 7, 6), (12, 5, 4), (30, 10, 4),
                                   (50, 12, 10)])
def test_rsp_accelerated_leaves_fast_shapes_alone(m, n, r):
    # shapes that converge in tens of steps keep within 5% of the plain
    # step: those with sqrt(mu / nu) >= 0.2 take it
    seeds = range(1, 6)
    accelerated = _steps(_rsp, m, n, r, seeds, 1e-10)
    assert accelerated <= 1.05 * _steps(plain_rsp, m, n, r, seeds, 1e-10)


@pytest.mark.parametrize("m,n,seed", [(30, 20, 1), (60, 40, 2)])
def test_rsp_accelerated_step_is_the_y_v_recurrence(m, n, seed):
    # the step carries W = a (V - X) in place of V; on the same sketches
    # it follows y = a v + (1 - a) x, x+ = SP(y) and
    # v+ = beta v + (1 - beta) y - gamma (y - x+) to rounding (measured
    # 1.7e-15 relative over 300 steps)
    A = randn_qmat(m, n, seed)
    sk = SketchConfig(block_r=8, seed=seed)
    beta, gamma, a = solvers._accel_constants(A, 8, solvers._probe(A))[1]
    x = v = A.adjoint().scale(auto_alpha(A))
    step = solvers._accelerated(
        solvers._SketchStream(A, sk, QuatRNG(seed)), beta, gamma, a)
    state = (x.copy(), QMatrix.zeros(n, m))
    stream = solvers._SketchStream(A, sk, QuatRNG(seed))
    for _ in range(200):
        state = step(state, None)
        y = v.scale(a) + x.scale(1.0 - a)
        x_next = solvers._update(y, stream)
        v = v.scale(beta) + y.scale(1.0 - beta) - (y - x_next).scale(gamma)
        x = x_next
        assert (state[0] - x).fro_norm() <= 1e-13 * x.fro_norm()


def test_rsp_accelerated_too_aggressive_is_stopped(monkeypatch):
    # nu a tenth of its value makes the step too aggressive: without the
    # guard the residual reached 1.3e18 at 300 steps, Penrose 4.2e35
    monkeypatch.setattr(solvers, "_NU_FACTOR", 0.15)
    A = randn_qmat(60, 40, 1)
    assert solvers._accel_constants(A, 8, solvers._probe(A))[1]
    with pytest.raises((Divergence, NonFinite)):
        rsp_column(A, SolverConfig(tol=1e-9, maxit=300),
                   SketchConfig(block_r=8, seed=1))


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1e100, 1e300])
def test_rsp_extreme_scales_return_or_raise_typed(scale):
    # below about 1e-160 the probe's ||B||_F^2 underflows to 0, where
    # mu = r low / ||B||_F^2 raised ZeroDivisionError; the plain step is
    # taken there
    for solver, A in ((rsp_column, randn_qmat(30, 20, 1)),
                      (rsp_row, randn_qmat(20, 30, 1))):
        with np.errstate(all="ignore"):
            try:
                solver(QMatrix(A.data * scale),
                       SolverConfig(tol=1e-9, maxit=50),
                       SketchConfig(block_r=8, seed=1))
            except QuatpinvError:
                pass


def _qr_pinv(Y):
    """Y^+ = R^{-1} Q^H by thin QR, or None when R fails the rank test."""
    try:
        return pinv_from_qr(Y)
    except RankDeficient:
        return None


def _ridged_qr_pinv(Y):
    """(Y^H Y + ridge I)^{-1} Y^H by thin QR: the first m columns of the
    pseudoinverse of [Y; sqrt(ridge) I], or None when R fails the rank
    test."""
    m, r = Y.shape
    root = QMatrix.identity(r).scale(math.sqrt(solvers._RIDGE))
    Ydag = _qr_pinv(QMatrix(np.concatenate([Y.data, root.data])))
    return None if Ydag is None else QMatrix(Ydag.data[:, :m])


def test_rsp_gram_path_matches_qr_path():
    # the stream's Gram-route steps against QR-route steps without the
    # stream, 50 of them. On the 30 x 20 input of the sketch benchmark the
    # plain R^{-1} Q^H agrees. The 1e-10 ridge alone moves Y^+ by about
    # ridge / sigma_min(Y)^2 (1.6e-8 on a sketch of the 1e4 input), so there
    # the QR route solves the same ridged problem
    geometric = _with_spectrum(30, np.geomspace(1.0, 1e-4, 20), 5)
    sk = SketchConfig(block_r=8, seed=3)
    for A, pinv in ((randn_qmat(30, 20, 1), _qr_pinv),
                    (randn_qmat(30, 20, 1), _ridged_qr_pinv),
                    (geometric, _ridged_qr_pinv)):
        X1 = X2 = A.adjoint().scale(auto_alpha(A))
        rng, stream = QuatRNG(3), solvers._SketchStream(A, sk, QuatRNG(3))
        for _ in range(50):
            X1 = ref_col_step(A, X1, sk, rng, pinv)
            X2 = solvers._update(X2, stream)
            assert (X1 - X2).fro_norm() <= 1e-8 * X1.fro_norm()


def test_rsp_row_rejects_rank_deficient_sketches_as_rsp_column_does():
    # a rank-3 20 x 30 A has no rank-8 sketch: every Gram sketch fails its
    # Cholesky check, as every QR sketch of A^H fails the rank test. rsp_row
    # once took each through a CG fallback and ran all 2000 steps of a
    # longer run to a Penrose residual of 4.87
    A = randn_qmat(20, 3, 1) @ randn_qmat(30, 3, 101).adjoint()
    cfg, sk = SolverConfig(maxit=50), SketchConfig(block_r=8, seed=1)
    with pytest.raises(SketchFailure):
        rsp_column(A.adjoint(), cfg, sk)
    with pytest.raises(SketchFailure):
        rsp_row(A, cfg, sk)


@pytest.mark.parametrize("solver", [rsp_column, hybrid_rsp_ns])
def test_sketch_block_larger_than_n_rejected(solver):
    # hybrid once estimated alpha, ran 10 rank-deficient QR redraws and
    # raised SketchFailure here
    with pytest.raises(ValueError):
        solver(randn_qmat(12, 5, 0), SolverConfig(), SketchConfig(block_r=8))


def test_rsp_side_preconditions():
    with pytest.raises(DimensionMismatch):
        rsp_column(randn_qmat(3, 5, 0), SolverConfig(), SketchConfig(block_r=2))
    with pytest.raises(DimensionMismatch):
        rsp_row(randn_qmat(5, 3, 0), SolverConfig(), SketchConfig(block_r=2))


def test_rsp_rate_bound_and_check():
    A = randn_qmat(30, 10, 14)
    sk = SketchConfig(block_r=4, seed=4)
    bound = rsp_rate_bound(A, sk.block_r)
    assert 0.0 < bound < 1.0
    mean = rsp_rate_check(A, sk, trials=50)
    assert mean <= bound + 0.1   # loose here; acceptance pins 3*SE


@pytest.mark.parametrize("m,n,r", [(30, 10, 4), (10, 30, 4), (12, 12, 3)])
def test_rsp_rate_bound_matches_qsvd(m, n, r):
    A = randn_qmat(m, n, 14)
    smin = qsvd(A).S[-1]
    ref = 1.0 - r * float(smin) ** 2 / A.fro_norm() ** 2
    assert abs(rsp_rate_bound(A, r) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("c", [1e-300, 1e-160, 1e-100, 1e100, 1e160, 1e300])
def test_rsp_rate_bound_is_scale_free(c):
    # unscaled, sigma_min^2 and ||A||_F^2 under- or overflowed: 1e-300
    # divided by zero, 1e160 and 1e300 overflowed, 1e-160 lost digits
    A = randn_qmat(30, 20, 1)
    assert abs(rsp_rate_bound(A.scale(c), 4) - rsp_rate_bound(A, 4)) <= 1e-12


def test_rsp_rate_bound_of_a_zero_matrix_is_one():
    # a zero A is rank-deficient, sigma_min = 0; its ||A||_F^2 once
    # divided by zero
    assert rsp_rate_bound(QMatrix.zeros(3, 2), 1) == 1.0


def test_rsp_contraction_samples_of_a_zero_matrix_is_rank_deficient():
    # X0 = A^+ = 0: the ratios' denominator once divided by zero
    with pytest.raises(RankDeficient, match="zero"):
        solvers.rsp_contraction_samples(QMatrix.zeros(3, 2),
                                        SketchConfig(block_r=1), 2)


def test_rsp_rate_bound_svd_failure_is_typed(monkeypatch):
    def fail(a, compute_uv=True):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(ConvergenceFailure, match="SVD"):
        rsp_rate_bound(randn_qmat(12, 8, 1), 4)


def test_rsp_full_sketch_rate_zero():
    A = randn_qmat(12, 4, 15)
    mean = rsp_rate_check(A, SketchConfig(block_r=4, seed=5), trials=5)
    assert mean <= 1e-16


# ---------------------------------------------------------------------------
# hybrid
# ---------------------------------------------------------------------------

def test_hybrid_degenerate_matches_hyperpower():
    # T = 0 randomized steps per cycle leaves only the exact correction
    A = randn_qmat(10, 6, 16)
    cfg = SolverConfig(order=4, tol=1e-12, maxit=10)
    X1, _ = hybrid_rsp_ns(A, cfg, SketchConfig(cycle_T=0, seed=0))
    X2, _ = ns_hyperpower(A, SolverConfig(order=4, schedule=SCHEDULE_PS,
                                          tol=1e-12, maxit=10))
    assert (X1 - X2).fro_norm() <= 1e-12 * max(X2.fro_norm(), 1.0)


def test_hybrid_converges():
    A = randn_qmat(20, 8, 17)
    X, rep = hybrid_rsp_ns(A, SolverConfig(order=4, tol=1e-10, maxit=20),
                           SketchConfig(block_r=4, cycle_T=5, seed=1))
    assert rep.converged
    assert max(penrose_residuals(A, X)) <= 1e-8


# ---------------------------------------------------------------------------
# CGNE
# ---------------------------------------------------------------------------

def test_cgne_scalar():
    X, rep = cgne_q(scalar(2.0), SolverConfig(tol=1e-14, maxit=5))
    assert rep.converged
    assert X.data[0, 0, 0] == pytest.approx(0.5)


def test_cgne_one_step_orthonormal():
    Q = randn_qmat(8, 3, 18)
    from quatpinv.factor import thin_qr
    Q = thin_qr(Q).Q
    X, rep = cgne_q(Q, SolverConfig(tol=1e-13, maxit=5))
    assert rep.iterations == 1
    assert (X - Q.adjoint()).fro_norm() <= 1e-12


def test_cgne_strictly_decreasing():
    A = randn_qmat(12, 7, 19)
    _, rep = cgne_q(A, SolverConfig(tol=1e-12, maxit=100))
    res = [r for _, r in rep.residual_history]
    assert all(b < a for a, b in zip(res, res[1:]))
    assert rep.converged


def test_cgne_wide_case():
    A = randn_qmat(5, 9, 20)
    X, rep = cgne_q(A, SolverConfig(tol=1e-12, maxit=100))
    assert rep.converged
    assert (A @ X - QMatrix.identity(5)).fro_norm() <= 1e-10


def test_cgne_preconditioned():
    A = randn_qmat(20, 8, 21)
    X, rep = cgne_q(A, SolverConfig(tol=1e-10, maxit=200),
                    precond=SketchConfig(block_r=6, seed=2))
    assert rep.converged
    Xref = pinv_normal_eq(A)
    assert (X - Xref).fro_norm() <= 1e-6 * Xref.fro_norm()


def _with_spectrum(m, s, seed):
    """A = U diag(s) V^H, m x len(s), with orthonormal U and unitary V."""
    U = thin_qr(randn_qmat(m, len(s), seed)).Q
    V = thin_qr(randn_qmat(len(s), len(s), seed + 1)).Q
    return QMatrix(U.data * np.asarray(s)[:, None]) @ V.adjoint()


def test_cgne_nystrom_halves_iterations_on_decaying_spectrum():
    # the (Y Y^H)^+ + theta I form took 151 iterations here, more than none
    A = _with_spectrum(70, np.geomspace(1.0, 1e-2, 50), 1)
    cfg = SolverConfig(tol=1e-8, maxit=1000)
    _, plain = cgne_q(A, cfg)
    X, pre = cgne_q(A, cfg, precond=SketchConfig(block_r=32, seed=0))
    assert plain.converged and pre.converged
    assert 2 * pre.iterations <= plain.iterations
    assert max(pre.penrose) <= 1e-6


def _never(*args, **kwargs):
    raise AssertionError("iterated")


@pytest.mark.parametrize("shape", [(20, 12), (12, 20)])
@pytest.mark.parametrize("case", ["rank3", "eigenvalue-gap"])
def test_cgne_nystrom_rejects_rank_below_block_r(shape, case, monkeypatch):
    # a rank-3 G H^H once ran all 100 iterations to Penrose residuals of
    # about 1e16; the full-rank input with sigma 1 (x3) and 3e-6 passes
    # thin_qr but its Nystrom l_r / l_1 is 9e-12
    m, n = shape
    if case == "rank3":
        A = randn_qmat(m, 3, 1) @ randn_qmat(n, 3, 2).adjoint()
    else:
        A = _with_spectrum(20, [1.0] * 3 + [3e-6] * 9, 1)
        A = A if m > n else A.adjoint()
    monkeypatch.setattr(solvers, "_drive", _never)
    guard = {"rank3": "R diagonal", "eigenvalue-gap": "Nystrom l_r"}[case]
    with pytest.raises(RankDeficient, match=guard):
        cgne_q(A, SolverConfig(), precond=SketchConfig(block_r=6, seed=2))


def test_cgne_nystrom_apply_makes_no_solve(monkeypatch):
    # the (Y Y^H)^+ + theta I apply ran two checked Cholesky solves per
    # iteration; now the set-up makes the only one, on LAPACK, with no
    # quaternion triangular solve
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper
    monkeypatch.setattr(factor, "_checked_chol_solve",
                        counted("solve", factor._checked_chol_solve))
    monkeypatch.setattr(factor, "solve_upper_triangular",
                        counted("upper", factor.solve_upper_triangular))
    for A in (randn_qmat(20, 8, 21), randn_qmat(8, 20, 21)):
        calls.clear()
        _, rep = cgne_q(A, SolverConfig(tol=1e-10, maxit=40),
                        precond=SketchConfig(block_r=6, seed=2))
        assert rep.iterations > 1
        assert calls == ["solve"]


def test_cgne_nystrom_factors_its_gram_once(monkeypatch):
    # the set-up's Cholesky of Omega^H Y_nu is the call's only one
    calls = []
    cholesky = factor._cholesky

    def counting(Gd):
        calls.append(Gd.shape)
        return cholesky(Gd)
    monkeypatch.setattr(factor, "_cholesky", counting)
    for A in (randn_qmat(20, 8, 21), randn_qmat(8, 20, 21)):
        calls.clear()
        _, rep = cgne_q(A, SolverConfig(tol=1e-10, maxit=40),
                        precond=SketchConfig(block_r=6, seed=2))
        assert rep.iterations > 1
        assert calls == [(6, 6, 4)]


def _ref_cgne_xspace(A, cfg, precond=None):
    """CGNE on X itself, as cgne_q ran before its Gram coordinates: two
    n x m products a step, and two more for the preconditioner."""
    def solve(B, Bh, spec):
        X0 = Bh.scale(spec.alpha)
        M = None if precond is None else solvers._NystromPrecond(B, Bh, precond)

        def step(state, _):
            X, R, D, zz = state
            Z = R @ Bh
            Zt = M.apply_right(Z) if M else Z
            zz_new = _frob(Zt, Z)
            D = Zt if D is None else Zt + D.scale(zz_new / zz)
            W = D @ B
            a_k = _frob(R, W) / _frob(W, W)
            return X + D.scale(a_k), R - W.scale(a_k), D, zz_new

        (X, *_), _, rep = solvers._drive(
            "cgne", (X0, _ref_deviation(B, X0), None, None), step,
            lambda state: (_fro_norm(state[1]), None), cfg.tol,
            cfg.maxit)
        return X, rep, None
    return solvers._solve_tall(A, cfg, "cgne", solve)


_GRAM_CASES = {
    "tall": lambda: randn_qmat(30, 20, 31),
    "wide": lambda: randn_qmat(20, 30, 32),
    "square": lambda: randn_qmat(20, 20, 33),
    "geometric": lambda: _with_spectrum(40, np.geomspace(1.0, 1e-2, 30), 34),
}


@pytest.mark.parametrize("precond", [None, SketchConfig(block_r=6, seed=2)],
                         ids=["plain", "nystrom"])
@pytest.mark.parametrize("case", sorted(_GRAM_CASES))
def test_cgne_gram_matches_xspace_reference(case, precond):
    # the same iterates in exact arithmetic; rounding moves the count by a
    # few steps at most
    A = _GRAM_CASES[case]()
    cfg = SolverConfig(tol=1e-10, maxit=2000)
    X, rep = cgne_q(A, cfg, precond=precond)
    Xr, ref = _ref_cgne_xspace(A, cfg, precond)
    assert rep.converged and ref.converged
    assert abs(rep.iterations - ref.iterations) <= 3
    assert (X - Xr).fro_norm() <= 1e-8 * Xr.fro_norm()
    assert max(rep.penrose) <= 1e-8 and max(ref.penrose) <= 1e-8


@pytest.mark.parametrize("precond", [None, SketchConfig(block_r=6, seed=2)],
                         ids=["plain", "nystrom"])
@pytest.mark.parametrize("shape", [(30, 20), (20, 30), (70, 60)])
def test_cgne_step_makes_one_product(shape, precond, monkeypatch):
    # ten more steps make ten more quaternion products, with or without the
    # preconditioner: S = R M, n x n, each by M's fixed-factor product. A
    # 20 x 20 M's runs on M's slabs, a 60 x 60 M's in the 8-product form on
    # M's combinations, each formed once, and neither makes a qmatmul call
    calls, steps = [], []
    qmatmul, qmatmul_right = _qops.qmatmul, _qops.qmatmul_right

    def counting(a, b):
        calls.append(a.shape)
        return qmatmul(a, b)

    def right(y):
        product = qmatmul_right(y)

        def counted(x):
            steps.append(x.shape)
            return product(x)
        return counted
    monkeypatch.setattr(_qops, "qmatmul", counting)
    monkeypatch.setattr(_qops, "qmatmul_right", right)
    A = randn_qmat(*shape, 35)
    counts = []
    for maxit in (5, 15):
        calls.clear()
        steps.clear()
        _, rep = cgne_q(A, SolverConfig(tol=0.0, maxit=maxit),
                        precond=precond)
        assert rep.iterations == maxit
        counts.append((len(calls), len(steps)))
    assert counts[1][1] - counts[0][1] == 10
    assert counts[1][0] - counts[0][0] == 0


# ---------------------------------------------------------------------------
# wide inputs
# ---------------------------------------------------------------------------

_SK_W = SketchConfig(block_r=4, seed=3)
_SK_ROW = SketchConfig(block_r=6, seed=3)
_WIDE = {
    "ns_damped": ns_damped,
    "ns_hyperpower": lambda A, c: ns_hyperpower(
        A, SolverConfig(alpha=c.alpha, order=8, schedule=SCHEDULE_PS,
                        tol=c.tol, maxit=c.maxit)),
    "cgne_q": cgne_q,
    "cgne_q_nystrom": lambda A, c: cgne_q(A, c, precond=_SK_W),
    "rsp_row": lambda A, c: rsp_row(A, c, _SK_ROW),
}
# the tall solve a wide solve adjoints, where it is not the solver itself:
# rsp_row is the column sketch-and-project of A^H
_TALL = {
    "rsp_row": lambda A, c: solvers._sketch_solve(A, c, _SK_ROW, "rsp-row"),
}


@pytest.mark.parametrize("solver", sorted(_WIDE))
def test_wide_solve_is_adjoint_of_tall_solve(solver):
    # (A^H)^+ = (A^+)^H: a wide A is solved as its tall adjoint, bit for bit
    A = randn_qmat(7, 12, 22)
    cfg = SolverConfig(alpha=auto_alpha(A), tol=1e-10, maxit=60)
    X, rep = _WIDE[solver](A, cfg)
    Xt, tall = _TALL.get(solver, _WIDE[solver])(A.adjoint(), cfg)
    assert np.array_equal(X.data, Xt.adjoint().data)
    assert rep.residual_history == tall.residual_history
    assert rep.iterations == tall.iterations > 0 and rep.converged
    assert max(rep.penrose) <= 1e-8
    # every solver takes alpha from the probe of the tall one, which runs
    # on A A^H, as auto_alpha(A) does
    X0, _ = _WIDE[solver](A, SolverConfig(maxit=0))
    assert np.array_equal(X0.data, A.adjoint().scale(auto_alpha(A)).data)


_SK_PROBE = SketchConfig(block_r=4, seed=3)
_ONE_PROBE = {
    "ns": ns_damped,
    "ns-gamma0.5": lambda A, c: ns_damped(A, SolverConfig(gamma=0.5,
                                                          maxit=c.maxit)),
    "hyperpower": lambda A, c: ns_hyperpower(A, SolverConfig(order=3,
                                                             maxit=c.maxit)),
    "cgne": cgne_q,
    "cgne-nystrom": lambda A, c: cgne_q(A, c, precond=_SK_PROBE),
    "rsp_column": lambda A, c: rsp_column(A, c, _SK_PROBE),
    "rsp_row": lambda A, c: rsp_row(A, c, _SK_PROBE),
    "hybrid": lambda A, c: hybrid_rsp_ns(A, c, _SK_PROBE),
}


def _probe_shapes(monkeypatch):
    """The shapes of the matrices solvers._gram_ritz runs on, from here on."""
    calls = []

    def counting(*args):
        calls.append(args[0].shape)
        return _gram_ritz(*args)
    monkeypatch.setattr(solvers, "_gram_ritz", counting)
    return calls


@pytest.mark.parametrize("solver, shape", [
    pytest.param(s, (m, n), id=f"{s}-{m}x{n}")
    for s in sorted(_ONE_PROBE) for m, n in ((14, 9), (9, 14))
    if (s not in ("rsp_column", "hybrid") or m >= n)
    and (s != "rsp_row" or m <= n)])
def test_one_spectral_probe_per_solve(solver, shape, monkeypatch):
    # alpha and every spectral bound a solve uses come from one Lanczos
    # run, whatever the solver and on either side of the flip to the tall B
    calls = _probe_shapes(monkeypatch)
    _, rep = _ONE_PROBE[solver](randn_qmat(*shape, 5), SolverConfig(maxit=6))
    assert rep.iterations > 0
    assert calls == [(max(shape), min(shape))]


def test_lorenz_solve_ns_runs_one_probe(monkeypatch):
    from quatpinv.apps.lorenz import lorenz_solve_ns
    X, Y = _lorenz_problem(50, 0)
    calls = _probe_shapes(monkeypatch)
    lorenz_solve_ns(X, Y)
    assert calls == [(50, 50)]


def test_cgne_breakdown():
    # A = e1 e1^T is rank-deficient; with alpha = 1, X0 = A^H leaves the
    # residual I - X0 A = e2 e2^T, whose image R A^H is exactly zero, so the
    # first search direction vanishes before convergence
    A = QMatrix.zeros(3, 2)
    A.data[0, 0, 0] = 1.0
    with pytest.raises(Breakdown):
        cgne_q(A, SolverConfig(alpha=1.0, maxit=5))


@pytest.mark.parametrize("shape", [(30, 20), (20, 30), (1, 1)])
@pytest.mark.parametrize("solver", [ns_damped, ns_hyperpower, cgne_q,
                                    rsp_column, rsp_row, hybrid_rsp_ns])
def test_zero_matrix_returns_zero_at_once(solver, shape):
    # rsp_row once ran all 5000 steps on a zero 20x30 and reported no
    # convergence; rsp_column and hybrid_rsp_ns raised SketchFailure
    m, n = shape
    args = ()
    if solver in (rsp_column, rsp_row, hybrid_rsp_ns):
        args = (SketchConfig(block_r=1),)
        if (m < n) != (solver is rsp_row) and m != n:
            with pytest.raises(DimensionMismatch):
                solver(QMatrix.zeros(m, n), SolverConfig(), *args)
            return
    X, rep = solver(QMatrix.zeros(m, n), SolverConfig(maxit=5000), *args)
    assert X.shape == (n, m) and not X.data.any()
    assert rep.iterations == 0 and rep.converged
    assert rep.residual_history == []
    assert rep.penrose == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# non-finite inputs
# ---------------------------------------------------------------------------

_SK_NF = SketchConfig(block_r=3, seed=1)
_FINITE_ONLY = {
    "ns_damped": lambda A: ns_damped(A, SolverConfig()),
    "ns_hyperpower": lambda A: ns_hyperpower(A, SolverConfig(order=3)),
    "cgne_q": lambda A: cgne_q(A, SolverConfig(), precond=_SK_NF),
    "rsp_column": lambda A: rsp_column(A, SolverConfig(), _SK_NF),
    "rsp_row": lambda A: rsp_row(A.adjoint(), SolverConfig(), _SK_NF),
    "hybrid_rsp_ns": lambda A: hybrid_rsp_ns(A, SolverConfig(), _SK_NF),
    "pinv_normal_eq_tall": pinv_normal_eq,
    "pinv_normal_eq_wide": lambda A: pinv_normal_eq(A.adjoint()),
    "pinv_qsvd": pinv_qsvd,
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("solver", sorted(_FINITE_ONLY))
def test_solver_rejects_non_finite(solver, bad):
    # a 12x8 input (8x12 for rsp_row) with one bad entry once ran to maxit,
    # returned NaN residuals or raised SketchFailure, depending on the
    # solver; the oracles raised Indefinite or ConvergenceFailure
    A = randn_qmat(12, 8, 3)
    A.data[5, 2, 1] = bad
    with pytest.raises(NonFinite):
        _FINITE_ONLY[solver](A)


# the step at which each instance's residual turns non-finite
_NAN_STEP = {(8, 6, 1): 41, (40, 30, 2): 40}


@pytest.mark.parametrize("m, n, seed", sorted(_NAN_STEP))
def test_hyperpower_rank_deficient_nan_residual_raises(m, n, seed):
    # on a rank-3 A the order-8 residual overflows and turns non-finite at
    # k = 40 or 41; the loop once ran on to maxit 100, since NaN >= 10 r0 is
    # false and reset the divergence guard, and returned a non-finite X
    A = randn_qmat(m, 3, seed) @ randn_qmat(n, 3, seed + 100).adjoint()
    cfg = SolverConfig(order=8, schedule=SCHEDULE_PS)
    k = _NAN_STEP[m, n, seed]
    with np.errstate(all="ignore"), \
            pytest.raises(NonFinite, match=f"at iteration {k}$"):
        ns_hyperpower(A, cfg)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=0.0)
    # alpha nan or inf once ran to maxit and returned a NaN X; alpha 0
    # returned X = 0; a string failed only at solve time
    for alpha in (math.nan, math.inf, -math.inf, 0.0, -1.0, "bogus"):
        with pytest.raises(ValueError):
            SolverConfig(alpha=alpha)
    with pytest.raises(ValueError):
        SolverConfig(order=1)
    with pytest.raises(ValueError):
        SolverConfig(schedule="bogus")
    with pytest.raises(ValueError):
        SketchConfig(block_r=0)
    with pytest.raises(ValueError):
        SketchConfig(cycle_T=-1)
    # a non-integral count once passed here and raised an untyped
    # TypeError inside the solve; numpy's integers are counts too
    for bad in ({"order": 2.5}, {"maxit": 3.5}, {"order": 3.0}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    for bad in ({"block_r": 2.5}, {"test_s": 1.5}, {"cycle_T": 1.5}):
        with pytest.raises(ValueError):
            SketchConfig(**bad)
    cfg = SolverConfig(order=np.int64(3), maxit=np.int32(40), tol=1e-10)
    assert ns_hyperpower(randn_qmat(9, 5, 1), cfg)[1].converged
    sk = SketchConfig(block_r=np.int64(3), test_s=np.int32(2),
                      cycle_T=np.int16(2), seed=1)
    assert hybrid_rsp_ns(randn_qmat(12, 5, 4), SolverConfig(maxit=3),
                         sk)[1].iterations > 0
    # tol nan once ran ns_damped to maxit and reported converged=False for
    # an X with Penrose residuals 5.8e-15; tol 0 stays valid
    for tol in (math.nan, math.inf, -math.inf, -1e-8):
        with pytest.raises(ValueError):
            SolverConfig(tol=tol)
    assert SolverConfig(tol=0.0).tol == 0.0


def test_inner_product_of_float32_accumulates_in_float64():
    # 4096 in the first 2^14 entries, then 2^14 values in [1, 1.5), then
    # -4096: a float32 running sum, at 2^26, adds each middle value as a
    # multiple of 8, while every product and partial sum is exact in
    # float64
    n = 1 << 14
    mid = 1.0 + 0.5 * np.random.default_rng(0).random(n)
    x = np.concatenate([np.full(n, 4096.0), mid,
                        np.full(n, -4096.0)]).astype(np.float32)
    y = np.ones_like(x)
    exact = float(np.dot(x.astype(np.float64), y.astype(np.float64)))
    running32 = float(np.cumsum(x * y, dtype=np.float32)[-1])
    assert abs(running32 - exact) > 1e-4 * exact
    X, Y = (QMatrix._of(v.reshape(-1, 1, 4)) for v in (x, y))
    assert _dot(X, Y) == exact
    assert _fro_norm(Y) == math.sqrt(3 * n)


def test_config_rejects_negative_maxit():
    with pytest.raises(ValueError):
        SolverConfig(maxit=-1)


# ---------------------------------------------------------------------------
# report invariants shared through the iteration driver
# ---------------------------------------------------------------------------

def _lorenz(tol, maxit):
    from quatpinv.apps.lorenz import LorenzProblem, lorenz_build, lorenz_solve_ns
    X, Y, _ = lorenz_build(LorenzProblem(N=12, T_end=2.0))
    return lorenz_solve_ns(X, Y, tol=tol, maxit=maxit)


_SK = SketchConfig(block_r=3, test_s=3, cycle_T=2, seed=1)
_CALLERS = {
    "ns": lambda c: ns_damped(randn_qmat(12, 7, 2), c),
    "hyperpower": lambda c: ns_hyperpower(
        randn_qmat(7, 12, 2), SolverConfig(order=3, tol=c.tol, maxit=c.maxit)),
    "rsp_column": lambda c: rsp_column(randn_qmat(12, 5, 3), c, _SK),
    "rsp_row": lambda c: rsp_row(randn_qmat(5, 12, 3), c, _SK),
    "hybrid": lambda c: hybrid_rsp_ns(randn_qmat(12, 5, 4), c, _SK),
    "cgne": lambda c: cgne_q(randn_qmat(12, 7, 5), c),
    "cgne_nystrom": lambda c: cgne_q(randn_qmat(7, 12, 5), c, precond=_SK),
    "lorenz_solve_ns": lambda c: _lorenz(c.tol, c.maxit),
}


@pytest.mark.parametrize("caller", sorted(_CALLERS))
@pytest.mark.parametrize("maxit", [0, 400])
def test_every_entry_point_sets_wall_time(caller, maxit):
    # _drive keeps no clock: _solve_tall and lorenz_solve_ns time the call
    t0 = time.perf_counter()
    _, rep = _CALLERS[caller](SolverConfig(tol=1e-8, maxit=maxit))
    span = time.perf_counter() - t0
    assert 0.0 < rep.wall_time <= span


@pytest.mark.parametrize("caller", sorted(_CALLERS))
@pytest.mark.parametrize("tol,maxit", [(1e-8, 400), (0.0, 3), (1e-8, 0)])
def test_report_invariants(caller, tol, maxit):
    _, rep = _CALLERS[caller](SolverConfig(tol=tol, maxit=maxit))
    assert len(rep.residual_history) == rep.iterations + 1
    assert [k for k, _ in rep.residual_history] == list(range(rep.iterations + 1))
    assert rep.iterations <= maxit
    assert rep.converged == (rep.final_residual <= tol)
    if not rep.converged:
        assert rep.iterations == maxit
