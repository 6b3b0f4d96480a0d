"""Iterative pseudoinverse solvers and convergence instrumentation.

Five solver families live here:

* damped Newton-Schulz (order 2, damping gamma in (0, 1]),
* order-p hyperpower updates with three polynomial schedules,
* randomized sketch-and-project (column and row variants),
* a hybrid that interleaves sketch-and-project steps with one exact
  hyperpower correction,
* conjugate gradient on the normal equations in matrix form.

Tall inputs (m >= n) drive the right deviation F = I - XA toward zero;
wide inputs drive the left deviation E = I - AX. All solvers start from
X0 = alpha * A^H with alpha strictly inside (0, 2/||A||_2^2), except the
row sketch-and-project variant which starts from zero. Every solver, and
the square Newton-Schulz loops of the Lorenz and deblurring apps, runs the
one stopping loop in ``_drive``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (Breakdown, DimensionMismatch, Divergence, Indefinite,
                     InvalidOrder, NonFinite, RankDeficient, SketchFailure)
from .factor import hpd_factor, hpd_solve, pinv_from_qr, pinv_normal_eq
from .qmatrix import QMatrix, op_norm_est, randn_qmat_rng
from .rng import QuatRNG

SCHEDULE_NAIVE = "naive"
SCHEDULE_BINARY = "binary-pow2"
SCHEDULE_PS = "paterson-stockmeyer"
SCHEDULES = (SCHEDULE_NAIVE, SCHEDULE_BINARY, SCHEDULE_PS)

SIDE_AUTO = "auto"
SIDE_RIGHT = "right"  # tall/column branch, deviation F = I - XA
SIDE_LEFT = "left"    # wide/row branch, deviation E = I - AX

_DIVERGE_FACTOR = 10.0
_DIVERGE_RUN = 5


@dataclass
class SolverConfig:
    alpha: float | str = "auto"
    gamma: float = 1.0
    order: int = 2
    schedule: str = SCHEDULE_NAIVE
    tol: float = 1e-8
    maxit: int = 100
    side: str = SIDE_AUTO

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if self.order < 2:
            raise ValueError("order must be >= 2")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.side not in (SIDE_AUTO, SIDE_RIGHT, SIDE_LEFT):
            raise ValueError(f"unknown side {self.side!r}")
        if self.maxit < 0:
            raise ValueError("maxit must be >= 0")


@dataclass
class SketchConfig:
    block_r: int = 8
    test_s: int = 5
    cycle_T: int = 5
    seed: int = 0
    relaxation: float = 1.0
    gram_path: bool = False  # False: thin QR for Y^dagger; True: SPD Gram solve

    def __post_init__(self):
        if self.block_r < 1 or self.test_s < 1:
            raise ValueError("block_r and test_s must be >= 1")
        if not (0.0 < self.relaxation < 2.0):
            raise ValueError("relaxation must lie in (0, 2)")


@dataclass
class SolverReport:
    method: str
    iterations: int
    residual_history: list = field(default_factory=list)
    wall_time: float = 0.0
    penrose: tuple = (0.0, 0.0, 0.0, 0.0)
    converged: bool = False

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1][1] if self.residual_history else float("nan")

    def csv_row(self, m: int, n: int, seed: int) -> str:
        e1, e2, e3, e4 = self.penrose
        return (f"{self.method},{m},{n},{seed},{self.iterations},"
                f"{self.wall_time:.6f},{e1:.17g},{e2:.17g},{e3:.17g},"
                f"{e4:.17g},{self.final_residual:.17g}")


class ProductCounter:
    """Counts s x s deviation-power products inside the polynomial schedules."""

    def __init__(self):
        self.s_products = 0


def penrose_residuals(A: QMatrix, X: QMatrix):
    """Frobenius residuals (e1, e2, e3, e4) of the four Penrose equations."""
    if X.shape != (A.cols, A.rows):
        raise DimensionMismatch(
            f"X must be {A.cols}x{A.rows} for A {A.rows}x{A.cols}")
    XA = X @ A
    AX = A @ X
    e1 = (XA @ X - X).fro_norm()
    e2 = (AX @ A - A).fro_norm()
    e3 = (XA.adjoint() - XA).fro_norm()
    e4 = (AX.adjoint() - AX).fro_norm()
    return (e1, e2, e3, e4)


def auto_alpha(A: QMatrix, power_iters: int = 20, seed: int = 0) -> float:
    """alpha = 0.99 / est(||A||_2)^2, kept strictly inside (0, 2/||A||_2^2)."""
    est = op_norm_est(A, iters=power_iters, seed=seed)
    if est == 0.0:
        return 1.0
    return 0.99 / (est * est)


def _require_finite(A: QMatrix) -> None:
    if not np.all(np.isfinite(A.data)):
        raise NonFinite("A has a NaN or infinite entry")


def _resolve(A: QMatrix, cfg: SolverConfig):
    side = cfg.side
    if side == SIDE_AUTO:
        side = SIDE_RIGHT if A.rows >= A.cols else SIDE_LEFT
    alpha = auto_alpha(A) if cfg.alpha == "auto" else float(cfg.alpha)
    return side, alpha


def _deviation(A: QMatrix, X: QMatrix, side: str) -> QMatrix:
    if side == SIDE_RIGHT:
        return QMatrix.identity(A.cols) - X @ A
    return QMatrix.identity(A.rows) - A @ X


def _drive(method: str, state, step, measure, tol: float, maxit: int,
           diverge: bool = False, t0: float | None = None):
    """The stopping loop shared by every solver.

    Before each step k = 0..maxit, measure(state) returns (residual, aux);
    the run stops at the first residual <= tol or after maxit steps, and
    otherwise step(state, aux) returns the next state. With diverge, a
    residual >= 10x the initial one for 5 consecutive measures raises
    Divergence. wall_time runs from t0 (default: entry), so a caller can
    time its own setup. Returns (state, last aux, SolverReport) with the
    Penrose residuals left at zero for the caller to fill in.
    """
    if t0 is None:
        t0 = time.perf_counter()
    if maxit < 0:
        raise ValueError("maxit must be >= 0")
    history = []
    run = 0
    for k in range(maxit + 1):
        res, aux = measure(state)
        history.append((k, res))
        if diverge and k > 0 and \
                res >= _DIVERGE_FACTOR * max(history[0][1], 1e-300):
            run += 1
            if run >= _DIVERGE_RUN:
                raise Divergence(
                    "residual grew >= 10x initial for 5 consecutive iterations")
        else:
            run = 0
        if res <= tol or k == maxit:
            break
        state = step(state, aux)
    wall = time.perf_counter() - t0
    return state, aux, SolverReport(method, k, history, wall,
                                    converged=bool(res <= tol))


def _verified(A: QMatrix, X: QMatrix, report: SolverReport):
    report.penrose = penrose_residuals(A, X)
    return X, report


def eval_neumann_poly(R: QMatrix, X: QMatrix, p: int, schedule: str,
                      side: str = SIDE_RIGHT,
                      counter: ProductCounter | None = None) -> QMatrix:
    """Apply the truncated Neumann polynomial sum_{i<p} R^i to X.

    side "right" returns (sum R^i) X, side "left" returns X (sum R^i).
    The binary schedule is valid only for p = 2^q and applies the product
    factorization prod_j (I + R^{2^j}) factor by factor.
    """
    if p < 2:
        raise InvalidOrder("p must be >= 2")
    right = side == SIDE_RIGHT

    def apply(M, Y):
        return M @ Y if right else Y @ M

    if schedule == SCHEDULE_NAIVE:
        acc = X
        term = X
        for _ in range(p - 1):
            term = apply(R, term)
            acc = acc + term
        return acc

    if schedule == SCHEDULE_BINARY:
        q = int(round(math.log2(p)))
        if 2 ** q != p:
            raise InvalidOrder(f"binary schedule needs p = 2^q, got {p}")
        Y = X
        cur = R
        for j in range(q):
            if j > 0:
                cur = cur @ cur
                if counter is not None:
                    counter.s_products += 1
            Y = Y + apply(cur, Y)
        return Y

    if schedule == SCHEDULE_PS:
        a = max(2, math.ceil(math.sqrt(p - 1)))
        powers = [QMatrix.identity(R.rows), R]
        for _ in range(2, a + 1):
            powers.append(powers[-1] @ R)
            if counter is not None:
                counter.s_products += 1
        prefix = [QMatrix.zeros(R.rows, R.rows)]
        for i in range(a):
            prefix.append(prefix[-1] + powers[i])
        nblocks = (p + a - 1) // a
        S = None
        for j in range(nblocks - 1, -1, -1):
            blen = min(a, p - j * a)
            Bj = prefix[blen]
            if S is None:
                S = Bj
            else:
                S = Bj + powers[a] @ S
                if counter is not None:
                    counter.s_products += 1
        return apply(S, X)

    raise InvalidOrder(f"unknown schedule {schedule!r}")


def _ns_step(R: QMatrix, X: QMatrix, side: str, order: int = 2,
             schedule: str = SCHEDULE_NAIVE, gamma: float = 1.0,
             counter: ProductCounter | None = None) -> QMatrix:
    """One Newton-Schulz / hyperpower update of X given its deviation R.

    gamma < 1 is the damped order-2 step X + gamma*R X (tall) or
    X + gamma*X R (wide); otherwise the order-p Neumann polynomial is
    applied under the given schedule.
    """
    if gamma != 1.0:
        return X + (R @ X if side == SIDE_RIGHT else X @ R).scale(gamma)
    return eval_neumann_poly(R, X, order, schedule, side, counter)


def recurrence_deviations(A: QMatrix, cfg: SolverConfig, kind: str = "ns",
                          steps: int = 10):
    """Per-iteration deviation between the measured deviation matrix and
    its closed one-step recurrence.

    kind "ns" checks F_{k+1} = (1-gamma) F_k + gamma F_k^2 under the damped
    update; kind "hyperpower" checks R_{k+1} = R_k^p under the order-p
    update. Returns [(k, ||measured - predicted||_F), ...] for k = 1..steps.
    """
    if kind not in ("ns", "hyperpower"):
        raise ValueError(f"unknown kind {kind!r}")
    side, alpha = _resolve(A, cfg)
    X = A.adjoint().scale(alpha)
    R = _deviation(A, X, side)
    out = []
    for k in range(1, steps + 1):
        if kind == "ns":
            X = _ns_step(R, X, side, gamma=cfg.gamma)
            pred = R.scale(1.0 - cfg.gamma) + (R @ R).scale(cfg.gamma)
        else:
            X = _ns_step(R, X, side, cfg.order, cfg.schedule)
            pred = R
            for _ in range(cfg.order - 1):
                pred = pred @ R
        R = _deviation(A, X, side)
        out.append((k, (R - pred).fro_norm()))
    return out


# ---------------------------------------------------------------------------
# Newton-Schulz family
# ---------------------------------------------------------------------------

def _ns_solve(A: QMatrix, cfg: SolverConfig, method: str, **step_kw):
    _require_finite(A)
    side, alpha = _resolve(A, cfg)
    t0 = time.perf_counter()

    def measure(X):
        R = _deviation(A, X, side)
        return R.fro_norm(), R

    X, _, rep = _drive(method, A.adjoint().scale(alpha),
                       lambda X, R: _ns_step(R, X, side, **step_kw), measure,
                       cfg.tol, cfg.maxit, diverge=True, t0=t0)
    return _verified(A, X, rep)


def ns_damped(A: QMatrix, cfg: SolverConfig):
    """Damped Newton-Schulz: X <- X + gamma*F*X (tall) / X + gamma*X*E (wide)."""
    return _ns_solve(A, cfg, "ns", gamma=cfg.gamma)


def ns_hyperpower(A: QMatrix, cfg: SolverConfig,
                  counter: ProductCounter | None = None):
    """Order-p hyperpower updates; residual recurrence R_{k+1} = R_k^p."""
    return _ns_solve(A, cfg, f"hyperpower-{cfg.order}", order=cfg.order,
                     schedule=cfg.schedule, counter=counter)


# ---------------------------------------------------------------------------
# Randomized sketch-and-project
# ---------------------------------------------------------------------------

_MAX_REDRAWS = 10


def _sketch_pinv_col(Y: QMatrix, gram_path: bool) -> QMatrix:
    if gram_path:
        G = Y.adjoint() @ Y
        return hpd_solve(G, Y.adjoint(), ridge=1e-10)
    return pinv_from_qr(Y)


def _rsp_col_step(A: QMatrix, X: QMatrix, sk: SketchConfig,
                  rng: QuatRNG) -> QMatrix:
    """One column sketch-and-project update; redraws rank-deficient sketches."""
    n = A.cols
    for _ in range(_MAX_REDRAWS):
        Omega = randn_qmat_rng(n, sk.block_r, rng)
        Y = A @ Omega
        try:
            Ydag = _sketch_pinv_col(Y, sk.gram_path)
        except (RankDeficient, Indefinite):
            continue
        Rk = Omega - X @ Y
        return X + (Rk @ Ydag).scale(sk.relaxation)
    raise SketchFailure("10 consecutive rank-deficient sketches")


def _rsp_row_step(A: QMatrix, X: QMatrix, sk: SketchConfig,
                  rng: QuatRNG) -> QMatrix:
    """One row sketch-and-project update; redraws rank-deficient sketches."""
    m = A.rows
    for _ in range(_MAX_REDRAWS):
        Sh = randn_qmat_rng(m, sk.block_r, rng).adjoint()
        Z = Sh @ A
        Zh = Z.adjoint()
        try:
            W = hpd_solve(Z @ Zh, Sh - Z @ X, ridge=1e-10)
        except (RankDeficient, Indefinite):
            continue
        return X + (Zh @ W).scale(sk.relaxation)
    raise SketchFailure("10 consecutive rank-deficient sketches")


def _test_sketch_measure(A: QMatrix, sk: SketchConfig, rng: QuatRNG,
                         side: str):
    """Relative residual on a fixed Gaussian test sketch Pi, with A Pi (or
    Pi A) precomputed once: ||Pi - X A Pi||_F / ||Pi||_F estimates
    ||I_n - XA||_F (right side), ||Pi - Pi A X||_F / ||Pi||_F estimates
    ||I_m - AX||_F (left side)."""
    if side == SIDE_RIGHT:
        Pi = randn_qmat_rng(A.cols, sk.test_s, rng)
        APi = A @ Pi
    else:
        Pi = randn_qmat_rng(sk.test_s, A.rows, rng)
        PiA = Pi @ A
    pi_norm = Pi.fro_norm()

    def measure(X):
        image = X @ APi if side == SIDE_RIGHT else PiA @ X
        return (Pi - image).fro_norm() / pi_norm, None
    return measure


def rsp_column(A: QMatrix, cfg: SolverConfig, sk: SketchConfig):
    """Sketch-and-project for XA = I_n (full column rank, m >= n).

    Progress is monitored against an independent test sketch Pi with A@Pi
    precomputed once; the criterion estimates ||I_n - X A||_F.
    """
    _require_finite(A)
    m, n = A.shape
    if m < n:
        raise DimensionMismatch("rsp_column requires m >= n")
    if sk.block_r > n:
        raise ValueError("block_r must be <= min(m, n)")
    _, alpha = _resolve(A, cfg)
    rng = QuatRNG(sk.seed)
    t0 = time.perf_counter()
    X, _, rep = _drive("rsp", A.adjoint().scale(alpha),
                       lambda X, _: _rsp_col_step(A, X, sk, rng),
                       _test_sketch_measure(A, sk, rng, SIDE_RIGHT),
                       cfg.tol, cfg.maxit, t0=t0)
    return _verified(A, X, rep)


def rsp_row(A: QMatrix, cfg: SolverConfig, sk: SketchConfig):
    """Sketch-and-project for AX = I_m (full row rank, m <= n); X0 = 0."""
    _require_finite(A)
    m, n = A.shape
    if m > n:
        raise DimensionMismatch("rsp_row requires m <= n")
    if sk.block_r > m:
        raise ValueError("block_r must be <= min(m, n)")
    rng = QuatRNG(sk.seed)
    t0 = time.perf_counter()
    X, _, rep = _drive("rsp-row", QMatrix.zeros(n, m),
                       lambda X, _: _rsp_row_step(A, X, sk, rng),
                       _test_sketch_measure(A, sk, rng, SIDE_LEFT),
                       cfg.tol, cfg.maxit, t0=t0)
    return _verified(A, X, rep)


def hybrid_rsp_ns(A: QMatrix, cfg: SolverConfig, sk: SketchConfig):
    """Cycles of T sketch-and-project steps plus one exact hyperpower
    correction on the right residual (column case only)."""
    _require_finite(A)
    m, n = A.shape
    if m < n:
        raise DimensionMismatch("hybrid is defined for the column case (m >= n)")
    _, alpha = _resolve(A, cfg)
    rng = QuatRNG(sk.seed)
    t0 = time.perf_counter()

    def cycle(X, _):
        for _ in range(sk.cycle_T):
            X = _rsp_col_step(A, X, sk, rng)
        return _ns_step(_deviation(A, X, SIDE_RIGHT), X, SIDE_RIGHT,
                        cfg.order, SCHEDULE_PS)

    X, _, rep = _drive(f"hybrid-T{sk.cycle_T}-p{cfg.order}",
                       A.adjoint().scale(alpha), cycle,
                       _test_sketch_measure(A, sk, rng, SIDE_RIGHT),
                       cfg.tol, cfg.maxit, t0=t0)
    return _verified(A, X, rep)


# ---------------------------------------------------------------------------
# CGNE in matrix form
# ---------------------------------------------------------------------------

def _frob(x: QMatrix, y: QMatrix) -> float:
    return float(np.sum(x.data * y.data))


class _NystromPrecond:
    """Approximate (AA^H)^{-1} from a thin sketch Y = A*Omega, applied on
    the right: Z -> Z (Y G^{-1} G^{-1} Y^H + theta I), G = Y^H Y.

    G is constant, so it is factored once, here; each apply is then two
    solves against that factor. The identity shift theta keeps the
    preconditioner positive definite (the pure Nystrom term is rank-r
    singular).
    """

    def __init__(self, A: QMatrix, sk: SketchConfig):
        rng = QuatRNG(sk.seed)
        n = A.cols
        Omega = randn_qmat_rng(n, sk.block_r, rng)
        self.Y = A @ Omega
        self.G = hpd_factor(self.Y.adjoint() @ self.Y, ridge=1e-12)
        self.theta = 1.0 / max(A.fro_norm() ** 2, 1e-300)

    def apply_right(self, Z: QMatrix) -> QMatrix:
        T = (Z @ self.Y).adjoint()            # r x k
        T = self.G.solve(self.G.solve(T))
        return (self.Y @ T).adjoint() + Z.scale(self.theta)

    def apply_left(self, Z: QMatrix) -> QMatrix:
        T = self.G.solve(self.G.solve(self.Y.adjoint() @ Z))
        return self.Y @ T + Z.scale(self.theta)


def cgne_q(A: QMatrix, cfg: SolverConfig, precond: SketchConfig | None = None):
    """Matrix-form CG on the normal equations.

    Column form (m >= n) minimizes f(X) = 0.5*||XA - I_n||_F^2 with exact
    line search and Fletcher-Reeves directions; the row analogue applies
    to g(X) = 0.5*||AX - I_m||_F^2. Optional right preconditioning uses a
    thin-sketch Nystrom approximate inverse.
    """
    _require_finite(A)
    m, n = A.shape
    column = m >= n
    side = SIDE_RIGHT if column else SIDE_LEFT
    _, alpha = _resolve(A, cfg)
    t0 = time.perf_counter()
    Ah = A.adjoint()
    X0 = Ah.scale(alpha)
    M = None
    if precond is not None:
        M = _NystromPrecond(A if column else Ah, precond)

    def step(state, _):
        # state (X, R, D, zz): iterate, residual, previous direction and
        # its <Zt, Z>; the new direction is formed first, from R
        X, R, D, zz = state
        Z = R @ Ah if column else Ah @ R
        Zt = (M.apply_right(Z) if column else M.apply_left(Z)) if M else Z
        zz_new = _frob(Zt, Z)
        D = Zt if D is None else Zt + D.scale(zz_new / zz)
        W = D @ A if column else A @ D
        wn2 = _frob(W, W)
        if wn2 == 0.0:
            raise Breakdown("search direction image vanished before convergence")
        a_k = _frob(R, W) / wn2
        return X + D.scale(a_k), R - W.scale(a_k), D, zz_new

    (X, *_), _, rep = _drive("cgne", (X0, _deviation(A, X0, side), None, None),
                             step, lambda state: (state[1].fro_norm(), None),
                             cfg.tol, cfg.maxit, t0=t0)
    return _verified(A, X, rep)


# ---------------------------------------------------------------------------
# Rate diagnostics for sketch-and-project
# ---------------------------------------------------------------------------

def rsp_rate_bound(A: QMatrix, block_r: int) -> float:
    """Theoretical expected contraction factor 1 - r*sigma_min^2/||A||_F^2."""
    _require_finite(A)
    # the embedding's singular values are A's, each twice
    smin = np.linalg.svd(A.to_complex_adjoint(), compute_uv=False)[-1]
    return 1.0 - block_r * float(smin) ** 2 / A.fro_norm() ** 2


def rsp_contraction_samples(A: QMatrix, sk: SketchConfig,
                            trials: int) -> np.ndarray:
    """Per-trial one-step ratios ||X1 - Adag||_F^2 / ||X0 - Adag||_F^2."""
    Xstar = pinv_normal_eq(A)
    alpha = auto_alpha(A)
    X0 = A.adjoint().scale(alpha)
    d0 = (X0 - Xstar).fro_norm() ** 2
    rng = QuatRNG(sk.seed)
    out = np.empty(trials)
    for t in range(trials):
        X1 = _rsp_col_step(A, X0, sk, rng)
        out[t] = (X1 - Xstar).fro_norm() ** 2 / d0
    return out


def rsp_rate_check(A: QMatrix, sk: SketchConfig, trials: int) -> float:
    """Empirical mean one-step contraction ratio (compare to rsp_rate_bound)."""
    return float(rsp_contraction_samples(A, sk, trials).mean())
