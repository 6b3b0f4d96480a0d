"""Iterative pseudoinverse solvers and convergence instrumentation.

Five solver families live here:

* damped Newton-Schulz (order 2, damping gamma in (0, 1]),
* order-p hyperpower updates with three polynomial schedules,
* randomized sketch-and-project (column and row variants), with an
  accelerated step,
* a hybrid that interleaves sketch-and-project steps with one exact
  hyperpower correction,
* conjugate gradient on the normal equations in matrix form, run on n x n
  coordinates: each iterate of a tall A is X0 + F A^H P (P the optional
  preconditioner), and the loop updates F.

All solvers start from X0 = alpha * A^H with alpha strictly inside
(0, 2/||A||_2^2) and drive the deviation F = I - XA toward zero. They
solve a wide A as its tall adjoint B, since (A^H)^+ = (A^+)^H, and return
the adjoint of that result; A^H is formed once per solve. Every solve runs
one Lanczos probe of B^H B (_probe, on qmatrix._gram_ritz) and passes its
reading, one frozen Spectrum, to the solver as it is: alpha = 0.99 /
theta_max for the largest Ritz value, unless the config sets alpha, and
the bounds on the spectrum that ns_damped at gamma = 1, rsp_column and
rsp_row take from it (below); auto_alpha is the probe's alpha. Every
solver runs the one stopping loop, ``_loop._drive``, as do the square
Newton-Schulz loops of the Lorenz and deblurring apps; the loop keeps no
clock, and SolverReport's wall_time is set by _solve_tall around the
whole solve. Every loop's inner products and Frobenius norms are
``_loop._dot``'s and ``_loop._fro_norm``'s, one BLAS dot each. The
Newton-Schulz, hyperpower and CGNE updates are written into arrays the
loop alone holds -- the product that feeds them or CGNE's n x n
coordinate matrices -- so an iteration allocates nothing beyond its
quaternion products; the accelerated sketch-and-project step forms its
extra combinations in the buffers of its iterate and of its W. No
argument or returned matrix is written to, and every result is bitwise
that of fresh intermediates.

The sketch-and-project solvers take their sketches from one stream per
solve (``_SketchStream``): the sketches are drawn one at a time in the
order the steps use them, and a block of up to 16 of them is formed ahead
in one stacked pass -- Omega (n x r), Y = A Omega and Y^+ as (s, n, r, 4),
(s, m, r, 4) and (s, r, m, 4) arrays, Y^+ by the Gram solve of
Y^H Y + 1e-10 I against Y^H: one LAPACK Cholesky of the block's complex
embeddings, one LAPACK inverse of the factors and two complex products
(``hpd_solve`` of the stack); the block's Omega come from one uniform
draw (``QuatRNG.normals`` with a count). A block holds at most 8192
quaternion entries of max(m, n) x r sketches. Only the two products with
the iterate remain in the step: X + (Omega - X Y) Y^+. Where such a
product runs on qmatmul's batched right side (the shapes decide, by
qmatmul's rule), the factor is prepared with its block: its slabs are
built once, for the whole block in one product, into a buffer the stream
keeps from block to block, and the step multiplies on them
(``_qops._right_batched``). Y's slabs also serve the block's Gram product
Y^H Y. The residual's test sketch holds A Pi as its fixed-factor product
(``_qops.qmatmul_right``), with its slabs built once per solve. Every
such product is bitwise qmatmul's.
A sketch whose Gram matrix fails its Cholesky pivot or residual check is
rejected when its block is formed, and the step that reaches it draws the
next; 10 rejected in a row raise SketchFailure.

ns_damped at gamma = 1 and the Lorenz solve (on its residual recurrence,
apps.lorenz) depart from the paper's plain Newton-Schulz step: each step
is scaled, X <- theta (2I - theta XA) X, with theta set from bounds on the
nonzero spectrum of A^H A (_ns_scales). The solve's probe gives all of
them and alpha: the lower bound from its smallest nonzero Ritz value and
the upper bound min(2, alpha (theta_max + beta |s|)) (Zhou & Li, Linear
Algebra Appl. 435, 2011), so alpha and that bound come from the same run.
ns_hyperpower, gamma < 1, hybrid_rsp_ns's correction and
recurrence_deviations stay plain.

ns_damped at gamma = 1 and ns_hyperpower also depart from the paper in
precision: on B with at least _F32_FROM (80) columns and a probe that reads
bound / low <= _F32_KAPPA2 (1e3), their first steps run in float32, until
||F||^p < 1e-4 for the step's order p. From X_0 = alpha B^H every iterate
is X = P B^H, P a polynomial in G = B^H B (Pan & Schreiber, 1991), so those
steps run on the n x n P, from P_0 = alpha I, with G formed once in
float32: F = I - PG is X's deviation I - XB. They take B times a power of 2
near alpha^(1/2), which keeps G and P near 1 at any scale of B and changes
no bit of F. One float64 product, X = P B^H, hands over an X in B's row
space, and the float64 steps, stop test and verify follow on X. The step
depends on X only through F, so the float64 steps correct the float32
phase's rounding as they would any deviation. A run whose float32 phase
fails in any way, or whose X = P B^H does not lie below the hand-over
level, is discarded, and the solve returns the float64 run bit for bit
(_ns_solve); float64 steps that reach maxit end the solve unconverged.
SolverReport.float32_steps counts the float32 steps. The phase's float32
copies are built with the private QMatrix._of (_float32), since QMatrix's
constructor makes every array float64, so float32 data lives only in this
phase.

Every solver reports Penrose residuals computed from the deviation
F = I - XB of the returned X (_penrose_from_deviation, three products):
the Newton-Schulz family's loop measured it last, and _solve_tall forms
it for the others (_deviation, a fourth). Every solve also takes an A of
extreme scale as A 2^-e, as the direct oracles do (_solve_tall).

rsp_column and rsp_row depart from the paper's plain RSP-Q: they take the
accelerated sketch-and-project step (Gower, Hanzely, Richtarik & Stich,
NeurIPS 2018; Tu et al., ICML 2017) with SP the plain step, from V_0 = X_0:
Y = X + a (V - X), X+ = SP(Y), V+ = beta V + (1 - beta) Y - gamma (Y - X+),
with beta = 1 - sqrt(mu / nu), gamma = 1 / sqrt(mu nu) and
a = 1 / (1 + gamma nu). The solve's probe gives mu = r low / ||B||_F^2 for
its smallest nonzero Ritz value low; nu = 1.5 n / r. Where
sqrt(mu / nu) >= 0.2, or mu = 0, they take the plain step: those shapes
converge in tens of steps, which the accelerated step does not shorten.
The divergence guard is on for both. The probe draws from its own seed, so
the sketches are those of the plain run. hybrid_rsp_ns, the step _update
and the rate diagnostic rsp_contraction_samples stay plain.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _qops
from ._loop import SolverReport, _dot, _drive, _fro_norm, _require_count
from .errors import (Breakdown, DimensionMismatch, Divergence,
                     InvalidOrder, NonFinite, RankDeficient, SketchFailure,
                     _lapack)
from .factor import (_equilibrated, _rescaled, _right_factor, hpd_solve,
                     pinv_normal_eq, thin_qr)
from .qmatrix import QMatrix, _gram_ritz, randn_qmat_rng, require_finite
from .rng import QuatRNG

SCHEDULE_NAIVE = "naive"
SCHEDULE_BINARY = "binary-pow2"
SCHEDULE_PS = "paterson-stockmeyer"
SCHEDULES = (SCHEDULE_NAIVE, SCHEDULE_BINARY, SCHEDULE_PS)


@dataclass
class SolverConfig:
    alpha: float | str = "auto"
    gamma: float = 1.0
    order: int = 2
    schedule: str = SCHEDULE_NAIVE
    tol: float = 1e-8
    maxit: int = 100

    def __post_init__(self):
        if self.alpha != "auto" and not (
                isinstance(self.alpha, (int, float))
                and 0.0 < self.alpha < math.inf):
            raise ValueError("alpha must be 'auto' or a finite float > 0")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        _require_count("order", self.order, 2)
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError("tol must be a finite float >= 0")
        _require_count("maxit", self.maxit, 0)


@dataclass
class SketchConfig:
    block_r: int = 8
    test_s: int = 5
    cycle_T: int = 5
    seed: int = 0

    def __post_init__(self):
        _require_count("block_r", self.block_r, 1)
        _require_count("test_s", self.test_s, 1)
        _require_count("cycle_T", self.cycle_T, 0)


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


@dataclass(frozen=True)
class Spectrum:
    """What one Lanczos probe of B^H B tells a solve (_probe): the start's
    scale alpha, the smallest nonzero Ritz value low (0.0 where none is)
    and the probe's upper bound on the spectrum."""
    alpha: float
    low: float
    bound: float


def _probe(B: QMatrix, Bh: QMatrix | None = None,
           alpha: float | str = "auto") -> Spectrum:
    """The Spectrum of one Lanczos probe of B^H B (qmatrix._gram_ritz, on
    B and Bh = B^H): an "auto" alpha is 0.99 / theta for the largest Ritz
    value theta (1.0 for theta = 0), inside (0, 2/||B||_2^2) while
    theta > 0.495 ||B||_2^2."""
    low, top, bound = _gram_ritz(B, Bh)
    if alpha == "auto":
        alpha = 0.99 / top if top else 1.0
    return Spectrum(float(alpha), low, bound)


def auto_alpha(A: QMatrix, Ah: QMatrix | None = None) -> float:
    """alpha = 0.99 / ||A||_2^2, with ||A||_2^2 estimated by the probe's
    largest Ritz value (_probe). Ah, if given, is A^H, formed by the
    caller."""
    return _probe(A, Ah).alpha


def _deviation(A: QMatrix, X: QMatrix) -> QMatrix:
    """F = I - XA, formed in the buffer of the product XA: 0 - p is -p
    exactly (+0 for p = +-0), so 1 added on the diagonal gives 1 - p, and
    F is bitwise I - XA without an identity matrix."""
    F = X @ A
    np.subtract(0.0, F.data, out=F.data)
    d = np.arange(A.cols)
    F.data[d, d, 0] += 1.0
    return F


def _penrose_from_deviation(B: QMatrix, X: QMatrix, F: QMatrix):
    """penrose_residuals(B, X) from F = I - XB: XBX - X = -FX,
    BXB - B = -BF and (XB)^H - XB = F - F^H, so e1 = ||FX||, e2 = ||BF||,
    e3 = ||F^H - F|| (bitwise penrose_residuals' e3) and only e4 needs BX:
    three products in place of four, equal in exact arithmetic."""
    BX = B @ X
    return ((F @ X).fro_norm(), (B @ F).fro_norm(),
            (F.adjoint() - F).fro_norm(), (BX.adjoint() - BX).fro_norm())


def _solve_tall(A: QMatrix, cfg: SolverConfig, method: str, solve):
    """Run solve(B, Bh, spec) -> (X, report, F) on B, the tall one of A
    and A^H, with Bh = B^H, and return A's (X, report): a wide A's result
    is adjointed, since (A^H)^+ = (A^+)^H. A^H is formed once, and it is B
    or Bh. spec is the Spectrum of one probe of B (_probe), its alpha
    cfg's unless "auto". report.wall_time runs from after A^H is formed
    until solve returns, so it covers the probe and every set-up of the
    solve, and leaves out the Penrose check. F is the deviation I - XB of
    the returned X, or None, and then formed here (_deviation); the
    Penrose residuals of A and the returned X come from it
    (_penrose_from_deviation, with e3 and e4 swapped for a wide A). A
    zero A returns its pseudoinverse, zero, at once: no iterations,
    converged, an empty residual history and zero residuals.

    An A whose largest |entry| lies outside the oracles' exponent band is
    solved as A 2^-e (factor._equilibrated), and X scaled back by 2^-e
    (factor._rescaled, NonFinite where X leaves the float range); an
    explicit alpha, A's, is taken as alpha 2^2e. Every step commutes with
    that scale but the sketch stream's absolute ridge, and F is the same
    for both pairs, so e1 is reported times 2^-e and e2 times 2^e. Inside
    the band A keeps its bits; an A scaled down loses the bits of its
    subnormal entries."""
    require_finite(A)
    if not A.data.any():
        return (QMatrix.zeros(A.cols, A.rows),
                SolverReport(method, 0, converged=True))
    A, e = _equilibrated(A)
    alpha = cfg.alpha if cfg.alpha == "auto" else np.ldexp(cfg.alpha, 2 * e)
    Ah = A.adjoint()
    t0 = time.perf_counter()
    wide = A.rows < A.cols
    B, Bh = (Ah, A) if wide else (A, Ah)
    X, report, F = solve(B, Bh, _probe(B, Bh, alpha))
    report.wall_time = time.perf_counter() - t0
    e1, e2, e3, e4 = _penrose_from_deviation(
        B, X, _deviation(B, X) if F is None else F)
    e1, e2 = np.ldexp((e1, e2), (-e, e)).tolist()
    report.penrose = (e1, e2, e4, e3) if wide else (e1, e2, e3, e4)
    X = QMatrix._of(_rescaled(X.data, -e))
    return (X.adjoint() if wide else X), report


def eval_neumann_poly(R: QMatrix, X: QMatrix, p: int,
                      schedule: str) -> QMatrix:
    """Return (sum_{i<p} R^i) X, the truncated Neumann polynomial applied
    to X.

    The binary schedule is valid only for p = 2^q and applies the product
    factorization prod_j (I + R^{2^j}) factor by factor.
    """
    if p < 2:
        raise InvalidOrder("p must be >= 2")

    # every sum that ends in a product's own buffer is formed there; no
    # argument is written to
    if schedule == SCHEDULE_NAIVE:
        acc = X
        term = X
        for _ in range(p - 2):
            term = R @ term
            acc = acc + term
        term = R @ term
        np.add(acc.data, term.data, out=term.data)
        return term

    if schedule == SCHEDULE_BINARY:
        q = int(round(math.log2(p)))
        if 2 ** q != p:
            raise InvalidOrder(f"binary schedule needs p = 2^q, got {p}")
        Y = X
        cur = R
        for j in range(q):
            if j > 0:
                cur = cur @ cur
            T = cur @ Y
            np.add(Y.data, T.data, out=T.data)
            Y = T
        return Y

    if schedule == SCHEDULE_PS:
        # blocks sum_{l<len} R^l of a terms, the highest of top terms,
        # joined by Horner steps with R^a; a single block (p = 2) has no
        # Horner step and needs no R^a
        a = max(2, math.ceil(math.sqrt(p - 1)))
        nblocks = (p + a - 1) // a
        top = p - (nblocks - 1) * a
        longest = a if nblocks > 1 else top
        powers = [None, R]
        for _ in range(2, a + 1 if nblocks > 1 else top):
            powers.append(powers[-1] @ R)
        # sums[i] = sum_{l<i} R^l for the block lengths used: I + R is
        # formed as 0 + R with 1 added on the diagonal, bitwise I + R, each
        # longer sum in the buffer of the power it adds (R^i, i < a, has
        # served its products by then)
        sums = {}
        d = np.arange(R.rows)
        acc = QMatrix._of(np.add(0.0, R.data))
        acc.data[d, d, 0] += 1.0
        for i in range(2, longest):
            sums[i] = acc
            np.add(acc.data, powers[i].data, out=powers[i].data)
            acc = powers[i]
        sums[longest] = acc
        # a top block of length 1 is I, so the first Horner step is
        # R^a + sums[a], formed without the product R^a I
        S = sums[top] if top > 1 else QMatrix._of(
            np.add(sums[a].data, powers[a].data))
        for _ in range(nblocks - 1 - (top == 1)):
            T = powers[a] @ S
            np.add(sums[a].data, T.data, out=T.data)
            S = T
        return S @ X

    raise InvalidOrder(f"unknown schedule {schedule!r}")


def _ns_step(R: QMatrix, X: QMatrix, order: int = 2,
             schedule: str = SCHEDULE_NAIVE, gamma: float = 1.0,
             theta: float = 1.0) -> QMatrix:
    """One Newton-Schulz / hyperpower update of X given its deviation
    R = I - XA.

    gamma < 1 is the damped order-2 step X + gamma*R X; otherwise the
    order-p Neumann polynomial is applied under the given schedule.
    theta != 1 scales the order-2 step: X <- theta (2I - theta XA) X, which
    is theta (X + R_theta X) with R_theta = (1 - theta) I + theta R formed
    in R's buffer, so that R then holds R_theta; theta = 1 is the plain
    step, bit for bit.
    """
    if gamma != 1.0:
        T = R @ X
        np.multiply(T.data, float(gamma), out=T.data)
        np.add(X.data, T.data, out=T.data)
        return T
    if theta != 1.0:
        np.multiply(R.data, theta, out=R.data)
        d = np.arange(R.rows)
        R.data[d, d, 0] += 1.0 - theta
        T = eval_neumann_poly(R, X, 2, SCHEDULE_NAIVE)
        np.multiply(T.data, theta, out=T.data)
        return T
    return eval_neumann_poly(R, X, order, schedule)


# the cap on u_0, the upper bound on X_0 B's eigenvalues: alpha <
# 2/||B||_2^2 puts them in (0, 2)
_U0 = 2.0


def _ns_scales(spec: Spectrum):
    """The endless iterator of scales theta_k = 2/(l_k + u_k) for the
    order-2 steps from X_0 = alpha B^H, for bounds [l_k, u_k] on the
    nonzero eigenvalues of X_k B (Pan & Schreiber, SIAM J. Sci. Stat.
    Comput. 12, 1991), from the Spectrum of B (_probe): l_0 = alpha low,
    u_0 = min(_U0, alpha bound), which alpha and u_0 taken from the same
    probe keep above X_0 B's eigenvalues; after each step
    l <- theta l (2 - theta l) and u = 1. Every theta is 1 when no Ritz
    value is nonzero or l_0 > u_0, where alpha breaks the premise
    alpha < 2/||B||_2^2."""
    l, u = spec.alpha * spec.low, min(_U0, spec.alpha * spec.bound)
    if not 0.0 < l <= u:
        yield from itertools.repeat(1.0)
    while True:
        theta = 2.0 / (l + u)
        yield theta
        l, u = theta * l * (2.0 - theta * l), 1.0


def recurrence_deviations(A: QMatrix, cfg: SolverConfig, kind: str = "ns",
                          steps: int = 10):
    """Per-iteration deviation between the measured deviation matrix and
    its closed one-step recurrence.

    kind "ns" checks F_{k+1} = (1-gamma) F_k + gamma F_k^2 under the damped
    update; kind "hyperpower" checks R_{k+1} = R_k^p under the order-p
    update. Returns [(k, ||measured - predicted||_F), ...] for k = 1..steps.
    A wide A is run as its tall adjoint, as in the solvers.
    """
    if kind not in ("ns", "hyperpower"):
        raise ValueError(f"unknown kind {kind!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    Ah = A.adjoint()
    if A.rows < A.cols:
        A, Ah = Ah, A
    X = Ah.scale(_probe(A, Ah, cfg.alpha).alpha)
    R = _deviation(A, X)
    out = []
    for k in range(1, steps + 1):
        if kind == "ns":
            X = _ns_step(R, X, gamma=cfg.gamma)
            pred = R.scale(1.0 - cfg.gamma) + (R @ R).scale(cfg.gamma)
        else:
            X = _ns_step(R, X, cfg.order, cfg.schedule)
            pred = R
            for _ in range(cfg.order - 1):
                pred = pred @ R
        R = _deviation(A, X)
        out.append((k, (R - pred).fro_norm()))
    return out


# ---------------------------------------------------------------------------
# Newton-Schulz family
# ---------------------------------------------------------------------------

# The Newton-Schulz family's float32 phase (_ns_solve) runs for B with at
# least _F32_FROM columns, where whole 1.1n x n solves measured faster with
# it (0.95x at n = 60, 0.91x at 80, 0.80-0.86x at 200), and where the
# probe's bound / low, which underestimates kappa(B)^2 (about 300 on
# 220 x 200 Gaussian inputs), is at most _F32_KAPPA2: above it float32
# rounding can stall the phase short of the hand-over level, and the solve
# then pays for the float32 steps it discards.
# It hands over at the first ||F||^p < _F32_SWITCH for the step's order p,
# so that the next step would bring F near float32's floor, ~1e-5 at
# 220 x 200.
_F32_FROM = 80
_F32_KAPPA2 = 1e3
_F32_SWITCH = 1e-4


def _ns_solve(A: QMatrix, cfg: SolverConfig, method: str, scaled: bool,
              **step_kw):
    """The Newton-Schulz family through _solve_tall, verified from the
    deviation of the returned X; with scaled, each step's scale comes from
    the solve's probe (_ns_scales).

    At gamma = 1, on B and probes that pass the gates above, the first
    steps run in float32 on P of X = P B^H, from P_0 = alpha I, with
    G = B^H B in B's place (both scaled by powers of 2, mixed() says how),
    under the divergence guard and a stagnation stop, until
    ||F|| < _F32_SWITCH^(1/p). One float64 product X = P B^H hands over,
    and the float64 steps follow on X, with the scales carried over, to
    the stop test and the verify. The run is discarded where its float32
    phase raises NonFinite or Divergence, stagnates or runs out of steps,
    where X = P B^H's deviation is not below the hand-over level, or where
    the float64 steps raise: the solve then runs again from X_0 in float64
    alone and returns what it returns without the phase. Float64 steps
    that reach maxit end the run unconverged, as they do without the
    phase."""
    def solve(B, Bh, spec):
        def scales():
            return _ns_scales(spec) if scaled else itertools.repeat(1.0)

        def run(B, X0, thetas, tol, maxit, stagnate=False, entry=None):
            # with entry, X0's residual must lie below it
            def measure(X):
                F = _deviation(B, X)
                res = _fro_norm(F)
                if entry is not None and X is X0 and not res < entry:
                    raise Divergence(f"residual {res} at the hand-over")
                return res, F

            return _drive(
                method, X0,
                lambda X, F: _ns_step(F, X, theta=next(thetas), **step_kw),
                measure, tol, maxit, diverge=True, stagnate=stagnate)

        def mixed():
            thetas = scales()
            switch = _F32_SWITCH ** (1.0 / step_kw.get("order", 2))
            # the phase steps P of X = P B^H on G = B^H B, from P_0 = alpha I:
            # its deviation I - PG is X's, I - XB. It runs on B s, s a power
            # of 2 with s^2 near alpha, where G and P are of order 1, far
            # from float32's range ends, and P s^2 is the P of B, bit for
            # bit. A discarded run's overflow is no warning.
            s = 2.0 ** (math.frexp(spec.alpha)[1] // 2)
            with np.errstate(all="ignore"):
                P, _, head = run(
                    _float32(Bh, s) @ _float32(B, s),
                    _float32(QMatrix.identity(B.cols), spec.alpha / s / s),
                    thetas, switch, cfg.maxit, stagnate=True)
            if not head.converged:
                raise Divergence("stopped above the hand-over level")
            k = head.iterations
            X = QMatrix(P.data).scale(s * s) @ Bh
            X, F, rep = run(B, X, thetas, cfg.tol, cfg.maxit - k,
                            entry=switch)
            rep.residual_history = head.residual_history[:-1] + [
                (k + j, res) for j, res in rep.residual_history]
            rep.iterations += k
            rep.float32_steps = k
            return X, rep, F

        if step_kw.get("gamma", 1.0) == 1.0 and B.cols >= _F32_FROM and \
                spec.bound <= _F32_KAPPA2 * spec.low:
            try:
                return mixed()
            except (NonFinite, Divergence):
                pass
        X, F, rep = run(B, Bh.scale(spec.alpha), scales(), cfg.tol, cfg.maxit)
        return X, rep, F
    return _solve_tall(A, cfg, method, solve)


def _float32(M: QMatrix, s: float) -> QMatrix:
    """M rounded to float32, times s, a power of 2, in float32."""
    return QMatrix._of(np.multiply(M.data, s, dtype=np.float32))


def ns_damped(A: QMatrix, cfg: SolverConfig):
    """Damped Newton-Schulz: X <- X + gamma*F*X with F = I - XA; at
    gamma = 1 each step is scaled (_ns_scales)."""
    return _ns_solve(A, cfg, "ns", cfg.gamma == 1.0, gamma=cfg.gamma)


def ns_hyperpower(A: QMatrix, cfg: SolverConfig):
    """Order-p hyperpower updates; residual recurrence R_{k+1} = R_k^p."""
    return _ns_solve(A, cfg, f"hyperpower-{cfg.order}", False,
                     order=cfg.order, schedule=cfg.schedule)


# ---------------------------------------------------------------------------
# Randomized sketch-and-project
# ---------------------------------------------------------------------------

_MAX_REDRAWS = 10
# the ridge a sketch stream adds to each Gram matrix Y^H Y before its solve
_RIDGE = 1e-10
# a sketch stream forms up to _AHEAD sketches in one pass, and fewer for a
# large A: at most _AHEAD_ENTRIES quaternion entries of the max(m, n) x r
# sketches
_AHEAD = 16
_AHEAD_ENTRIES = 8192


class _SketchStream:
    """The sketches of one sketch-and-project solve, in the order its steps
    take them.

    The sketches are drawn from the solver's generator in the order the
    steps take them and formed ahead of those steps, ``block`` sketches at
    a time: one draw, bitwise the one-sketch draws, and one stacked pass.
    None of it depends on the iterate, and every array is bitwise what the
    step would form from that sketch alone. A sketch is Omega (n x r),
    Y = A Omega and Y^+, the solve of Y^H Y + _RIDGE I against Y^H
    (``hpd_solve`` of the stack, the ridge added here), items of the
    block's arrays ``omega``, Y and Y^+; ``ok`` is False for a rejected
    sketch, one whose Gram matrix fails its Cholesky pivot or residual
    check, and the step draws the next one instead.

    A step multiplies an n x m iterate by Y and an n x r one by Y^+
    (``times``). Where qmatmul would run such a product on the batched
    right side (``_qops._batched_right``, decided once from the shapes),
    the block's slabs of that factor are built with the block, in one
    product for the whole block, into a buffer the stream allocates with
    its first block and keeps from block to block, and the product runs
    on them (``_qops._right_batched``); any other product is qmatmul's.
    Either way it is bitwise qmatmul's. The slabs of Y also give the
    Gram products Y^H Y, which are then on the batched right side too.
    """

    def __init__(self, A: QMatrix, sk: SketchConfig, rng: QuatRNG,
                 block: int | None = None):
        self.A, self.sk, self.rng = A, sk, rng
        m, n = A.shape
        r = sk.block_r
        if block is None:
            block = _AHEAD_ENTRIES // (max(m, n) * r)
        self.block = max(1, min(_AHEAD, block))
        self._next = self.block
        # which of Y and Y^+ the steps multiply by on the batched right side
        self._slabbed = (_qops._batched_right(n, m, r),
                         _qops._batched_right(n, r, m))
        # the slabs of those factors' entries in a block, one factor after
        # the other, allocated with the first block
        self._slab_entries = sum(self._slabbed) * self.block * m * r
        self._slabs = None

    def take(self) -> int:
        """The index in the block of the next sketch; the next block is
        formed when this one is used up."""
        if self._next == self.block:
            self._form()
            self._next = 0
        self._next += 1
        return self._next - 1

    def times(self, x: np.ndarray, i: int, j: int) -> np.ndarray:
        """x Y (j = 0) or x Y^+ (j = 1) of sketch i of the block, bitwise
        qmatmul's."""
        S = self._factor_slabs[j]
        if S is None:
            return _qops.qmatmul(x, self.factors[j][i])
        return _qops._right_batched(_qops._planes(x), S[:, i])

    def _prepared(self, j: int, F: np.ndarray):
        """(F, S) for the block's factor j (Y or Y^+), F: S its slabs, built
        in the stream's buffer, and F then slab 0 of S, a view, so that the
        block holds F once; S is None, and F as it was, where the steps'
        products by F are not on the batched right side."""
        if not self._slabbed[j]:
            return F, None
        if self._slabs is None:
            self._slabs = np.empty((4, self._slab_entries, 4))
        e = F.size // 4  # Y and Y^+ have as many entries
        at = e if j and self._slabbed[0] else 0
        S = self._slabs[:, at:at + e]
        S[0] = F.reshape(e, 4)
        _qops._fill_slabs(S)
        return (S[0].reshape(F.shape),
                S.reshape((4,) + F.shape[:2] + (4 * F.shape[2],)))

    def _form(self):
        n, r, s = self.A.cols, self.sk.block_r, self.block
        Om = self.rng.normals((n, r, 4), s)
        Y = _qops.qmatmul_stack(self.A.data, Om)
        Yh = _qops.qconj(Y.swapaxes(1, 2))
        # Y's slabs serve its Gram product too, which is on the batched
        # right side wherever the steps' product by Y is
        Y, S = self._prepared(0, Y)
        G = (_qops.qmatmul_stack(Yh, Y) if S is None
             else _qops._right_batched(_qops._planes(Yh), S))
        ks = np.arange(r)
        G[:, ks, ks, 0] += _RIDGE
        Ydag, self.ok = hpd_solve(G, Yh)
        Ydag, S_dag = self._prepared(1, Ydag)
        self.omega, self.factors = Om, (Y, Ydag)
        self._factor_slabs = (S, S_dag)


def _update(X: QMatrix, stream: _SketchStream) -> QMatrix:
    """One sketch-and-project update X + (Omega - X Y) Y^+ with the
    stream's next usable sketch. Each rejected sketch counts as a redraw."""
    for _ in range(_MAX_REDRAWS):
        i = stream.take()
        if stream.ok[i]:
            x = X.data
            C = stream.omega[i] - stream.times(x, i, 0)
            return QMatrix._of(x + stream.times(C, i, 1))
    raise SketchFailure("10 consecutive rank-deficient sketches")


def _test_sketch_measure(A: QMatrix, sk: SketchConfig, rng: QuatRNG):
    """Relative residual on a fixed Gaussian test sketch Pi, with A Pi
    precomputed once and held as its product (``_qops.qmatmul_right``):
    ||Pi - X A Pi||_F / ||Pi||_F estimates ||I_n - XA||_F."""
    Pi = randn_qmat_rng(A.cols, sk.test_s, rng)
    times_APi = _qops.qmatmul_right((A @ Pi).data)
    pi_norm = Pi.fro_norm()

    def measure(X):
        R = QMatrix._of(Pi.data - times_APi(X.data))
        return R.fro_norm() / pi_norm, None
    return measure


def _require_block(A: QMatrix, sk: SketchConfig) -> None:
    if sk.block_r > min(A.shape):
        raise ValueError("block_r must be <= min(m, n)")


# sqrt(mu / nu) from which rsp_column and rsp_row take the plain step: the
# shapes above it converge in tens of steps, and the accelerated step took
# 1.07-1.17x the plain step's iterations there
_ACCEL_BELOW = 0.2
# nu = _NU_FACTOR n / r: n / r took more steps on 30 x 20 and on 12 x 7
# (r = 8 and 6), 3 n / r on the slow shapes
_NU_FACTOR = 1.5


def _accel_constants(B: QMatrix, r: int, spec: Spectrum):
    """(sqrt(mu / nu), (beta, gamma, a)) of the accelerated step for rank-r
    sketches of B (module docstring), with mu = r low / ||B||_F^2 for the
    smallest nonzero Ritz value low of B's Spectrum and nu = 1.5 n / r; the
    constants are None where the plain step is taken: mu = 0 or
    sqrt(mu / nu) >= _ACCEL_BELOW. mu is 0 where ||B||_F^2 underflows to 0
    (entries below about 1e-160)."""
    fro2 = B.fro_norm() ** 2
    mu = r * spec.low / fro2 if fro2 else 0.0
    nu = _NU_FACTOR * B.cols / r
    q = math.sqrt(mu / nu)
    if not 0.0 < q < _ACCEL_BELOW:
        return q, None
    gamma = 1.0 / math.sqrt(mu * nu)
    return q, (1.0 - q, gamma, 1.0 / (1.0 + gamma * nu))


def _accelerated(stream: _SketchStream, beta: float, gamma: float,
                 a: float):
    """The step of rsp_column and rsp_row on the state (X, W), with
    W = a (V - X) in place of V (W_0 = 0): Y = X + W, X+ = _update(Y) and
    W+ = beta (1 - a) W + a (gamma - 1) (X+ - Y), which is a (V+ - X+) for
    the V+ of the module docstring, since V - Y = (1 - a)(V - X). X and W
    are the loop's own: Y and then X+ - Y are formed in X's buffer, W+ in
    W's, so the step adds five elementwise passes to _update."""
    c_w, c_g = beta * (1.0 - a), a * (gamma - 1.0)

    def step(state, _):
        X, W = state
        x, w = X.data, W.data
        np.add(x, w, out=x)
        X_next = _update(X, stream)
        np.subtract(X_next.data, x, out=x)
        np.multiply(w, c_w, out=w)
        np.multiply(x, c_g, out=x)
        np.add(w, x, out=w)
        return X_next, W
    return step


def _sketch_solve(A: QMatrix, cfg: SolverConfig, sk: SketchConfig,
                  method: str, cycle=None):
    """Sketch-and-project on B, the tall one of A and A^H, through
    _solve_tall, from X0 = alpha B^H, with the solve's sketch stream of B
    and the residual measured on a test sketch of B. Without cycle, the
    probe's smallest nonzero Ritz value low gives the accelerated step's
    constants (_accel_constants); each iteration is that step
    (_accelerated), or the plain _update where the constants are None,
    under the divergence guard. With cycle, each iteration is
    cycle(X, stream)."""
    def solve(B, Bh, spec):
        rng = QuatRNG(sk.seed)
        measure = _test_sketch_measure(B, sk, rng)
        stream = _SketchStream(B, sk, rng)
        step = cycle
        if cycle is None:
            _, constants = _accel_constants(B, sk.block_r, spec)
            if constants is not None:
                (X, _), _, rep = _drive(
                    method,
                    (Bh.scale(spec.alpha), QMatrix.zeros(B.cols, B.rows)),
                    _accelerated(stream, *constants),
                    lambda state: measure(state[0]), cfg.tol, cfg.maxit,
                    diverge=True)
                return X, rep, None
            step = _update
        # X0 is built in each call, so that no name keeps it alive
        X, _, rep = _drive(method, Bh.scale(spec.alpha),
                           lambda X, _: step(X, stream), measure, cfg.tol,
                           cfg.maxit, diverge=cycle is None)
        return X, rep, None
    return _solve_tall(A, cfg, method, solve)


def rsp_column(A: QMatrix, cfg: SolverConfig, sk: SketchConfig):
    """Sketch-and-project for XA = I_n (full column rank, m >= n).

    Progress is monitored against an independent test sketch Pi with A@Pi
    precomputed once; the criterion estimates ||I_n - X A||_F.
    """
    if A.rows < A.cols:
        raise DimensionMismatch("rsp_column requires m >= n")
    _require_block(A, sk)
    return _sketch_solve(A, cfg, sk, "rsp")


def rsp_row(A: QMatrix, cfg: SolverConfig, sk: SketchConfig):
    """Sketch-and-project for AX = I_m (full row rank, m <= n).

    A wide A is solved as the column sketch-and-project of its tall
    adjoint A^H, and the result is adjointed: the row step
    X + Z^+ (S^H - Z X) with Z = S^H A is the adjoint of the column step
    on A^H. A square A is solved directly.
    """
    if A.rows > A.cols:
        raise DimensionMismatch("rsp_row requires m <= n")
    _require_block(A, sk)
    return _sketch_solve(A, cfg, sk, "rsp-row")


def hybrid_rsp_ns(A: QMatrix, cfg: SolverConfig, sk: SketchConfig):
    """Cycles of T sketch-and-project steps plus one exact hyperpower
    correction on the residual I - XA (column case only)."""
    if A.rows < A.cols:
        raise DimensionMismatch("hybrid is defined for the column case (m >= n)")
    if sk.cycle_T:  # T = 0 draws no sketch of A
        _require_block(A, sk)

    def cycle(X, stream):  # on the solve's B, A 2^-e at extreme scales
        for _ in range(sk.cycle_T):
            X = _update(X, stream)
        return _ns_step(_deviation(stream.A, X), X, cfg.order, SCHEDULE_PS)
    return _sketch_solve(A, cfg, sk, f"hybrid-T{sk.cycle_T}-p{cfg.order}",
                         cycle)


# ---------------------------------------------------------------------------
# CGNE in matrix form
# ---------------------------------------------------------------------------

class _NystromPrecond:
    """The Frangella-Tropp-Udell Nystrom preconditioner of H = B B^H,
    applied on the right: Z -> Z + (Z U) diag(l_r / l - 1) U^H.

    That is P^{-1} = U diag(1/l) U^H + (I - U U^H) / l_r up to the factor
    l_r, which CG ignores, where U diag(l) U^H (l nonincreasing) is the
    rank-r Nystrom approximation of H from an orthonormal m x r Omega:
    Y = B (B^H Omega), shifted by nu = eps ||Y||_F to Y_nu = Y + nu Omega,
    gives Y_nu (Omega^H Y_nu)^{-1} Y_nu^H - nu I. With Y_nu = Q R, its
    eigenpairs are those of the r x r core T = R (Omega^H Y_nu)^{-1} R^H,
    rotated by Q. Everything is formed once, here: one Cholesky of
    Omega^H Y_nu and the eigendecomposition of T by the LAPACK SVD on the
    complex embedding (``_right_factor``); the two thin QRs, of Omega and
    of Y_nu, run LAPACK on the embedding too. An apply is two thin
    products, and ``cgne_q`` applies it once per call, to B^H, which it
    also passes in as Bh. Raises RankDeficient when B's rank is below r or
    l_r <= 1e-10 l_1 (Frangella, Tropp & Udell, SIAM J. Matrix Anal. Appl.
    44, 2023).
    """

    def __init__(self, B: QMatrix, Bh: QMatrix, sk: SketchConfig):
        r = sk.block_r
        Omega = thin_qr(randn_qmat_rng(B.rows, r, QuatRNG(sk.seed))).Q
        Y = B @ (Bh @ Omega)
        nu = np.finfo(float).eps * Y.fro_norm()
        Y = Y + Omega.scale(nu)
        try:
            qr = thin_qr(Y)
        except RankDeficient as exc:
            raise RankDeficient(f"rank(A) < block_r = {r}: {exc}") from exc
        T = qr.R @ hpd_solve(Omega.adjoint() @ Y, qr.R.adjoint())
        _, s, V, _ = _right_factor(T)
        lam = s - nu
        if not lam[-1] > 1e-10 * lam[0]:
            raise RankDeficient(f"numerical rank(A) < block_r = {r}: Nystrom "
                                f"l_r {lam[-1]:.3e} <= 1e-10 * {lam[0]:.3e}")
        self.U = qr.Q @ QMatrix(V)
        self.Wh = self.U.adjoint()
        self.Wh.data *= (lam[-1] / lam - 1.0)[:, None, None]

    def apply_right(self, Z: QMatrix) -> QMatrix:
        P = (Z @ self.U) @ self.Wh
        np.add(P.data, Z.data, out=P.data)
        return P


def cgne_q(A: QMatrix, cfg: SolverConfig, precond: SketchConfig | None = None):
    """Matrix-form CG on the normal equations.

    Minimizes f(X) = 0.5*||XB - I_n||_F^2 for B, the tall one of A and A^H
    (m x n), with exact line search and Fletcher-Reeves directions. With
    precond, each gradient is preconditioned on the right by the
    Frangella-Tropp-Udell Nystrom preconditioner P of the Hessian B B^H
    (``_NystromPrecond``, rank block_r, drawn from precond.seed). It raises
    RankDeficient, before any iteration, when A's numerical rank is below
    block_r.

    From X0 = alpha B^H every iterate is X0 + F B^H P and every direction
    D B^H P, so the loop runs on the n x n coordinates F and D: the
    direction's image is D M with M = B^H P B, formed once, and a step
    makes one n x n product, S = R M for the residual R = I - XB. In exact
    arithmetic the iterates are those of the loop on X itself. P is
    applied once per call, to B^H, and X is formed from F after the last
    step.

    M is held only as its product (``_qops.qmatmul_right``): for n > 32,
    S = R M runs in the 8-product form, eight real n x n GEMMs where the
    Hamilton form takes sixteen, on M's eight combinations of components,
    formed once per solve; for n <= 32 it runs on M's slabs, built once
    per solve, bitwise qmatmul's. Below n = _qops._EIGHT_MIN (80) the
    8-product form's rounding differs from qmatmul's by a small factor
    (1.3-2.3 times, normwise), so S is not bitwise qmatmul's R M there;
    from 80 on, qmatmul runs the same form. S is a fresh array, where the
    step then forms its two scaled copies. Neither X0 nor a scratch buffer
    is held through the loop, so M's combinations, 8n^2 elements (or its
    slabs, 16n^2), are the loop's only memory beside its state and S
    (README, performance notes).
    """
    def solve(B, Bh, spec):
        BhP = (Bh if precond is None
               else _NystromPrecond(B, Bh, precond).apply_right(Bh))
        # M = B^H P B, held only as its product, whose combinations are
        # formed once
        times_M = _qops.qmatmul_right((BhP @ B).data)

        def step(state, _):
            # state (F, R, D, W, zz): the iterate's coordinates, its
            # residual, the previous direction, its image W = D M and the
            # previous <R M, R>; the new direction is formed first, from R.
            # F, R, D and W are this loop's own and are updated in place;
            # S = R M, a fresh array, holds the scaled copies once W is
            # formed.
            F, R, D, W, zz = state
            S = QMatrix._of(times_M(R.data))
            zz_new = _dot(S, R)
            if D is None:
                D, W = R.copy(), S.copy()
            else:  # D = R + (zz_new / zz) D, W = S + (zz_new / zz) W
                beta = zz_new / zz
                np.multiply(D.data, beta, out=D.data)
                np.add(R.data, D.data, out=D.data)
                np.multiply(W.data, beta, out=W.data)
                np.add(S.data, W.data, out=W.data)
            wn2 = _dot(W, W)
            if wn2 == 0.0:
                raise Breakdown(
                    "search direction image vanished before convergence")
            a_k = _dot(R, W) / wn2
            np.add(F.data, np.multiply(D.data, a_k, out=S.data), out=F.data)
            np.subtract(R.data, np.multiply(W.data, a_k, out=S.data),
                        out=R.data)
            return F, R, D, W, zz_new

        # X0 = alpha B^H is formed again for X, not held through the loop
        (F, *_), _, rep = _drive(
            "cgne", (QMatrix.zeros(B.cols, B.cols),
                     _deviation(B, Bh.scale(spec.alpha)), None, None, None),
            step, lambda state: (_fro_norm(state[1]), None), cfg.tol,
            cfg.maxit)
        X = F @ BhP
        np.add(Bh.scale(spec.alpha).data, X.data, out=X.data)
        return X, rep, None
    return _solve_tall(A, cfg, "cgne", solve)


# ---------------------------------------------------------------------------
# Rate diagnostics for sketch-and-project
# ---------------------------------------------------------------------------

def rsp_rate_bound(A: QMatrix, block_r: int) -> float:
    """Theoretical expected contraction factor 1 - r*sigma_min^2/||A||_F^2.

    The ratio does not depend on A's scale, so it is computed on A times
    2^-e, e from math.frexp of A's largest |entry|: an exact scaling that
    brings that entry into [0.5, 1), where sigma_min^2 and ||A||_F^2
    neither overflow nor underflow. A zero A, rank-deficient like any A
    with sigma_min = 0, gives 1.0."""
    require_finite(A)
    if not np.any(A.data):
        return 1.0
    e = math.frexp(float(np.abs(A.data).max()))[1]
    A = A.scale(math.ldexp(1.0, -e))
    # the embedding's singular values are A's, each twice
    smin = _lapack("SVD", np.linalg.svd, A.to_complex_adjoint(),
                   compute_uv=False)[-1]
    return 1.0 - block_r * float(smin) ** 2 / A.fro_norm() ** 2


def rsp_contraction_samples(A: QMatrix, sk: SketchConfig,
                            trials: int) -> np.ndarray:
    """Per-trial one-step ratios ||X1 - Adag||_F^2 / ||X0 - Adag||_F^2.
    A zero A, whose X0 is its Adag, raises RankDeficient."""
    if not np.any(A.data):
        raise RankDeficient("A is zero")
    Xstar = pinv_normal_eq(A)
    Ah = A.adjoint()
    X0 = Ah.scale(auto_alpha(A, Ah))
    d0 = (X0 - Xstar).fro_norm() ** 2
    stream = _SketchStream(A, sk, QuatRNG(sk.seed))
    out = np.empty(trials)
    for t in range(trials):
        X1 = _update(X0, stream)
        out[t] = (X1 - Xstar).fro_norm() ** 2 / d0
    return out
