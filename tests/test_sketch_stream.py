"""The sketch stream against one-sketch-at-a-time stepping.

The references below are sketch-and-project loops without the stream:
each step (``rsp_helpers.ref_col_step``) draws its own sketch, forms
Y = A Omega and Y^+ with the 2-D routines, and redraws a rejected sketch,
up to 10 times. Y^+ is the Cholesky solve of Y^H Y + ridge I against Y^H,
and a sketch whose pivot or residual check fails is rejected. rsp_row's
reference is the column loop on A^H, adjointed. Both take alpha and the
constants of the solvers' accelerated step from one Lanczos probe, and
write that step, and the rule that picks it or the plain step, out again
here. The references share only the stopping loop `_drive`, the test
sketch, the probe and the 2-D factor routines with the solvers.
Every solver that forms its sketches ahead, a block at a time, must return
the same bits: X, iteration count, residual history and Penrose residuals,
and raise SketchFailure at the same step.
"""

import math

import numpy as np
import pytest

from quatpinv import _qops, factor, solvers
from quatpinv.errors import SketchFailure
from quatpinv.qmatrix import QMatrix, randn_qmat
from quatpinv.rng import QuatRNG
from quatpinv.solvers import (SCHEDULE_PS, SketchConfig, SolverConfig,
                              hybrid_rsp_ns, rsp_column,
                              rsp_contraction_samples, rsp_row)
from rsp_helpers import _rsp_col_step, ref_col_step


def _ref_run(method, A, cfg, sk, step, alpha):
    rng = solvers.QuatRNG(sk.seed)
    X, _, rep = solvers._drive(method, A.adjoint().scale(alpha), step(rng),
                               solvers._test_sketch_measure(A, sk, rng),
                               cfg.tol, cfg.maxit)
    return X, rep


def _ref_col_run(method, A, cfg, sk):
    # one Lanczos probe of A^H A gives alpha = 0.99 / theta_max and
    # mu = r low / ||A||_F^2; with nu = 1.5 n / r, the run takes the
    # accelerated step where 0 < sqrt(mu / nu) < 0.2, on X and
    # W = a (V - X) from W_0 = 0: Y = X + W, X+ = step(Y),
    # W+ = beta (1 - a) W + a (gamma - 1) (X+ - Y)
    low, top, _ = solvers._gram_ritz(A)
    r = sk.block_r
    mu, nu = r * low / A.fro_norm() ** 2, 1.5 * A.cols / r
    q = math.sqrt(mu / nu)
    beta, gamma = 1.0 - q, 1.0 / math.sqrt(mu * nu)
    a = 1.0 / (1.0 + gamma * nu)
    c_w, c_g = beta * (1.0 - a), a * (gamma - 1.0)

    def step(rng):
        W = [QMatrix.zeros(A.cols, A.rows)]

        def accelerated(X, _):
            Y = X + W[0]
            X_next = ref_col_step(A, Y, sk, rng)
            W[0] = W[0].scale(c_w) + (X_next - Y).scale(c_g)
            return X_next
        if 0.0 < q < 0.2:
            return accelerated
        return lambda X, _: ref_col_step(A, X, sk, rng)
    return _ref_run(method, A, cfg, sk, step, 0.99 / top)


def _verified(B, X, rep, wide=False):
    # the report as _solve_tall makes it, for X of B = A or, for a wide A,
    # B = A^H: the Penrose residuals from X's deviation I - XB, with e3
    # and e4 swapped for a wide A; returns A's X
    e1, e2, e3, e4 = solvers._penrose_from_deviation(
        B, X, solvers._deviation(B, X))
    rep.penrose = (e1, e2, e4, e3) if wide else (e1, e2, e3, e4)
    return (X.adjoint() if wide else X), rep


def _ref_rsp_column(A, cfg, sk):
    return _verified(A, *_ref_col_run("rsp", A, cfg, sk))


def _ref_rsp_row(A, cfg, sk):
    B = A.adjoint()
    return _verified(B, *_ref_col_run("rsp-row", B, cfg, sk), wide=True)


def _ref_hybrid(A, cfg, sk):
    def step(rng):
        def cycle(X, _):
            for _ in range(sk.cycle_T):
                X = ref_col_step(A, X, sk, rng)
            return solvers._ns_step(solvers._deviation(A, X), X, cfg.order,
                                    SCHEDULE_PS)
        return cycle
    return _verified(A, *_ref_run(
        f"hybrid-T{sk.cycle_T}-p{cfg.order}", A, cfg, sk, step,
        solvers._probe(A, alpha=cfg.alpha).alpha))


def _ref_contraction(A, sk, trials):
    Xstar = solvers.pinv_normal_eq(A)
    X0 = A.adjoint().scale(solvers.auto_alpha(A))
    d0 = (X0 - Xstar).fro_norm() ** 2
    rng = solvers.QuatRNG(sk.seed)
    return np.array([(ref_col_step(A, X0, sk, rng) - Xstar).fro_norm() ** 2
                     / d0 for _ in range(trials)])


class _PlantedRNG(QuatRNG):
    """QuatRNG(seed) whose sketches numbered in bad (0 is the first sketch;
    draw 0 is the test sketch) come out with their first column zero and
    the others scaled by 1e3: Y = A Omega then has a zero column, so the
    first Cholesky pivot of Y^H Y + ridge I is the ridge, and the scaling
    puts the pivot threshold, 1e-14 ||Y^H Y + ridge I||_F, far above it at
    every size used here. The sketch is rejected. A block draw (the
    stream's) counts and plants each of its sketches as the one-sketch
    draws (the references') do."""

    def __init__(self, seed, bad=()):
        super().__init__(seed)
        self.bad = {i + 1 for i in bad}
        self.draws = 0

    def normals(self, shape, count=None):
        z = super().normals(shape, count)
        for item in z[None] if count is None else z:
            if self.draws in self.bad:
                item[:, 0] = 0.0
                item[:, 1:] *= 1e3
            self.draws += 1
        return z


# the Cholesky kernel itself, which _plant wraps however often it runs
_CHOLESKY = factor._cholesky


def _plant(monkeypatch, sk, bad):
    """Make the sketches numbered in bad fail: for rsp_column and hybrid
    by a zero column (a rank-deficient Y); for rsp_row by a failed Cholesky
    pivot, alone or in a stack."""
    if sk is not _SK_ROW:
        monkeypatch.setattr(solvers, "QuatRNG",
                            lambda seed: _PlantedRNG(seed, bad))
        return
    bad = set(bad)
    seen = [0]

    def planted(Gd, *embedding):
        if Gd.ndim == 3:
            i = seen[0]
            seen[0] += 1
            return None if i in bad else _CHOLESKY(Gd, *embedding)
        L, ok = _CHOLESKY(Gd, *embedding)
        ok &= [seen[0] + j not in bad for j in range(len(Gd))]
        seen[0] += len(Gd)
        return L, ok
    monkeypatch.setattr(factor, "_cholesky", planted)


_SK = SketchConfig(block_r=8, test_s=5, cycle_T=5, seed=7)
_SK_ROW = SketchConfig(block_r=8, test_s=5, seed=9)
_RSP = SolverConfig(tol=1e-9, maxit=60)
# name -> (solver, reference, A, config, sketch config)
_CASES = {
    "rsp_column": (rsp_column, _ref_rsp_column, randn_qmat(30, 20, 1), _RSP,
                   _SK),
    "rsp_row": (rsp_row, _ref_rsp_row, randn_qmat(20, 30, 3), _RSP, _SK_ROW),
    # sqrt(mu / nu) = 0.25: the plain step
    "rsp_column_plain": (rsp_column, _ref_rsp_column, randn_qmat(30, 10, 1),
                         _RSP, SketchConfig(block_r=6, test_s=5, seed=7)),
    "hybrid_rsp_ns": (hybrid_rsp_ns, _ref_hybrid, randn_qmat(40, 30, 4),
                      SolverConfig(tol=1e-12, maxit=6), _SK),
}
# rejected sketches: runs of accepted and rejected ones within a block of
# the stream and across blocks, 9 rejected in a row among them
_MIXED = (1, 2, 4, 15, 16, 17, 18, 19, 29, 30, 31, 32, 33, 34, 35, 36, 37)


def _pinned(result):
    X, rep = result
    return (X.data.tobytes(), rep.iterations, rep.residual_history,
            rep.penrose, rep.converged)


def _count_measures(monkeypatch):
    """A list that grows by one with every residual measure of a solve."""
    counts = []
    measure = solvers._test_sketch_measure

    def counting(*args, **kw):
        inner = measure(*args, **kw)

        def wrapped(X):
            counts.append(None)
            return inner(X)
        return wrapped
    monkeypatch.setattr(solvers, "_test_sketch_measure", counting)
    return counts


def test_rsp_cases_cover_both_steps():
    def accelerated(case):
        _, _, A, _, sk = _CASES[case]
        B = A if A.rows >= A.cols else A.adjoint()
        return solvers._accel_constants(B, sk.block_r,
                                        solvers._probe(B))[1]
    assert accelerated("rsp_column") and accelerated("rsp_row")
    assert accelerated("rsp_column_plain") is None


@pytest.mark.parametrize("bad", [(), _MIXED], ids=["plain", "mixed"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_stream_bitwise_equal_one_sketch_at_a_time(case, bad, monkeypatch):
    solve, ref, A, cfg, sk = _CASES[case]
    _plant(monkeypatch, sk, bad)
    before = A.data.tobytes()
    got = _pinned(solve(A, cfg, sk))
    assert A.data.tobytes() == before
    _plant(monkeypatch, sk, bad)
    assert got == _pinned(ref(A, cfg, sk))
    assert got[1] > 1


@pytest.mark.parametrize("bad", [(), _MIXED], ids=["plain", "mixed"])
def test_contraction_samples_bitwise_equal_one_sketch_at_a_time(bad,
                                                                monkeypatch):
    # each trial is one step from X0 with the next usable sketch; the rate
    # diagnostic draws no test sketch, so its sketches start at draw 0
    monkeypatch.setattr(solvers, "QuatRNG",
                        lambda seed: _PlantedRNG(seed, [i - 1 for i in bad]))
    A = randn_qmat(30, 10, 3)
    sk = SketchConfig(block_r=4, seed=4)
    got = rsp_contraction_samples(A, sk, trials=40)
    assert got.tobytes() == _ref_contraction(A, sk, 40).tobytes()


@pytest.mark.parametrize("first", [0, 24], ids=["at-once", "later"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_stream_rejected_run_fails_at_the_same_step(case, first,
                                                    monkeypatch):
    # every sketch from number `first` on is rejected: SketchFailure,
    # raised by the step that meets the tenth of them in a row
    solve, ref, A, cfg, sk = _CASES[case]
    _plant(monkeypatch, sk, range(first, 1000))
    counts = _count_measures(monkeypatch)
    with pytest.raises(SketchFailure):
        solve(A, cfg, sk)
    steps = len(counts)
    _plant(monkeypatch, sk, range(first, 1000))
    counts.clear()
    with pytest.raises(SketchFailure):
        ref(A, cfg, sk)
    assert len(counts) == steps
    assert (steps == 1) == (first == 0)


@pytest.mark.parametrize("case", sorted(_CASES))
def test_look_ahead_failures_the_loop_never_reaches(case, monkeypatch):
    # 10 rejected sketches in a row right after the last sketch a short run
    # takes: the stream forms them ahead, yet nothing is raised and the
    # result is the reference's
    solve, ref, A, cfg, sk = _CASES[case]
    short = SolverConfig(tol=cfg.tol, maxit=3 if case == "hybrid_rsp_ns"
                         else 20)
    used = short.maxit * (sk.cycle_T if case == "hybrid_rsp_ns" else 1)
    _plant(monkeypatch, sk, range(used, used + 10))
    got = _pinned(solve(A, short, sk))
    _plant(monkeypatch, sk, range(used, used + 10))
    assert got == _pinned(ref(A, short, sk))
    assert got[1] == short.maxit


def test_rsp_col_step_draws_only_the_sketches_it_uses():
    # the one-step contract: after k steps the generator stands where the
    # reference's does, rejected sketches included
    A = randn_qmat(30, 10, 12)
    sk = SketchConfig(block_r=4, seed=2)
    X = Xr = A.adjoint().scale(solvers.auto_alpha(A))
    rng, rng_ref = _PlantedRNG(2, [0, 3]), _PlantedRNG(2, [0, 3])
    rng.draws = rng_ref.draws = 1  # no test sketch here
    for _ in range(6):
        X = _rsp_col_step(A, X, sk, rng)
        Xr = ref_col_step(A, Xr, sk, rng_ref)
        assert X.data.tobytes() == Xr.data.tobytes()
        assert rng.draws == rng_ref.draws
    assert rng.normals((3,)).tobytes() == rng_ref.normals((3,)).tobytes()


# (shape, block_r, the factors on slabs): Y and Y^+ both, Y alone (the
# sketch workload's hybrid input), and neither
@pytest.mark.parametrize("shape, r, slabbed",
                         [((30, 20), 8, (True, True)),
                          ((120, 100), 8, (True, False)),
                          ((200, 150), 8, (False, False))])
def test_stream_products_bitwise_equal_qmatmul(shape, r, slabbed):
    # every product a block hands out, on the stream's slabs or through
    # qmatmul, is qmatmul's on that block's Y and Y^+; the slabs of every
    # block live in the one buffer the stream allocated with its first
    A = randn_qmat(*shape, 5)
    m, n = shape
    stream = solvers._SketchStream(A, SketchConfig(block_r=r, test_s=5,
                                                   seed=3), QuatRNG(3))
    assert stream._slabbed == slabbed
    rng = np.random.default_rng(1)
    buffers = set()
    for _ in range(2 * stream.block):
        i = stream.take()
        buffers.add(id(stream._slabs))
        Y, Ydag = stream.factors[0][i], stream.factors[1][i]
        x = rng.standard_normal((n, m, 4))
        c = rng.standard_normal((n, r, 4))
        assert stream.times(x, i, 0).tobytes() == _qops.qmatmul(x, Y).tobytes()
        assert (stream.times(c, i, 1).tobytes()
                == _qops.qmatmul(c, Ydag).tobytes())
    assert len(buffers) == 1
    assert (stream._slabs is None) == (slabbed == (False, False))
