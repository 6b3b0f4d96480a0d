"""The sketch stream against one-sketch-at-a-time stepping.

The references below are sketch-and-project loops without the stream:
each step (``rsp_helpers.ref_col_step``) draws its own sketch, forms
Y = A Omega and Y^+ with the 2-D routines, and redraws a rejected sketch,
up to 10 times. Y^+ is the Cholesky solve of Y^H Y + ridge I against Y^H,
and a sketch whose pivot or residual check fails is rejected. rsp_row's
reference is the column loop on A^H, adjointed, with alpha estimated on
A. Both add the solvers' heavy-ball momentum, with its rule for beta
written out again here. The references share only the stopping loop
`_drive`, the test sketch and the 2-D factor routines with the solvers.
Every solver that forms its sketches ahead, a block at a time, must return
the same bits: X, iteration count, residual history and Penrose residuals,
and raise SketchFailure at the same step.
"""

import math

import numpy as np
import pytest

from quatpinv import factor, solvers
from quatpinv.errors import SketchFailure
from quatpinv.qmatrix import randn_qmat
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


def _ref_col_run(method, A, cfg, sk, alpha):
    def step(rng):
        # heavy-ball momentum: 10 plain steps, then X + beta (X - X_prev)
        # added to each step, beta set once from the residuals r_0 and r_10
        # that the steps are handed
        seen, prev = [], [None]

        def heavy_ball(X, res):
            seen.append(res)
            beta = 0.0
            if len(seen) > 10:
                rate = min(1.0, (seen[10] / seen[0]) ** 0.1)
                beta = min(0.45, 0.6 * (1.0 - math.sqrt(1.0 - rate)) ** 2)
            X_next = ref_col_step(A, X, sk, rng)
            if beta:
                X_next = X_next + (X - prev[0]).scale(beta)
            prev[0] = X
            return X_next
        return heavy_ball
    return _ref_run(method, A, cfg, sk, step, alpha)


def _ref_rsp_column(A, cfg, sk):
    return solvers._verified(
        A, *_ref_col_run("rsp", A, cfg, sk, solvers._alpha(A, cfg)))


def _ref_rsp_row(A, cfg, sk):
    X, rep = _ref_col_run("rsp-row", A.adjoint(), cfg, sk,
                          solvers._alpha(A, cfg))
    return solvers._verified(A, X.adjoint(), rep)


def _ref_hybrid(A, cfg, sk):
    def step(rng):
        def cycle(X, _):
            for _ in range(sk.cycle_T):
                X = ref_col_step(A, X, sk, rng)
            return solvers._ns_step(solvers._deviation(A, X), X, cfg.order,
                                    SCHEDULE_PS)
        return cycle
    return solvers._verified(A, *_ref_run(
        f"hybrid-T{sk.cycle_T}-p{cfg.order}", A, cfg, sk, step,
        solvers._alpha(A, cfg)))


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
    every size used here. The sketch is rejected."""

    def __init__(self, seed, bad=()):
        super().__init__(seed)
        self.bad = {i + 1 for i in bad}
        self.draws = 0

    def normals(self, shape):
        z = super().normals(shape)
        if self.draws in self.bad:
            z[:, 0] = 0.0
            z[:, 1:] *= 1e3
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

    def planted(Gd):
        if Gd.ndim == 3:
            i = seen[0]
            seen[0] += 1
            return None if i in bad else _CHOLESKY(Gd)
        L, ok = _CHOLESKY(Gd)
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
