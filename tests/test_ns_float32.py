"""The Newton-Schulz family's float32 phase (``solvers._ns_solve``): where
it runs, what it returns, and that every way it can fail gives back the
float64 run bit for bit."""

import math

import numpy as np
import pytest

from quatpinv import factor, solvers
from quatpinv._loop import _drive
from quatpinv.apps.lorenz import LorenzProblem, lorenz_build, lorenz_solve_ns
from quatpinv.errors import Divergence, NonFinite, QuatpinvError
from quatpinv.qmatrix import QMatrix, randn_qmat
from quatpinv.solvers import (SCHEDULE_BINARY, SCHEDULE_NAIVE, SCHEDULE_PS,
                              SketchConfig, SolverConfig, cgne_q,
                              eval_neumann_poly, hybrid_rsp_ns, ns_damped,
                              ns_hyperpower, penrose_residuals,
                              recurrence_deviations, rsp_column,
                              rsp_contraction_samples, rsp_rate_bound,
                              rsp_row)
from test_solvers import _with_spectrum

_NS = SolverConfig(tol=1e-8)
_PS8 = SolverConfig(order=8, schedule=SCHEDULE_PS, tol=1e-8)
_SOLVERS = {"ns": (ns_damped, _NS), "hyperpower-ps8": (ns_hyperpower, _PS8)}


def _float64_only(monkeypatch, solve, A, cfg):
    with monkeypatch.context() as m:
        m.setattr(solvers, "_F32_FROM", math.inf)
        return solve(A, cfg)


def _assert_same_run(got, want):
    (X, rep), (Xw, repw) = got, want
    assert X.data.tobytes() == Xw.data.tobytes()
    assert (rep.iterations, rep.residual_history, rep.penrose,
            rep.converged, rep.float32_steps) == (
        repw.iterations, repw.residual_history, repw.penrose,
        repw.converged, 0)


def _assert_history(rep):
    assert [k for k, _ in rep.residual_history] == list(
        range(rep.iterations + 1))


def test_drive_stagnation_stop():
    # residuals 3, 2, 2, 1: with stagnate the run stops unconverged at the
    # first one that does not fall; without it, it runs on to tol
    seq = [3.0, 2.0, 2.0, 1.0]

    def run(stagnate):
        return _drive("t", 0, lambda k, _: k + 1, lambda k: (seq[k], None),
                      1.0, 10, stagnate=stagnate)[2]
    rep = run(True)
    assert (rep.iterations, rep.converged) == (2, False)
    rep = run(False)
    assert (rep.iterations, rep.converged) == (3, True)


# the benchmark's two shapes, the wide one run as its tall adjoint
@pytest.mark.parametrize("m, n", [(220, 200), (200, 220)])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_float32_phase_runs_and_verifies(solver, seed, m, n, monkeypatch):
    solve, cfg = _SOLVERS[solver]
    A = randn_qmat(m, n, seed)
    X, rep = solve(A, cfg)
    assert rep.converged and rep.float32_steps > 0
    assert rep.iterations > rep.float32_steps
    assert max(rep.penrose) <= 1e-7
    assert max(penrose_residuals(A, X)) <= 1e-7
    _assert_history(rep)
    _, rep64 = _float64_only(monkeypatch, solve, A, cfg)
    assert rep64.iterations <= rep.iterations <= rep64.iterations + 1


# the benchmark's shapes, and spectra of kappa 10 and 30 that the gate lets
# through
_HAND_OVER = {
    "220x200": lambda: randn_qmat(220, 200, 1),
    "200x220": lambda: randn_qmat(200, 220, 1),
    "kappa10": lambda: _with_spectrum(220, np.geomspace(1.0, 1e-1, 200), 3),
    "kappa30": lambda: _with_spectrum(220, np.geomspace(1.0, 1 / 30, 200),
                                      3),
}


@pytest.mark.parametrize("case", sorted(_HAND_OVER))
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_hand_over_lies_in_the_row_space(solver, case, monkeypatch):
    # the phase steps the n x n P of X = P B^H in float32, and the float64
    # steps run on X: X lies in B's row space, so e4, which a part of X
    # outside it would show, meets the bound the float64 run meets
    solve, cfg = _SOLVERS[solver]
    A = _HAND_OVER[case]()
    n, m = sorted(A.shape)
    _, rep64 = _float64_only(monkeypatch, solve, A, cfg)
    states, real = [], solvers._drive

    def drive(method, state, *args, **kw):
        states.append((state.data.dtype, state.shape))
        return real(method, state, *args, **kw)
    monkeypatch.setattr(solvers, "_drive", drive)
    X, rep = solve(A, cfg)
    assert states == [(np.float32, (n, n)), (np.float64, (n, m))]
    assert rep.converged and rep.float32_steps > 0
    assert max(rep.penrose) <= 1e-7
    assert max(penrose_residuals(A, X)) <= 1e-7
    assert rep64.iterations <= rep.iterations <= rep64.iterations + 1


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_below_the_crossover_is_the_float64_run(solver, monkeypatch):
    solve, cfg = _SOLVERS[solver]
    n = solvers._F32_FROM
    assert solve(randn_qmat(n + 8, n, 3), cfg)[1].float32_steps > 0
    A = randn_qmat(n + 8, n - 1, 3)
    _assert_same_run(solve(A, cfg), _float64_only(monkeypatch, solve, A, cfg))


def test_damped_ns_has_no_float32_phase(monkeypatch):
    A, cfg = randn_qmat(220, 200, 1), SolverConfig(gamma=0.7, tol=1e-8)
    _assert_same_run(ns_damped(A, cfg),
                     _float64_only(monkeypatch, ns_damped, A, cfg))


def _raise_in_float32(error):
    real = solvers._drive

    def drive(method, state, *args, **kw):
        if isinstance(state, QMatrix) and state.data.dtype == np.float32:
            real(method, state, *args, **kw)
            raise error("planted")
        return real(method, state, *args, **kw)
    return drive


def _stall_float32_steps(after, count=None):
    # float32 steps past the first few leave X as it is; count[0] counts
    # the float32 steps
    real, count = solvers._ns_step, [0] if count is None else count

    def step(R, X, *args, **kw):
        if X.data.dtype != np.float32:
            return real(R, X, *args, **kw)
        count[0] += 1
        return real(R, X, *args, **kw) if count[0] <= after else X.copy()
    return step


def _nan_float32_deviation(after):
    real, count = solvers._deviation, [0]

    def deviation(A, X):
        F = real(A, X)
        if X.data.dtype == np.float32:
            count[0] += 1
            if count[0] > after:
                F.data[0, 0, 0] = np.nan
        return F
    return deviation


def _float32_phase_ends_at_its_start():
    # the phase converges, but hands over its first P, alpha I: X = P B^H
    # is then X_0, a start from which the float64 steps converge but whose
    # deviation lies above the hand-over level
    real = solvers._drive

    def drive(method, state, *args, **kw):
        end, F, rep = real(method, state, *args, **kw)
        if state.data.dtype == np.float32:
            assert rep.converged and rep.iterations > 0
            end = state
        return end, F, rep
    return drive


_PLANTS = {
    "non-finite": ("_deviation", lambda: _nan_float32_deviation(2)),
    "divergence": ("_drive", lambda: _raise_in_float32(Divergence)),
    "non-finite-drive": ("_drive", lambda: _raise_in_float32(NonFinite)),
    "stagnation": ("_ns_step", lambda: _stall_float32_steps(2)),
    "hand-over-above-level": ("_drive", _float32_phase_ends_at_its_start),
}


@pytest.mark.parametrize("plant", sorted(_PLANTS))
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_failed_float32_phase_gives_the_float64_run(solver, plant,
                                                    monkeypatch):
    solve, cfg = _SOLVERS[solver]
    A = randn_qmat(88, 80, 4)
    assert solve(A, cfg)[1].float32_steps > 0
    want = _float64_only(monkeypatch, solve, A, cfg)
    name, make = _PLANTS[plant]
    monkeypatch.setattr(solvers, name, make())
    _assert_same_run(solve(A, cfg), want)


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_stagnating_float32_phase_stops_at_once(solver, monkeypatch):
    # the first step that leaves the residual as it was is the last
    solve, cfg = _SOLVERS[solver]
    count = [0]
    monkeypatch.setattr(solvers, "_ns_step", _stall_float32_steps(2, count))
    solve(randn_qmat(88, 80, 4), cfg)
    assert count[0] == 3


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_float32_phase_out_of_steps_gives_the_float64_run(solver,
                                                         monkeypatch):
    # 3 steps do not reach the hand-over level from alpha A^H
    solve, cfg = _SOLVERS[solver]
    cfg = SolverConfig(order=cfg.order, schedule=cfg.schedule, tol=1e-8,
                       maxit=3)
    A = randn_qmat(220, 200, 1)
    _assert_same_run(solve(A, cfg), _float64_only(monkeypatch, solve, A, cfg))


def test_float64_steps_out_of_steps_keep_the_mixed_run(monkeypatch):
    # a tol below float64's floor: the float64 steps run to maxit, and the
    # solve ends there, unconverged, without running again from X_0
    cfg = SolverConfig(tol=1e-30, maxit=20)
    A = randn_qmat(88, 80, 4)
    runs = []
    real = solvers._drive

    def drive(method, state, *args, **kw):
        runs.append(state.data.dtype)
        return real(method, state, *args, **kw)
    monkeypatch.setattr(solvers, "_drive", drive)
    X, rep = ns_damped(A, cfg)
    assert runs == [np.float32, np.float64]
    assert not rep.converged and 0 < rep.float32_steps < rep.iterations == 20
    _assert_history(rep)
    assert max(rep.penrose) <= 1e-7


# the binary schedule takes p = 2^q only
@pytest.mark.parametrize("schedule, p", [
    (s, p) for s in (SCHEDULE_NAIVE, SCHEDULE_BINARY, SCHEDULE_PS)
    for p in range(2, 13) if s != SCHEDULE_BINARY or not p & (p - 1)])
def test_neumann_poly_keeps_float32(schedule, p):
    R, X = randn_qmat(12, 12, 5).scale(0.1), randn_qmat(12, 10, 6)
    got = eval_neumann_poly(QMatrix._of(R.data.astype(np.float32)),
                            QMatrix._of(X.data.astype(np.float32)), p,
                            schedule)
    assert got.data.dtype == np.float32
    want = eval_neumann_poly(R, X, p, schedule)
    assert np.allclose(got.data, want.data, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("p", [3, 4, 5, 7, 8, 10])
def test_float32_phase_stays_float32_for_every_ps_order(p, monkeypatch):
    # every PS order, the ones whose last block is the identity among them
    real, steps = solvers._ns_step, []

    def step(R, X, *args, **kw):
        T = real(R, X, *args, **kw)
        if X.data.dtype == np.float32:
            steps.append(T.data.dtype)
        return T
    monkeypatch.setattr(solvers, "_ns_step", step)
    cfg = SolverConfig(order=p, schedule=SCHEDULE_PS, tol=1e-8)
    rep = ns_hyperpower(randn_qmat(88, 80, 4), cfg)[1]
    assert rep.converged and rep.float32_steps > 0
    assert steps == [np.float32] * rep.float32_steps


def _as_float32(A):
    # A rounded to float32, and the same values held in float64
    A32 = QMatrix(A.data.astype(np.float32))
    return A32, QMatrix(A32.data.astype(np.float64))


def _gram(A):
    # the Gram matrix of A's values, rounded to float32, in A's dtype
    B = QMatrix(A.data.astype(np.float64))
    G = (B.adjoint() @ B).data.astype(np.float32)
    return QMatrix(G.astype(A.data.dtype))


def _same(got, want):
    if isinstance(want, QMatrix):
        assert got.data.dtype == np.float64
        assert got.data.tobytes() == want.data.tobytes()
    elif isinstance(want, tuple):  # a solver's (X, report)
        _same(got[0], want[0])
        assert (got[1].residual_history, got[1].penrose,
                got[1].float32_steps) == (want[1].residual_history,
                                          want[1].penrose,
                                          want[1].float32_steps)
    else:
        assert got == want


# the sketch solvers run a few steps: their bits, not convergence, are
# compared
_SHORT = SolverConfig(tol=1e-8, maxit=6)
_SK = SketchConfig(block_r=8, seed=3)
_ENTRIES = {
    "pinv_qsvd": factor.pinv_qsvd,
    "qsvd": lambda A: factor.qsvd(A).V,
    "pinv_normal_eq": factor.pinv_normal_eq,
    "thin_qr": lambda A: factor.thin_qr(A).Q,
    "hpd_solve": lambda A: factor.hpd_solve(_gram(A), A.adjoint()),
    "rsp_rate_bound": lambda A: rsp_rate_bound(A, 4),
    "ns": lambda A: ns_damped(A, _NS),
    "hyperpower-ps8": lambda A: ns_hyperpower(A, _PS8),
    "cgne": lambda A: cgne_q(A, SolverConfig(tol=1e-8)),
    "cgne-nystrom": lambda A: cgne_q(A, SolverConfig(tol=1e-8),
                                     precond=_SK),
    "recurrence": lambda A: recurrence_deviations(A, SolverConfig()),
    "rsp_column": lambda A: rsp_column(A, _SHORT, _SK),
    "rsp_row": lambda A: rsp_row(A.adjoint(), _SHORT, _SK),
    "hybrid_rsp_ns": lambda A: hybrid_rsp_ns(
        A, _SHORT, SketchConfig(block_r=8, cycle_T=2, seed=3)),
    "rsp_contraction_samples": lambda A: rsp_contraction_samples(
        A, _SK, 3).tolist(),
}


@pytest.mark.parametrize("m, n", [(60, 50), (88, 80)])
@pytest.mark.parametrize("entry", sorted(_ENTRIES))
def test_float32_input_is_solved_as_float64(entry, m, n):
    # a float32 A gives, bit for bit, what its values give in float64
    A32, A64 = _as_float32(randn_qmat(m, n, 7))
    f = _ENTRIES[entry]
    _same(f(A32), f(A64))


def test_float32_lorenz_system_is_solved_as_float64():
    X, Y, _ = lorenz_build(LorenzProblem(T_end=1.0))
    (X32, X64), (Y32, Y64) = _as_float32(X), _as_float32(Y)
    _same(lorenz_solve_ns(X32, Y32)[0], lorenz_solve_ns(X64, Y64)[0])


# kappa(A) from 1e2 to 1e5 at 120 x 100; the probe reads bound / low of
# 1.4e3 to 2.3e4 on them, so the kappa gate keeps the float32 phase off
_ILL = [(c, s) for c in (1e-2, 1e-3, 1e-4, 1e-5) for s in (1, 2)]


@pytest.mark.parametrize("c, s", _ILL)
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_ill_conditioned_without_the_gate(solver, c, s, monkeypatch):
    # with the gate off every fallback must still hold: the run ends within
    # 2x the float64 run's largest Penrose residual (or 1e-10), or is that
    # run bit for bit, and it raises only what the float64 run raises
    solve, cfg = _SOLVERS[solver]
    A = _with_spectrum(120, np.geomspace(1.0, c, 100), s)
    X64, rep64 = _float64_only(monkeypatch, solve, A, cfg)
    assert solve(A, cfg)[0].data.tobytes() == X64.data.tobytes()
    monkeypatch.setattr(solvers, "_F32_KAPPA2", math.inf)
    try:
        X, rep = solve(A, cfg)
    except QuatpinvError:
        pytest.fail("raised where the float64 run does not")
    assert np.isfinite(X.data).all() and rep.converged == rep64.converged
    if rep.float32_steps == 0:
        _assert_same_run((X, rep), (X64, rep64))
    else:
        _assert_history(rep)
        assert max(rep.penrose) <= max(2.0 * max(rep64.penrose), 1e-10)
