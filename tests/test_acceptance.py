"""Acceptance gate: ten seeded criteria, one PASS/FAIL line each.

Every expected value is either computed by an independent oracle inside the
test (closed-form pseudoinverse, recurrence replay, numpy FFT parity is not
used -- the closed-form division inside the deblur pipeline is the oracle)
or asserted at a pinned tolerance on a pinned seeded instance.
"""

import time

import numpy as np
import pytest

from quatpinv.factor import pinv_normal_eq, pinv_qsvd, thin_qr
from quatpinv.qmatrix import QMatrix, randn_qmat
from quatpinv.rng import QuatRNG
from quatpinv.solvers import (SCHEDULE_BINARY, SCHEDULE_NAIVE, SCHEDULE_PS,
                              SketchConfig, SolverConfig, auto_alpha, cgne_q,
                              eval_neumann_poly, hybrid_rsp_ns, ns_damped,
                              ns_hyperpower, recurrence_deviations, rsp_column,
                              rsp_contraction_samples, rsp_rate_bound,
                              rsp_row)
from quatpinv.apps.completion import (MODE_U_OPT, CompletionProblem, complete,
                                      cur_reconstruct, sample_cur_indices)
from quatpinv.apps.deblur import DeblurProblem, deblur_fft_ns
from quatpinv.apps.images import image_to_qmat, synthetic_image
from quatpinv.apps.lorenz import LorenzProblem, lorenz_build, lorenz_solve_ns
from quatpinv.cli import main as cli_main
from rsp_helpers import _rsp_col_step, square_products


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_penrose_residuals():
    """NS, auto-alpha, gamma=1, 35 iterations, n x (n+50) wide instances."""
    worst = 0.0
    t0 = time.perf_counter()
    for n in (20, 50, 100):
        for seed in range(10):
            A = randn_qmat(n, n + 50, seed)
            cfg = SolverConfig(gamma=1.0, tol=0.0, maxit=35)
            _, rep = ns_damped(A, cfg)
            worst = max(worst, max(rep.penrose))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-8 and wall < 60.0
    verdict(1, ok, f"max e1-e4 = {worst:.3e} (<= 1e-8), "
                   f"30 runs in {wall:.1f}s (< 60s)")


def test_criterion_02_exact_recurrences():
    """F <- (1-g)F + gF^2 and R <- R^p hold to 1e-11 per iteration."""
    A = randn_qmat(10, 6, 0)
    worst = 0.0
    for gamma in (0.5, 1.0):
        devs = recurrence_deviations(A, SolverConfig(gamma=gamma), "ns", 10)
        worst = max(worst, max(d for _, d in devs))
    for p in (2, 3, 4, 8):
        devs = recurrence_deviations(A, SolverConfig(order=p), "hyperpower", 5)
        worst = max(worst, max(d for _, d in devs))
    verdict(2, worst <= 1e-11, f"max recurrence deviation = {worst:.3e} "
                               "(<= 1e-11) on 10x6")


def test_criterion_03_schedules_and_counts():
    """Schedules agree to 1e-11 relative; binary squaring counts 2@p8, 3@p16."""
    R = randn_qmat(8, 8, 1).scale(0.05)
    X = randn_qmat(8, 5, 2)
    worst = 0.0
    for p in (2, 4, 8, 16):
        Yn = eval_neumann_poly(R, X, p, SCHEDULE_NAIVE)
        Yb = eval_neumann_poly(R, X, p, SCHEDULE_BINARY)
        Yp = eval_neumann_poly(R, X, p, SCHEDULE_PS)
        scale = max(Yn.fro_norm(), 1.0)
        worst = max(worst, (Yn - Yb).fro_norm() / scale,
                    (Yn - Yp).fro_norm() / scale)
    counts = {p: square_products(R, X, p, SCHEDULE_BINARY) for p in (8, 16)}
    ok = worst <= 1e-11 and counts[8] == 2 and counts[16] == 3
    verdict(3, ok, f"max schedule gap = {worst:.3e} (<= 1e-11), "
                   f"binary squarings p8={counts[8]} (=2), p16={counts[16]} (=3)")


def _solve_all(A):
    cfg = SolverConfig(tol=1e-11, maxit=100)
    sk = SketchConfig(block_r=4, seed=0)
    out = {"ns": ns_damped(A, cfg)[0],
           "hyperpower": ns_hyperpower(A, SolverConfig(order=4, tol=1e-11,
                                                       maxit=60))[0],
           "cgne": cgne_q(A, SolverConfig(tol=1e-11, maxit=400))[0]}
    rsp_cfg = SolverConfig(tol=1e-9, maxit=3000)
    if A.rows >= A.cols:
        out["rsp"] = rsp_column(A, rsp_cfg, sk)[0]
        out["hybrid"] = hybrid_rsp_ns(A, SolverConfig(order=4, tol=1e-11,
                                                      maxit=30), sk)[0]
    else:
        out["rsp"] = rsp_row(A, rsp_cfg, sk)[0]
        # hybrid is defined for the column case; the wide pseudoinverse
        # follows from the adjoint identity (A^H)+ = (A+)^H
        out["hybrid"] = hybrid_rsp_ns(A.adjoint(), SolverConfig(
            order=4, tol=1e-11, maxit=30), sk)[0].adjoint()
    return out


def test_criterion_04_oracle_equivalence():
    """Every solver's X vs pinv_normal_eq and pinv_qsvd, 1e-6 relative."""
    worst = 0.0
    worst_tag = ""
    for side, (m, n) in (("tall", (15, 10)), ("wide", (10, 15))):
        for seed in range(20):
            A = randn_qmat(m, n, seed)
            X_ne = pinv_normal_eq(A)
            X_sv = pinv_qsvd(A)
            scale = X_ne.fro_norm()
            for name, X in _solve_all(A).items():
                gap = max((X - X_ne).fro_norm(), (X - X_sv).fro_norm()) / scale
                if gap > worst:
                    worst, worst_tag = gap, f"{name}/{side}/seed{seed}"
    verdict(4, worst <= 1e-6, f"max solver-vs-oracle gap = {worst:.3e} "
                              f"(<= 1e-6), worst at {worst_tag}")


def test_criterion_05_rsp_monotone_and_rate():
    """Error nonincreasing each step; empirical rate <= bound + 3 SE."""
    A = randn_qmat(30, 10, 3)
    Xstar = pinv_normal_eq(A)
    mono_ok = True
    rate_ok = True
    detail = []
    for r in (1, 4, 8):
        sk = SketchConfig(block_r=r, seed=r)
        X = A.adjoint().scale(auto_alpha(A))
        prev = (X - Xstar).fro_norm()
        rng = QuatRNG(r)
        # roundoff allowance: once the error sits at the 1e-16 floor the
        # exact projection inequality can wiggle by machine precision
        floor = 1e-14 * Xstar.fro_norm()
        for _ in range(200):
            X = _rsp_col_step(A, X, sk, rng)
            cur = (X - Xstar).fro_norm()
            mono_ok &= cur <= prev * (1 + 1e-12) + floor
            prev = cur
        samples = rsp_contraction_samples(A, sk, trials=100)
        bound = rsp_rate_bound(A, r)
        se = samples.std(ddof=1) / np.sqrt(samples.size)
        rate_ok &= samples.mean() <= bound + 3 * se
        detail.append(f"r={r}: mean {samples.mean():.4f} <= "
                      f"{bound:.4f}+3SE({se:.4f})")
    verdict(5, mono_ok and rate_ok,
            f"monotone={mono_ok}; " + "; ".join(detail))


def test_criterion_06_cgne():
    """Orthonormal columns -> exact in 1 step; f strictly decreases."""
    Q = thin_qr(randn_qmat(9, 4, 4)).Q
    X, rep = cgne_q(Q, SolverConfig(tol=1e-13, maxit=5))
    one_step = rep.iterations == 1
    gap = (X - Q.adjoint()).fro_norm()
    strict = True
    for seed in range(5):
        A = randn_qmat(12, 7, seed)
        _, r = cgne_q(A, SolverConfig(tol=1e-12, maxit=200))
        res = [v for _, v in r.residual_history]
        strict &= all(b < a for a, b in zip(res, res[1:]))
    ok = one_step and gap <= 1e-12 and strict
    verdict(6, ok, f"one-step gap = {gap:.3e} (<= 1e-12) in "
                   f"{rep.iterations} iter; strict descent on 5 seeds: {strict}")


def test_criterion_07_lorenz_envelope():
    """Seeded N=50 problem: RelRes <= 1e-6 in <= 80 iterations, < 5 s."""
    X, Y, _ = lorenz_build(LorenzProblem(N=50, seed=0))
    w, rep = lorenz_solve_ns(X, Y, tol=1e-6, maxit=80)
    relres = (X @ w - Y).fro_norm() / Y.fro_norm()
    ok = rep.converged and rep.iterations <= 80 and rep.wall_time < 5.0 \
        and relres <= 1e-6
    verdict(7, ok, f"RelRes = {relres:.3e} (<= 1e-6) in {rep.iterations} "
                   f"iters (<= 80), {rep.wall_time:.2f}s (< 5s)")


def test_criterion_08_deblur_parity():
    """FFT-NS matches closed-form division: 1e-10 Frobenius, 0.01 dB."""
    worst_gap = 0.0
    worst_db = 0.0
    for n in (32, 64, 128):
        img = image_to_qmat(synthetic_image(n, seed=1))
        for lam in (0.02, 0.05):
            prob = DeblurProblem(image=img, lam=lam, seed=0, tol=1e-13)
            _, m = deblur_fft_ns(prob)
            worst_gap = max(worst_gap, m["rel_gap"])
            worst_db = max(worst_db, abs(m["psnr_ns"] - m["psnr_closed"]))
    ok = worst_gap <= 1e-10 and worst_db <= 0.01
    verdict(8, ok, f"max rel gap = {worst_gap:.3e} (<= 1e-10), "
                   f"max dPSNR = {worst_db:.3e} dB (<= 0.01) over "
                   "N in {32,64,128} x lambda in {0.02,0.05}")


def test_criterion_09_cur():
    """CUR exactness at rank 5, then 25 imputation rounds: nonincreasing
    observed residual over the final 10 (pinned seeded instance)."""
    A = randn_qmat(60, 5, 4) @ randn_qmat(60, 5, 1004).adjoint()
    I, J = sample_cur_indices(60, 60, 5, 2)
    assert len(set(I)) == 5 and len(set(J)) == 5   # sampled C, R have rank r
    X = cur_reconstruct(A, I, J, MODE_U_OPT, pinv_normal_eq)
    exact_gap = (X - A).fro_norm() / A.fro_norm()

    mask = (QuatRNG(5).uniform((60, 60)) > 0.7).astype(float)
    prob = CompletionProblem(M=A.mask(mask), mask=mask, rank=5, iters=25,
                             col_idx=J, row_idx=I)
    _, hist = complete(prob, pinv_normal_eq, MODE_U_OPT)
    tail = hist[-10:]
    tail_ok = all(b <= a for a, b in zip(tail, tail[1:]))
    ok = exact_gap <= 1e-8 and tail_ok and hist[-1] <= hist[0]
    verdict(9, ok, f"CUR exactness gap = {exact_gap:.3e} (<= 1e-8); "
                   f"observed residual {hist[0]:.2f} -> {hist[-1]:.2f}, "
                   f"final-10 nonincreasing: {tail_ok}")


def test_criterion_10_determinism(tmp_path):
    """Identical seeds -> identical CSV apart from wall_s."""
    argv = ["pinv-bench", "--sizes", "20,50", "--seeds", "0,1",
            "--method", "ns", "--maxit", "35", "--tol", "0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(argv + ["--out", str(a)]) == 0
    assert cli_main(argv + ["--out", str(b)]) == 0
    same = True
    for ra, rb in zip(a.read_text().splitlines(), b.read_text().splitlines()):
        ca, cb = ra.split(","), rb.split(",")
        same &= ca[:5] == cb[:5] and ca[6:] == cb[6:]
    verdict(10, same, "repeated pinv-bench runs identical apart from wall_s")
