"""The four benchmark workloads: seeded inputs, the timed library calls and
their checks.

A workload is a pool of input instances drawn from the workload seed during
set-up, and a round: one call per (input, method) pair. Round r uses pool
instance r % (pool size), so a run of several rounds averages over several
drawn instances. The library only ever sees the generated matrices and
problems; no input is re-drawn or skipped when a call fails.

Each call is judged twice, outside the timed window:

* ``ok`` -- the benchmark's own check passed (Penrose residuals for
  pseudoinverses, acceptance criteria 7, 8 and 9 for the applications).
  A call that raised or failed its check is a counted failure.
* ``wrong`` -- the library presented a result as good and it is not: a
  direct solver or the deblur pipeline returned a result that fails its
  check, an iterative solver reported ``converged`` and fails it, or a CUR
  run returned a residual history that disagrees with its X. A wrong answer
  makes the run incorrect.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from quatpinv import factor, solvers
from quatpinv.apps import completion, deblur, images, lorenz
# a typed library error is a counted failure; anything else is a crash
from quatpinv.errors import QuatpinvError  # noqa: F401
from quatpinv.qmatrix import QMatrix, randn_qmat
from quatpinv.rng import QuatRNG

PINV_TOL = 1e-6          # max Penrose residual accepted for a pseudoinverse
# methods whose calls return a SolverReport (solvers.iterations averages them)
SOLVER_METHODS = ("ns", "hyperpower-p8-ps", "cgne", "hybrid", "rsp-column",
                  "rsp-row", "cgne-nystrom")


@dataclass
class Call:
    input: str                        # instance label, e.g. "tall220x200#1"
    method: str
    run: Callable[[], object]         # the timed public library call
    check: Callable[[object, float], "Outcome"]


@dataclass
class Outcome:
    ok: bool
    wrong: bool
    detail: str                       # residual or error class
    iterations: int | None = None


def subseed(seed: int, *path: int) -> int:
    """Independent 32-bit seed for one input, drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _pinv_outcome(A: QMatrix, X: QMatrix, claimed: bool,
                  iterations: int | None = None) -> Outcome:
    if X.shape != (A.cols, A.rows) or not np.isfinite(X.data).all():
        return Outcome(False, claimed, "non-finite or misshapen X", iterations)
    worst = max(solvers.penrose_residuals(A, X))
    ok = bool(worst <= PINV_TOL)
    return Outcome(ok, claimed and not ok, f"penrose={worst:.3e}", iterations)


def _check_direct(A: QMatrix):
    return lambda X, _t: _pinv_outcome(A, X, True)


def _check_solver(A: QMatrix):
    def check(result, _t):
        X, rep = result
        return _pinv_outcome(A, X, rep.converged, rep.iterations)
    return check


def _check_lorenz(result, elapsed):
    """Acceptance criterion 7: RelRes <= 1e-6 in <= 80 iterations, < 5 s."""
    (X, Y), (w, rep) = result
    relres = (X @ w - Y).fro_norm() / Y.fro_norm()
    ok = bool(relres <= 1e-6 and rep.iterations <= 80 and elapsed < 5.0)
    return Outcome(ok, rep.converged and not ok, f"relres={relres:.3e}",
                   rep.iterations)


def _numpy_closed_form(problem: deblur.DeblurProblem, observed: np.ndarray):
    """Tikhonov restoration by direct division, with numpy's FFT."""
    h, w, _ = observed.shape
    r = problem.psf_radius
    t = np.arange(-r, r + 1, dtype=np.float64)
    g = np.exp(-0.5 * (t / problem.psf_sigma) ** 2)
    k = np.outer(g, g)
    frame = np.zeros((h, w))
    frame[:2 * r + 1, :2 * r + 1] = k / k.sum()
    h_hat = np.fft.fft2(np.roll(frame, (-r, -r), axis=(0, 1)))
    T = np.abs(h_hat) ** 2 + problem.lam
    b_hat = np.fft.fft2(observed, axes=(0, 1))
    return np.real(np.fft.ifft2(np.conj(h_hat)[..., None] * b_hat
                                / T[..., None], axes=(0, 1)))


def _check_deblur(problem: deblur.DeblurProblem):
    """Acceptance criterion 8 against an independent closed form: relative
    Frobenius gap <= 1e-10 and PSNR gap <= 0.01 dB."""
    def check(result, _t):
        restored_q, metrics = result
        restored = images.qmat_to_image(restored_q)
        closed = _numpy_closed_form(problem, metrics["observed"])
        gap = np.linalg.norm(restored - closed) / max(np.linalg.norm(closed),
                                                      1e-300)
        ref = images.qmat_to_image(problem.image)
        dpsnr = abs(images.psnr(ref, restored) - images.psnr(ref, closed))
        ok = bool(gap <= 1e-10 and dpsnr <= 0.01)
        return Outcome(ok, not ok, f"gap={gap:.3e} dpsnr={dpsnr:.2e}",
                       metrics["iterations"])
    return check


def _check_cur(prob: completion.CompletionProblem):
    """Acceptance criterion 9's trend test: the observed residual does not
    increase over the final 10 rounds and ends no higher than it started."""
    def check(result, _t):
        X, hist = result
        mask = np.asarray(prob.mask, dtype=np.float64)
        final = (X - prob.M).mask(mask).fro_norm()
        consistent = abs(final - hist[-1]) <= 1e-9 * max(final, 1.0)
        tail = hist[-10:]
        ok = (all(b <= a for a, b in zip(tail, tail[1:]))
              and hist[-1] <= hist[0])
        return Outcome(bool(ok and consistent), not consistent,
                       f"residual {hist[0]:.3e}->{hist[-1]:.3e}", len(hist))
    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _dense_inputs(seed: int, i: int):
    return {"tall220x200": randn_qmat(220, 200, subseed(seed, i, 0)),
            "wide200x220": randn_qmat(200, 220, subseed(seed, i, 1))}


def _dense_round(inst, i: int):
    ns_cfg = solvers.SolverConfig(gamma=1.0, tol=1e-8)
    hp_cfg = solvers.SolverConfig(order=8, schedule=solvers.SCHEDULE_PS,
                                  tol=1e-8)
    cg_cfg = solvers.SolverConfig(tol=1e-8, maxit=100)
    calls = []
    for label, A in inst.items():
        tag = f"{label}#{i}"
        calls += [
            Call(tag, "ns", lambda A=A: solvers.ns_damped(A, ns_cfg),
                 _check_solver(A)),
            Call(tag, "hyperpower-p8-ps",
                 lambda A=A: solvers.ns_hyperpower(A, hp_cfg),
                 _check_solver(A)),
            Call(tag, "cgne", lambda A=A: solvers.cgne_q(A, cg_cfg),
                 _check_solver(A)),
            Call(tag, "normal-eq", lambda A=A: factor.pinv_normal_eq(A),
                 _check_direct(A)),
        ]
    return calls


def _sketch_inputs(seed: int, i: int):
    return {"hybrid120x100": randn_qmat(120, 100, subseed(seed, i, 0)),
            "col30x20": randn_qmat(30, 20, subseed(seed, i, 1)),
            "row20x30": randn_qmat(20, 30, subseed(seed, i, 2)),
            "nystrom70x50": randn_qmat(70, 50, subseed(seed, i, 3)),
            "sketch_seed": subseed(seed, i, 4)}


def _sketch_round(inst, i: int):
    sk = solvers.SketchConfig(block_r=8, test_s=5, cycle_T=5,
                              seed=inst["sketch_seed"])
    hy_cfg = solvers.SolverConfig(tol=1e-8, maxit=100)
    rsp_cfg = solvers.SolverConfig(tol=1e-9, maxit=5000)
    cg_cfg = solvers.SolverConfig(tol=1e-8, maxit=100)
    H, C, R, N = (inst[k] for k in ("hybrid120x100", "col30x20", "row20x30",
                                    "nystrom70x50"))
    return [
        Call(f"hybrid120x100#{i}", "hybrid",
             lambda: solvers.hybrid_rsp_ns(H, hy_cfg, sk), _check_solver(H)),
        Call(f"col30x20#{i}", "rsp-column",
             lambda: solvers.rsp_column(C, rsp_cfg, sk), _check_solver(C)),
        Call(f"row20x30#{i}", "rsp-row",
             lambda: solvers.rsp_row(R, rsp_cfg, sk), _check_solver(R)),
        Call(f"nystrom70x50#{i}", "cgne-nystrom",
             lambda: solvers.cgne_q(N, cg_cfg, precond=sk), _check_solver(N)),
    ]


@functools.cache
def _deblur_image() -> QMatrix:
    """The CLI's deblur test image, shared by every deblur problem."""
    return images.image_to_qmat(images.synthetic_image(128, seed=1))


def _apps_inputs(seed: int, i: int):
    # the CLI's three application runs, every seed drawn from the workload's
    n = 60
    A = randn_qmat(n, 5, subseed(seed, i, 0)) @ \
        randn_qmat(n, 5, subseed(seed, i, 1)).adjoint()
    rows, cols = completion.sample_cur_indices(n, n, 5, subseed(seed, i, 2))
    mask = (QuatRNG(subseed(seed, i, 3)).uniform((n, n)) > 0.7).astype(float)
    cur = completion.CompletionProblem(M=A.mask(mask), mask=mask, rank=5,
                                       iters=25, col_idx=cols, row_idx=rows)
    blur = deblur.DeblurProblem(image=_deblur_image(), psf_radius=4,
                                psf_sigma=1.0, snr_db=30.0, lam=0.05,
                                tol=1e-13, maxit=200, seed=subseed(seed, i, 4))
    lz = lorenz.LorenzProblem(N=50, seed=subseed(seed, i, 5))
    return {"lorenz": lz, "deblur": blur, "cur": cur}


def _lorenz_call(prob):
    X, Y, _ = lorenz.lorenz_build(prob)
    return (X, Y), lorenz.lorenz_solve_ns(X, Y, tol=1e-6, maxit=80)


def _apps_round(inst, i: int):
    lz, blur, cur = inst["lorenz"], inst["deblur"], inst["cur"]
    return [
        Call(f"N50#{i}", "lorenz", lambda: _lorenz_call(lz), _check_lorenz),
        Call(f"N128#{i}", "deblur", lambda: deblur.deblur_fft_ns(blur),
             _check_deblur(blur)),
        Call(f"60x60#{i}", "cur-complete-u-opt",
             lambda: completion.complete(
                 cur, lambda M: factor.pinv_normal_eq(M),
                 completion.MODE_U_OPT),
             _check_cur(cur)),
    ]


def _oracle_inputs(seed: int, i: int):
    inst = {f"full{m}x{n}": randn_qmat(m, n, subseed(seed, i, k))
            for k, (m, n) in enumerate(((40, 20), (25, 24), (50, 30),
                                        (30, 30)))}
    for k, (m, n) in enumerate(((40, 30), (30, 40))):
        G = randn_qmat(m, 15, subseed(seed, i, 10 + k))
        H = randn_qmat(n, 15, subseed(seed, i, 20 + k))
        inst[f"rank15_{m}x{n}"] = G @ H.adjoint()
    inst["zero30x20"] = QMatrix.zeros(30, 20)
    return inst


def _oracle_round(inst, i: int):
    ns_cfg = solvers.SolverConfig(gamma=1.0, tol=1e-8)
    cg_cfg = solvers.SolverConfig(tol=1e-8, maxit=100)
    calls = []
    for label, A in inst.items():
        tag = f"{label}#{i}"
        calls += [
            Call(tag, "qsvd", lambda A=A: factor.pinv_qsvd(A),
                 _check_direct(A)),
            Call(tag, "normal-eq", lambda A=A: factor.pinv_normal_eq(A),
                 _check_direct(A)),
        ]
        if not label.startswith("full"):
            calls += [
                Call(tag, "ns", lambda A=A: solvers.ns_damped(A, ns_cfg),
                     _check_solver(A)),
                Call(tag, "cgne", lambda A=A: solvers.cgne_q(A, cg_cfg),
                     _check_solver(A)),
            ]
    return calls


# workload -> (inputs of one instance, calls of one round, pool size,
# seconds per round, host-speed sensitivity).
#
# The round time is nominal, measured on a 2-core x86 VM with one BLAS
# thread, except that dense's is set below the 7-9 s its rounds take
# there, so that a run makes the 4 rounds that put its tail well above
# its median. It turns --seconds into a fixed number of rounds, so every
# run of a workload makes the same calls and its percentiles fall on the
# same order statistics. At 26 s: dense makes 4 rounds (32 calls),
# sketch 14 (56 calls), apps 108 (324 calls). sketch's round time is also
# set low, about half of the 3.2-3.5 s its rounds take: its rsp iteration
# counts vary widely from instance to instance, and 14 instances a run,
# not 7, narrow that spread. apps's is set above the ~0.16 s its rounds
# take, to pay for sketch's longer run within the time all runs may take;
# 324 calls still put its tail at p96.9. Pools cover the rounds of a
# 26 s run.
#
# The sensitivity is the exponent with which run.py scales call times by
# the host-speed probe. It was chosen from twenty runs of each workload
# on that VM as the one that left the least run-to-run spread: 0.6 for
# dense, whose ns, hyperpower and cgne calls spend their time in BLAS and
# slowed at 0.56-0.62 of the probe's rate (log-log slope over 15 runs),
# 1.0 for the Python-bound sketch and apps. oracle, Python-bound too,
# takes 1.0 unmeasured.
_SPECS = {
    "dense": (_dense_inputs, _dense_round, 4, 6.5, 0.6),
    "sketch": (_sketch_inputs, _sketch_round, 14, 1.85, 1.0),
    "apps": (_apps_inputs, _apps_round, 108, 0.24, 1.0),
    "oracle": (_oracle_inputs, _oracle_round, 8, 4.0, 1.0),
}


class Workload:
    """Seeded inputs for one workload; ``round(r)`` lists round r's calls."""

    def __init__(self, name: str, seed: int):
        make, self._round, size, self._round_s, sensitivity = _SPECS[name]
        self.host_sensitivity = sensitivity
        self.name = name
        self.pool = [make(seed, i) for i in range(size)]

    def rounds(self, seconds: float) -> int:
        """Rounds that take about ``seconds`` at the nominal round time."""
        return max(1, round(seconds / self._round_s))

    def round(self, r: int) -> list[Call]:
        i = r % len(self.pool)
        return self._round(self.pool[i], i)
