"""Lorenz-attractor quaternion filter identification.

The three Lorenz state channels ride on the imaginary units; the filter
input is a one-step-delayed noisy copy of the target. Stacking delayed
samples gives a Toeplitz quaternion system X * w = Y solved by the
solvers' scaled square Newton-Schulz step, run on its exact residual
recurrence: the loop carries Z_k = X_k [X Y] = [P_k w_k], never the
inverse X_k itself, with all products kept in right-multiplication order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .._loop import _drive, _require_count
from ..errors import NonFinite
from ..qmatrix import QMatrix
from ..rng import QuatRNG
from ..solvers import _ns_scales, _ns_step, _probe


@dataclass
class LorenzProblem:
    N: int = 50
    T_end: float = 10.0
    sigma_l: float = 10.0
    beta_l: float = 8.0 / 3.0
    rho_l: float = 28.0
    x0: float = 1.0
    y0: float = 1.0
    z0: float = 1.0
    noise_level: float = 0.01
    seed: int = 0

    def __post_init__(self):
        _require_count("N", self.N, 2)


def lorenz_rk4(problem: LorenzProblem, samples: int) -> np.ndarray:
    """Fixed-step RK4 trajectory, shape (samples, 3).

    Runs on Python floats: each component goes through the same IEEE
    operations, in the same order, as in the 3-vector form
    s + (dt / 6) (k1 + 2 k2 + 2 k3 + k4), so the trajectory is bitwise
    that form's without a numpy call per stage."""
    p = problem
    dt = p.T_end / (samples - 1)
    half, sixth = 0.5 * dt, dt / 6.0

    def f(x, y, z):
        return (p.sigma_l * (y - x), x * (p.rho_l - z) - y,
                x * y - p.beta_l * z)

    x, y, z = float(p.x0), float(p.y0), float(p.z0)
    out = [(x, y, z)]
    for _ in range(1, samples):
        a1, b1, c1 = f(x, y, z)
        a2, b2, c2 = f(x + half * a1, y + half * b1, z + half * c1)
        a3, b3, c3 = f(x + half * a2, y + half * b2, z + half * c2)
        a4, b4, c4 = f(x + dt * a3, y + dt * b3, z + dt * c3)
        x = x + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
        y = y + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
        z = z + sixth * (c1 + 2 * c2 + 2 * c3 + c4)
        out.append((x, y, z))
    return np.array(out)


def lorenz_build(problem: LorenzProblem):
    """Assemble the N x N Toeplitz system (X, Y) plus the raw signals.

    Target y(t) carries the Lorenz states on (i, j, k); the input is the
    one-step-delayed target plus channelwise Gaussian noise scaled by
    noise_level times each channel's standard deviation. Raises NonFinite
    when the RK4 step T_end / (2N - 1) is too large for the trajectory to
    stay finite.
    """
    N = problem.N
    samples = 2 * N - 1
    traj = lorenz_rk4(problem, samples + 1)  # one extra step for the delay
    if not np.isfinite(traj).all():
        raise NonFinite(f"RK4 step {problem.T_end / samples:.4g} is too "
                        "large: the Lorenz trajectory is not finite")
    y_sig = traj[1:]                          # y(t) for t = 0..samples-1
    rng = QuatRNG(problem.seed)
    noise = rng.normals((samples, 3))
    x_sig = traj[:-1] + problem.noise_level * y_sig.std(axis=0) * noise

    t0 = N - 1
    lag = np.arange(N)
    Xd = np.zeros((N, N, 4))
    Xd[:, :, 1:] = x_sig[t0 + lag[:, None] - lag[None, :]]
    Yd = np.zeros((N, 1, 4))
    Yd[:, 0, 1:] = y_sig[t0:t0 + N]
    return QMatrix(Xd), QMatrix(Yd), {"y": y_sig, "x": x_sig}


def lorenz_solve_ns(X: QMatrix, Y: QMatrix, tol: float = 1e-6,
                    maxit: int | None = None):
    """Square Newton-Schulz X_k <- theta_k (2I - theta_k X_k X) X_k from
    X_0 = alpha X^H, run on Z_k = X_k [X Y] = [P_k w_k]: from
    Z_0 = alpha X^H [X Y], each step is the solvers' scaled step
    (``solvers._ns_step``) with the deviation I - P_k,

        Z <- theta (2I - theta P) Z,

    the exact residual recurrence I - P_{k+1} = (I - theta P_k)^2, so a
    step makes one N x N by N x (N+1) product, where X_k would take two
    N x N products, and X_k itself is never formed. alpha and the scales
    theta_k come from the solvers' one spectral probe (``solvers._probe``
    and ``solvers._ns_scales``). report.wall_time covers the whole call.

    Stops when RelRes = ||X w - Y||_F / ||Y||_F <= tol, the true residual
    of w, one matvec a step. A start that is not contractive is caught by
    the divergence guard, as in ns_damped. Raises ValueError unless tol is
    finite and >= 0 and maxit an integer >= 0.
    """
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be a finite float >= 0")
    N = X.rows
    if maxit is None:
        maxit = N
    _require_count("maxit", maxit, 0)
    t0 = time.perf_counter()
    ynorm = max(Y.fro_norm(), 1e-300)
    Xh = X.adjoint()
    spec = _probe(X, Xh)
    thetas = _ns_scales(spec)
    d = np.arange(N)

    def step(Z, _):
        # I - P, bitwise: 0 - p is -p, and 1 is added on the diagonal
        R = QMatrix._of(np.subtract(0.0, Z.data[:, :N]))
        R.data[d, d, 0] += 1.0
        return _ns_step(R, Z, theta=next(thetas))

    def measure(Z):
        w = QMatrix._of(Z.data[:, N:].copy())
        return (X @ w - Y).fro_norm() / ynorm, w

    Z0 = Xh.scale(spec.alpha) @ QMatrix._of(
        np.concatenate((X.data, Y.data), axis=1))
    _, w, report = _drive("ns-q-square", Z0, step, measure, tol, maxit,
                          diverge=True)
    report.wall_time = time.perf_counter() - t0
    return w, report
