"""The one stopping loop of every iteration in the package.

``_drive`` runs a step until a measured residual meets its tolerance, or
for at most maxit steps, and stops a non-finite or diverging run with a
typed error. Every solver of ``solvers`` and the square Newton-Schulz
loops of the Lorenz and deblurring apps run on it. ``_dot`` is the one
inner product of every loop, and ``_fro_norm`` its norm: the real
Frobenius inner product as one BLAS dot over the flat arrays, with
float32 operands accumulated in float64. They need no buffer, and their
sums are BLAS's, so they may differ in the last bits from the pairwise
sums of ``QMatrix.fro_norm``. ``_require_count`` is the one check of a
count: a config field, an app's size, a maxit. Of the package this module
imports only ``errors``, so every other module can use it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import Divergence, NonFinite

_F64 = np.dtype(np.float64)
_DIVERGE_FACTOR = 10.0
_DIVERGE_RUN = 5


@dataclass
class SolverReport:
    """What a solve did. wall_time (s) is set by the two entry points
    that keep a clock; _drive leaves it at 0. solvers._solve_tall times
    the solve from after A's adjoint until it returns: it covers every
    solver's spectral probe, alpha included, cgne_q's Nystrom set-up and
    its forming of M and X, and the sketch solvers' test sketch, and
    leaves out A's adjoint and the Penrose check.
    apps.lorenz.lorenz_solve_ns times its whole call, probe included.

    float32_steps counts the steps that ran on float32 planes, the first
    of the Newton-Schulz family's (solvers._ns_solve); it is 0 where that
    phase did not run or was discarded. iterations counts the steps of
    both phases, and residual_history holds the residual at each
    k = 0..iterations, in order; at k = float32_steps it is the float64
    residual of the X the phase hands over."""
    method: str
    iterations: int
    residual_history: list = field(default_factory=list)
    wall_time: float = 0.0
    penrose: tuple = (0.0, 0.0, 0.0, 0.0)
    converged: bool = False
    float32_steps: int = 0

    @property
    def final_residual(self) -> float:
        return self.residual_history[-1][1] if self.residual_history else float("nan")


def _dot(x, y) -> float:
    """The real Frobenius inner product <x, y> of two QMatrix: one BLAS
    dot over the flat float64 arrays. Float32 operands, whose products are
    exact in float64, are summed in float64 by einsum, without a float64
    copy; BLAS would sum them in float32."""
    a, b = x.data.ravel(), y.data.ravel()
    if a.dtype is _F64 and b.dtype is _F64:
        return float(np.dot(a, b))
    return float(np.einsum("i,i", a, b, dtype=np.float64))


def _fro_norm(x) -> float:
    return math.sqrt(_dot(x, x))


def _require_count(name: str, value, low: int) -> None:
    """A count, such as a config field or an app's size: an integer,
    numpy's too, >= low, else ValueError."""
    if not (isinstance(value, numbers.Integral) and value >= low):
        raise ValueError(f"{name} must be an integer >= {low}")


def _drive(method: str, state, step, measure, tol: float, maxit: int,
           diverge: bool = False, stagnate: bool = False):
    """The stopping loop shared by every iteration.

    Before each step k = 0..maxit, measure(state) returns (residual, aux);
    the run stops at the first residual <= tol or after maxit steps, and
    otherwise step(state, aux) returns the next state. A NaN or infinite
    residual raises NonFinite at once. With diverge, a residual >= 10x the
    initial one for 5 consecutive measures raises Divergence. With
    stagnate, the run also stops, unconverged, at the first residual that
    is no lower than the one before it. Returns (state, last aux,
    SolverReport) with wall_time and the Penrose residuals left at zero
    for the caller to fill in.
    """
    _require_count("maxit", maxit, 0)
    history = []
    run = 0
    for k in range(maxit + 1):
        res, aux = measure(state)
        if not math.isfinite(res):
            raise NonFinite(f"residual {res} at iteration {k}")
        history.append((k, res))
        if diverge and k > 0 and \
                res >= _DIVERGE_FACTOR * max(history[0][1], 1e-300):
            run += 1
            if run >= _DIVERGE_RUN:
                raise Divergence(
                    "residual grew >= 10x initial for 5 consecutive iterations")
        else:
            run = 0
        if res <= tol or k == maxit or \
                (stagnate and k > 0 and res >= history[-2][1]):
            break
        state = step(state, aux)
    return state, aux, SolverReport(method, k, history,
                                    converged=bool(res <= tol))
