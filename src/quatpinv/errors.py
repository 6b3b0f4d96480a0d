"""Exception types shared across the package, and ``_lapack``, the one
place a LAPACK failure is translated into them."""

import numpy as np


class QuatpinvError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(QuatpinvError):
    pass


class RankDeficient(QuatpinvError):
    """Factorization detected numerical rank deficiency."""


class NotHermitian(QuatpinvError):
    pass


class Indefinite(QuatpinvError):
    """G has a negative eigenvalue, or is singular and B is not in its
    range (``factor.hpd_solve``)."""


class ConvergenceFailure(QuatpinvError):
    pass


class NonFinite(QuatpinvError):
    """Input holds a NaN or infinite entry, or an iteration's residual
    turned NaN or infinite."""


class Divergence(QuatpinvError):
    """Iteration residual grew persistently; scaling is outside its valid interval."""


class SketchFailure(QuatpinvError):
    """Too many consecutive rank-deficient sketches."""


class Breakdown(QuatpinvError):
    """CG search direction vanished before convergence."""


class InvalidOrder(QuatpinvError):
    pass


class NonPowerOfTwo(QuatpinvError):
    pass


def _lapack(what: str, routine, *args, **kwargs):
    """routine(*args, **kwargs), a numpy.linalg call, with its LinAlgError
    raised as ConvergenceFailure("LAPACK <what>: ...")."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK {what}: {exc}") from exc
