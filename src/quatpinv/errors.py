"""Exception types shared across the package."""


class QuatpinvError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(QuatpinvError):
    pass


class RankDeficient(QuatpinvError):
    """Factorization detected numerical rank deficiency."""


class NotHermitian(QuatpinvError):
    pass


class Indefinite(QuatpinvError):
    """Cholesky pivot failed and the CG fallback stagnated."""


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
