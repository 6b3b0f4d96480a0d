"""Dense quaternion matrices.

A QMatrix stores an (m, n, 4) array of (a, b, c, d) components. The
constructor makes every real dtype float64, and complex data raises
TypeError, since it holds no quaternion components. Only the private
``QMatrix._of`` wraps an array as it is: QMatrix's own operations use it,
and so does the float32 phase of the Newton-Schulz family
(``solvers._float32``), whose float32 matrices stay float32 through
``@``, ``+``, ``-``, ``scale``, ``adjoint`` and ``copy``. Every operation
returns a fresh matrix, and values are treated as immutable once a matrix
is shared; only the solvers' loops write, in place, into matrices they
alone hold. The complex adjoint embedding maps each entry
q = a + bi + cj + dk to the 2x2 complex block

    [[ a + bi,  c + di],
     [-c + di,  a - bi]]

and is used only off the iteration loops: by the SVD baseline, by the
two LAPACK QR passes of thin_qr, by rsp_rate_bound's smallest singular
value, by every Gram solve of hpd_solve (its LAPACK Cholesky factor, the
inverse its triangular solves run on, its residual check, and the
eigendecomposition of its fallback after a failed pivot or residual
check), and by the set-up of cgne_q's Nystrom preconditioner, through
thin_qr, its Gram solve and the SVD of its r x r core.
``complex_adjoint`` forms it for one matrix or a stack.
"""

from __future__ import annotations

import math

import numpy as np

from . import _qops
from .errors import DimensionMismatch, NonFinite, NonPowerOfTwo, _lapack
from .rng import QuatRNG


_FLOAT64 = np.dtype(np.float64)


class QMatrix:
    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data)
        if data.dtype is not _FLOAT64:
            if data.dtype.kind == "c":
                raise TypeError(f"quaternion components must be real, got "
                                f"a {data.dtype} array")
            data = data.astype(np.float64)
        if data.ndim != 3 or data.shape[2] != 4:
            raise DimensionMismatch(f"expected (m, n, 4) array, got {data.shape}")
        self.data = data

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _of(data: np.ndarray) -> "QMatrix":
        """An (m, n, 4) float array wrapped as it is, float32 kept."""
        A = object.__new__(QMatrix)
        A.data = data
        return A

    @staticmethod
    def zeros(m: int, n: int) -> "QMatrix":
        return QMatrix(np.zeros((m, n, 4)))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        d = np.zeros((n, n, 4))
        d[np.arange(n), np.arange(n), 0] = 1.0
        return QMatrix(d)

    @staticmethod
    def from_real(x: np.ndarray) -> "QMatrix":
        x = np.asarray(x)
        d = np.zeros(x.shape + (4,), x.dtype)
        d[..., 0] = x
        return QMatrix(d)

    # -- shape and access ---------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return (self.data.shape[0], self.data.shape[1])

    def copy(self) -> "QMatrix":
        return QMatrix._of(self.data.copy())

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return QMatrix._of(self.data + other.data)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return QMatrix._of(self.data - other.data)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"inner dims differ: {self.shape} @ {other.shape}")
        return QMatrix._of(_qops.qmatmul(self.data, other.data))

    def scale(self, s: float) -> "QMatrix":
        """Multiply every entry by a real scalar."""
        return QMatrix._of(self.data * float(s))

    def adjoint(self) -> "QMatrix":
        """Conjugate transpose A^H; reverses products: (AB)^H = B^H A^H."""
        return QMatrix._of(_qops.qconj(self.data.transpose(1, 0, 2)))

    def mask(self, mask: np.ndarray) -> "QMatrix":
        """Entrywise product with a real (m, n) mask."""
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != self.shape:
            raise DimensionMismatch("mask shape differs from matrix shape")
        return QMatrix(self.data * mask[:, :, None])

    def take_cols(self, idx) -> "QMatrix":
        return QMatrix(self.data[:, _in_range(idx, self.cols), :].copy())

    def take_rows(self, idx) -> "QMatrix":
        return QMatrix(self.data[_in_range(idx, self.rows), :, :].copy())

    # -- norms --------------------------------------------------------------

    def fro_norm(self) -> float:
        return math.sqrt((self.data * self.data).sum())

    # -- embedding ----------------------------------------------------------

    def to_complex_adjoint(self) -> np.ndarray:
        """Complex adjoint embedding, (2m, 2n) complex128, block row-major."""
        return complex_adjoint(self.data)

    # -- misc ---------------------------------------------------------------

    def _check_same_shape(self, other: "QMatrix") -> None:
        if self.shape != other.shape:
            raise DimensionMismatch(f"shapes differ: {self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols})"


def _in_range(idx, n: int) -> list:
    """idx as a list, each index in [0, n): a negative or too large one
    raises DimensionMismatch rather than wrap around or reach numpy."""
    idx = list(idx)
    if not all(0 <= i < n for i in idx):
        raise DimensionMismatch(f"an index of {idx} is outside [0, {n})")
    return idx


def complex_adjoint(d: np.ndarray, even: bool = False) -> np.ndarray:
    """Complex adjoint embedding of an (m, n, 4) float64 array, (2m, 2n)
    complex128, block row-major; of each matrix of a stack (..., m, n, 4)
    alike. With even, only its even columns, (..., 2m, n): the columns
    from which factor._from_complex reads a quaternion matrix back.

    Built from d's complex view, whose entries (a + bi, c + di) are row 2i
    of the embedding as they are; row 2i + 1 is (-conj(c + di),
    conj(a + bi))."""
    if d.strides[-1] != d.itemsize:
        d = np.ascontiguousarray(d)
    lead, (m, n) = d.shape[:-3], d.shape[-3:-1]
    dc = d.view(np.complex128)
    k = 1 if even else 2
    out = np.empty(lead + (m, 2, n, k), dtype=np.complex128)
    out[..., 0, :, :] = dc[..., :k]
    odd = out[..., 1, :, :]
    np.negative(dc[..., 1], out=odd[..., 0])
    np.conjugate(odd[..., 0], out=odd[..., 0])
    if not even:
        np.conjugate(dc[..., 0], out=odd[..., 1])
    return out.reshape(lead + (2 * m, k * n))


def randn_qmat(m: int, n: int, seed: int) -> QMatrix:
    """All four components of each entry i.i.d. N(0, 1); seed-deterministic."""
    rng = QuatRNG(seed)
    return QMatrix(rng.normals((m, n, 4)))


def randn_qmat_rng(m: int, n: int, rng: QuatRNG) -> QMatrix:
    """Draw from an existing generator stream."""
    return QMatrix(rng.normals((m, n, 4)))


_PROBE_SEED = 0
_LANCZOS_STEPS = 20
# Ritz values at or below this fraction of the largest count as zero, and a
# Lanczos residual at or below this fraction of the largest |T_jj| as an
# invariant subspace
_RITZ_ZERO = 1e-12


def _gram_ritz(A: QMatrix, Ah: QMatrix | None = None):
    """(low, top, bound) for A^H A from up to _LANCZOS_STEPS Lanczos steps:
    the smallest nonzero Ritz value (0.0 if every Ritz value counts as
    zero), the largest Ritz value theta and the upper bound
    theta + beta |s| on the spectrum, with beta the last Lanczos residual
    and s the last entry of theta's eigenvector of the tridiagonal matrix
    (Zhou & Li, Linear Algebra Appl. 435, 2011). Ah, if given, is A^H,
    formed by the caller.

    A wide A is run as A A^H, which has the same nonzero spectrum. The
    vectors are quaternion columns in the real inner product Re tr(u^H v),
    in which A^H A is symmetric, so the run needs only products with A and
    A^H. The start is drawn with seed _PROBE_SEED, each new vector is
    reorthogonalized twice against all earlier ones, and the run stops
    once the Krylov space is invariant, where Ritz values are eigenvalues.
    On a full-rank A every Ritz value lies in [sigma_min^2, sigma_max^2]
    (Kuczynski & Wozniakowski, SIAM J. Matrix Anal. Appl. 13, 1992).
    Raises NonFinite when the tridiagonal matrix is not finite (A^H A
    overflows) and ConvergenceFailure when its eigensolver fails."""
    if Ah is None:
        Ah = A.adjoint()
    if A.rows < A.cols:
        A, Ah = Ah, A
    n = A.cols
    times_A, times_Ah = _qops.qmatmul_by(A.data), _qops.qmatmul_by(Ah.data)
    V = np.empty((_LANCZOS_STEPS, 4 * n))
    v = QuatRNG(_PROBE_SEED).normals((n, 1, 4)).ravel()
    v /= math.sqrt(v @ v)
    diag, off = [], []
    for j in range(_LANCZOS_STEPS):
        V[j] = v
        w = times_Ah(times_A(v.reshape(n, 1, 4))).ravel()
        diag.append(float(v @ w))
        for _ in range(2):
            w -= V[:j + 1].T @ (V[:j + 1] @ w)
        beta = math.sqrt(w @ w)
        if j + 1 == _LANCZOS_STEPS or \
                beta <= _RITZ_ZERO * max(map(abs, diag)):
            break
        off.append(beta)
        v = w / beta
    T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    if not (np.isfinite(T).all() and math.isfinite(beta)):
        raise NonFinite("the Lanczos run of A^H A is not finite")
    ritz = _lapack("Lanczos eigenvalues", np.linalg.eigvalsh, T)
    s = abs(_lapack("Lanczos eigenvectors", np.linalg.eigh, T)[1][-1, -1])
    top = float(ritz[-1])
    bound = top + beta * float(s)
    ritz = ritz[ritz > _RITZ_ZERO * ritz[-1]]
    return (float(ritz[0]) if ritz.size else 0.0), top, bound


def op_norm_est(A: QMatrix, Ah: QMatrix | None = None) -> float:
    """Operator 2-norm estimate sqrt(theta) for the largest Ritz value theta
    of the Lanczos probe of A^H A (_gram_ritz); Ah, if given, is A^H,
    formed by the caller."""
    return math.sqrt(_gram_ritz(A, Ah)[1])


def require_pow2(n: int) -> None:
    if n < 1 or (n & (n - 1)) != 0:
        raise NonPowerOfTwo(f"{n} is not a power of two")


def require_finite(A: QMatrix, name: str = "A") -> None:
    if not np.all(np.isfinite(A.data)):
        raise NonFinite(f"{name} has a NaN or infinite entry")
