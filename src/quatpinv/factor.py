"""Direct factorizations: thin QR, Hermitian-PD solves, SVD, and the
closed-form / SVD-based pseudoinverse baselines.

The thin QR, the Cholesky factor and its solves, the eigendecomposition
of a Gram solve's fallback, and the SVD are LAPACK's, run on the complex
adjoint embedding (``qmatrix.complex_adjoint``). The QR is read off the
embedding's even columns and rows and is run twice, so that Q is
orthonormal to rounding at any condition number. G is Hermitian positive
definite exactly when its embedding is, and the embedding's Cholesky
factor is that of the quaternion factor (F. Zhang, Linear Algebra Appl.
251, 1997); a solve
applies the factor's inverse L^-1, one LAPACK call, and then L^-H to the
even columns of B's embedding, from which Z is read back, and its
residual is taken on the same embeddings. The SVD's quaternion factors
are reassembled from its singular vectors, which come in pairs
(v, phi(v)). A LAPACK failure raises ConvergenceFailure (``errors.
_lapack``), except LAPACK's rejection of a Cholesky pivot, which is the
factor's failed pivot. These routines serve as oracles for the iterative
solvers and as micro-solvers inside the randomized methods; none of them
iterates.

``hpd_solve`` and its Cholesky kernels ``_cholesky`` and
``_checked_chol_solve`` also take a stack of s matrices as an
(s, r, c, 4) array, and factor or solve all of them in one pass with the
same code, a 2-D call being the case without a stack axis; each item of
a stack is bitwise the routine run on it alone. An item that fails its
check (a Cholesky pivot, the solve's residual) is flagged, where a 2-D
call raises or, in ``hpd_solve`` alone, falls back to the min-norm solve
of G's eigendecomposition.
``solve_upper_triangular``, 2-D only, has no caller in the library; the
tests' QR-based references use it. ``qsvd``, ``pinv_qsvd`` and
``pinv_normal_eq`` raise NonFinite at entry when A holds a NaN or
infinite entry, and a 2-D ``hpd_solve`` when G or B does (as when A^H A
overflows); in a stack such an item is flagged. The three oracles do not
depend on A's scale: an A whose largest |entry| lies outside 2^+-64 is
factored times the power of two that brings that entry into [0.5, 1),
and the result scaled back exactly; a result that then leaves the float
range raises NonFinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _qops
from .errors import (DimensionMismatch, Indefinite, NonFinite, NotHermitian,
                     RankDeficient, _lapack)
from .qmatrix import QMatrix, complex_adjoint, require_finite


@dataclass
class QRFactors:
    Q: QMatrix  # m x r, orthonormal columns
    R: QMatrix  # r x r, upper triangular, real positive diagonal


@dataclass
class QSVDFactors:
    U: QMatrix        # m x m unitary
    S: np.ndarray     # min(m, n) nonnegative, nonincreasing
    V: QMatrix        # n x n unitary


# ---------------------------------------------------------------------------
# Thin QR via the complex adjoint embedding (LAPACK)
# ---------------------------------------------------------------------------

def _fro(d: np.ndarray, lead: tuple) -> np.ndarray:
    """Frobenius norm of each matrix of d, whose leading axes lead index
    them; each is bitwise its QMatrix.fro_norm()."""
    return np.sqrt((d * d).reshape(lead + (-1,)).sum(-1))


# the square root of the smallest normal float64: a Frobenius norm below
# it comes from a squared sum that has underflowed
_FRO_TINY = math.sqrt(np.finfo(np.float64).tiny)


def _fro_scaled(d: np.ndarray, lead: tuple) -> np.ndarray:
    """_fro(d, lead), except for a matrix whose squared sum under- or
    overflows (a norm below _FRO_TINY, or infinite): its norm is taken
    from the matrix times 2^-e, e from frexp of its largest |entry|, an
    exact scaling that brings that entry into [0.5, 1), as
    ``solvers.rsp_rate_bound`` scales A. Any other matrix keeps _fro's
    bits."""
    norm = _fro(d, lead)
    off = (norm < _FRO_TINY) | (norm == np.inf)
    if not off.any():
        return norm
    e = np.frexp(np.abs(d).reshape(lead + (-1,)).max(-1, initial=0.0))[1]
    scaled = _fro(np.ldexp(d, -e.reshape(e.shape + (1, 1, 1))), lead)
    return np.where(off, np.ldexp(scaled, e), norm)


# thin_qr raises RankDeficient when R's smallest diagonal is at most this
# times ||Y||_F
_RANK_TOL = 1e-12


def _from_complex(v: np.ndarray) -> np.ndarray:
    """The quaternion columns whose embedding has v, (2m, k) complex, as its
    even columns: an (m, k, 4) array; of each matrix of a stack
    (..., 2m, k) alike."""
    x, y = v[..., 0::2, :], v[..., 1::2, :]
    return np.stack([x.real, x.imag, -y.real, y.imag], axis=-1)


def _qr_pass(Y: QMatrix):
    """One LAPACK QR of Y's embedding: Q from its even columns, R from its
    even rows, with signs flipped so that R's diagonal is real positive
    (LAPACK's is real; the j and k parts, zero up to rounding, are set
    to zero)."""
    Qc, Rc = _lapack("QR", np.linalg.qr, Y.to_complex_adjoint())
    u, w = Rc[0::2, 0::2], Rc[0::2, 1::2]
    R = np.stack([u.real, u.imag, w.real, w.imag], axis=-1)
    ks = np.arange(Y.cols)
    sign = np.where(R[ks, ks, 0] < 0.0, -1.0, 1.0)
    R *= sign[:, None, None]
    R[ks, ks, 1:] = 0.0
    return _from_complex(Qc[:, 0::2]) * sign[:, None], R


def thin_qr(Y: QMatrix) -> QRFactors:
    """Thin QR of a tall matrix, R's diagonal real positive: LAPACK's QR of
    the complex embedding, run twice (Y = Q1 R1, Q1 = Q R2, R = R2 R1) so
    that Q is orthonormal to rounding whatever Y's condition number.

    Raises RankDeficient when the smallest diagonal of R falls below
    _RANK_TOL * ||Y||_F (``_fro_scaled``, so at any scale of Y; caller
    typically redraws its sketch).
    """
    m, r = Y.shape
    if m < r:
        raise RankDeficient("thin_qr requires m >= r")
    Q1, R1 = _qr_pass(Y)
    Q, R2 = _qr_pass(QMatrix(Q1))
    R = _qops.qmatmul(R2, R1)
    dmin = R[np.arange(r), np.arange(r), 0].min()
    scale = _fro_scaled(Y.data, ())
    if dmin <= _RANK_TOL * max(scale, 1e-300):
        raise RankDeficient(
            f"R diagonal {dmin:.3e} <= {_RANK_TOL:.1e} * {scale:.3e}")
    return QRFactors(Q=QMatrix(Q), R=QMatrix(R))


def solve_upper_triangular(R: QMatrix, B: QMatrix) -> QMatrix:
    """Solve R Z = B for upper-triangular R with real positive diagonal."""
    Rd, Bd = R.data, B.data
    r = R.rows
    Z = np.empty_like(Bd)
    for j in range(r - 1, -1, -1):
        Zj = Z[j]
        if j + 1 < r:
            np.subtract(Bd[j], _qops.qmatmul(Rd[j:j + 1, j + 1:],
                                             Z[j + 1:])[0], out=Zj)
        else:
            Zj[...] = Bd[j]
        Zj /= Rd[j, j, 0]
    return QMatrix(Z)


# ---------------------------------------------------------------------------
# Hermitian positive definite solves
# ---------------------------------------------------------------------------

def _cholesky(Gd: np.ndarray, Gc: np.ndarray | None = None):
    """Cholesky G = L L^H of an (r, r, 4) array, as LAPACK's Cholesky of its
    complex embedding Gc (formed here unless given), which is the
    embedding of the quaternion factor (F. Zhang, Linear Algebra Appl.
    251, 1997): the (2r, 2r) complex L, or None when a pivot fails, that
    is when LAPACK finds one nonpositive or the smallest diag(L)^2 is at most
    1e-14 ||G||_F (``_fro_scaled``, so at any scale of G). Gd may also be
    a stack, an (s, r, r, 4) array, factored in one call, each item
    bitwise as alone: the result is then (L, ok), where ok (s,) is False
    for an item whose pivot failed; its L is the identity."""
    lead = Gd.shape[:-3]
    Gc = complex_adjoint(Gd) if Gc is None else Gc
    try:
        L = np.linalg.cholesky(Gc)
    except np.linalg.LinAlgError:
        if not lead:
            return None
        # LAPACK rejects the whole stack for one item: factor them apart
        L = np.empty_like(Gc)
        for Li, Gi in zip(L, Gc):
            try:
                Li[...] = np.linalg.cholesky(Gi)
            except np.linalg.LinAlgError:
                Li[...] = 0.0
    piv = L.diagonal(axis1=-2, axis2=-1).real
    ok = ((piv * piv).min(-1, initial=np.inf)
          > 1e-14 * np.maximum(_fro_scaled(Gd, lead), 1e-300))
    if not lead:
        return L if ok else None
    L[~ok] = np.eye(L.shape[-1])
    return L, ok


def _solve_embedded(L: np.ndarray, Bd: np.ndarray):
    """(Ze, Be): the even columns of the embeddings of Z, for L L^H Z = B,
    and of B, with Ze = L^-H (L^-1 Be) from L^-1, one LAPACK call, and two
    complex products; on stacks alike, each item bitwise as alone. Be is
    formed after the inverse, so that it and the inverse's LAPACK copies
    of L are never held at once."""
    Linv = _lapack("triangular solve", np.linalg.inv, L)
    Be = complex_adjoint(Bd, even=True)
    Y = Linv @ Be
    return np.conjugate(Linv, out=Linv).swapaxes(-1, -2) @ Y, Be


# relative residual within which a Gram solve is kept, on the Cholesky
# path and on the eigendecomposition path alike
_SOLVE_TOL = 1e-10

# hpd_solve's fallback keeps the eigenvalues of G's embedding above this
# times the largest one; a cut relative to ||G||_F would not do, since
# ||G||_F^2 underflows to 0 at G ~ 1e-300
_EIG_CUT = 1e-14


def _residual_ok(Gc: np.ndarray, Ze: np.ndarray, Be: np.ndarray, bnorm):
    """Whether G Z = B holds to ||G Z - B||_F <= _SOLVE_TOL * ||B||_F for
    bnorm = ||B||_F, taken on the embeddings as ||Gc Ze - Be||_F, with Gc
    G's embedding and Ze, Be the even columns of Z's and B's: those columns
    hold each quaternion entry's four parts once, so it is the quaternion
    residual. A bool, or (s,) flags on stacks, each item bitwise as
    alone. It fails when bnorm is not finite, where the bound would be
    vacuous."""
    res = _fro((Gc @ Ze - Be).view(np.float64), Ze.shape[:-2])
    return (res <= _SOLVE_TOL * np.maximum(bnorm, 1e-300)) & (bnorm < np.inf)


def _checked_chol_solve(L: np.ndarray, Gd: np.ndarray, Bd: np.ndarray,
                        Gc: np.ndarray | None = None):
    """Z, the solve of L L^H Z = B for a factor L of ``_cholesky`` on the
    even columns of B's complex embedding (``_solve_embedded``), from which
    Z is read back, and whether it passes ``_residual_ok``: a bool, or (s,)
    flags when L, G and B are stacks, each item bitwise as alone. Gc, G's
    embedding, is formed here, after the solve, unless given."""
    Ze, Be = _solve_embedded(L, Bd)
    Gc = complex_adjoint(Gd) if Gc is None else Gc
    return _from_complex(Ze), _residual_ok(Gc, Ze, Be,
                                           _fro(Bd, Bd.shape[:-3]))


def hpd_solve(G: QMatrix | np.ndarray, B: QMatrix | np.ndarray):
    """Solve G Z = B for Hermitian positive (semi)definite G.

    Raises NotHermitian for a G that is not square or not Hermitian, and
    DimensionMismatch when B's row count is not G's, and NonFinite when G or
    B holds a NaN or infinite entry. The LAPACK Cholesky factor L of G's
    complex embedding (``_cholesky``) and the solve Z = L^-H L^-1 B on the
    even columns of B's embedding, with L^-1 from one LAPACK inverse
    (``_checked_chol_solve``), are kept when the residual, taken on the
    embeddings, is within _SOLVE_TOL * ||B||. Otherwise one LAPACK
    eigendecomposition of G's embedding raises Indefinite when G has an
    eigenvalue below -1e-10 ||G||_F, and else gives the min-norm solution
    over the eigenvalues above _EIG_CUT times the largest, kept under the
    same residual check; it raises Indefinite when that check fails (B is
    not in G's range), and NonFinite when ||B||_F overflows, where
    neither path's residual check can hold. A LAPACK failure of the
    inverse or of the eigendecomposition raises ConvergenceFailure.

    G and B may also be stacks of s matrices, (s, r, r, 4) and (s, r, p, 4)
    arrays, taken to be Hermitian: they are factored and solved in one
    LAPACK call each, on embeddings formed once for the factors and the
    check, each item bitwise as alone, and the result is
    (Z, ok), where ok (s,) is False for an item whose pivot or residual
    check failed, a non-finite item and one whose ||B||_F overflows among
    them (its Z is then meaningless). A stack has no fallback.
    """
    stacked = not isinstance(G, QMatrix)
    Gd, Bd = (G, B) if stacked else (G.data, B.data)
    r, c = Gd.shape[-3:-1]
    if c != r:
        raise NotHermitian("hpd_solve needs a square G")
    if Bd.shape[-3] != r:
        raise DimensionMismatch("B row count differs from G")
    if stacked:
        Gc = complex_adjoint(Gd)
        L, ok = _cholesky(Gd, Gc)
        Z, solved = _checked_chol_solve(L, Gd, Bd, Gc)
        return Z, ok & solved

    require_finite(G, "G")
    require_finite(B, "B")
    gnorm = max(_fro(Gd, ()), 1e-300)
    gap = _fro(Gd - _qops.qconj(Gd.swapaxes(0, 1)), ())
    if gap > 1e-10 * gnorm:
        raise NotHermitian(f"||G - G^H|| = {gap:.3e}")
    # G's embedding is formed for the factor and again for the check or
    # the fallback: kept across the inverse, at r = 200 it raised the
    # process's peak resident set by 1.3 MB
    L = _cholesky(Gd)
    if L is not None:
        Z, ok = _checked_chol_solve(L, Gd, Bd)
        if ok:
            return QMatrix(Z)
    # the fallback: one eigendecomposition Gc = V diag(w) V^H, and the
    # min-norm solve Z = V_k diag(w_k)^-1 V_k^H B on the even columns of
    # B's embedding, k the eigenvalues above _EIG_CUT * max(w)
    Gc = complex_adjoint(Gd)
    w, V = _lapack("eigenvalues", np.linalg.eigh, Gc)
    if w[0] < -1e-10 * gnorm:
        raise Indefinite(f"min eigenvalue {w[0]:.3e} < 0")
    bnorm = _fro(Bd, ())
    if not math.isfinite(bnorm):
        raise NonFinite(f"||B||_F = {bnorm}")
    keep = w > _EIG_CUT * w[-1]
    V, w = V[:, keep], w[keep]
    Be = complex_adjoint(Bd, even=True)
    Ze = V @ ((V.conj().T @ Be) / w[:, None])
    if _residual_ok(Gc, Ze, Be, bnorm):
        return QMatrix(_from_complex(Ze))
    raise Indefinite("G is singular and B is not in its range")


# ---------------------------------------------------------------------------
# SVD via the complex adjoint embedding (LAPACK)
# ---------------------------------------------------------------------------

def _phi(v: np.ndarray) -> np.ndarray:
    """Structure map pairing singular vectors of the embedding."""
    out = np.empty_like(v)
    out[0::2] = np.conj(v[1::2])
    out[1::2] = -np.conj(v[0::2])
    return out


def _quaternion_basis(W: np.ndarray, k: int) -> np.ndarray:
    """k orthonormal quaternion columns, as an (rows/2, k, 4) array, that
    span the phi-closed subspace with orthonormal complex basis W.

    Each pick is the column of W with the largest residual; it and its
    phi partner are then projected out of W. After t picks the squared
    residuals of W's 2k columns sum to 2(k - t), so a pick is never
    shorter than sqrt(1/k). The squared residuals are downdated after each
    projection; only the picked column's norm is computed afresh.
    """
    W = W.copy()
    nsq = np.sum(np.abs(W) ** 2, axis=0)
    cols = np.empty((W.shape[0], k), dtype=W.dtype)
    for j in range(k):
        i = int(np.argmax(nsq))
        v = W[:, i] / np.linalg.norm(W[:, i])
        P = np.stack([v, _phi(v)], axis=1)
        C = P.conj().T @ W
        W -= P @ C
        nsq -= np.sum(np.abs(C) ** 2, axis=0)
        cols[:, j] = v
    return _from_complex(cols)


def _right_factor(A: QMatrix):
    """LAPACK SVD of the embedding, then V paired from its right singular
    vectors. Returns (Uc, s, V, AV): the complex left singular vectors,
    and s = ||A v_j||, V and AV sorted so that s is nonincreasing."""
    require_finite(A)
    Uc, _, Vch = _lapack("SVD", np.linalg.svd, A.to_complex_adjoint())
    V = _quaternion_basis(Vch.conj().T, A.cols)
    AV = (A @ QMatrix(V)).data
    s = np.sqrt(_qops.qnormsq(AV).sum(axis=0))
    perm = np.argsort(-s, kind="stable")
    return Uc, s[perm], V[:, perm], AV[:, perm]


# the oracles take A as it is while the binary exponent of its largest
# |entry| is within this band, and A 2^-e outside it
_EXPONENT_BAND = 64


def _equilibrated(A: QMatrix) -> tuple[QMatrix, int]:
    """(A 2^-e, e), e from math.frexp of A's largest |entry|, as
    ``solvers.rsp_rate_bound`` takes it: an exact scaling that brings that
    entry into [0.5, 1). Inside _EXPONENT_BAND, (A, 0): A keeps its
    bits."""
    e = math.frexp(float(np.abs(A.data).max(initial=0.0)))[1]
    if abs(e) <= _EXPONENT_BAND:
        return A, 0
    return QMatrix(np.ldexp(A.data, -e)), e


def _rescaled(x: np.ndarray, e: int) -> np.ndarray:
    """x 2^e, exact unless it underflows; an entry that overflows raises
    NonFinite."""
    if e == 0:
        return x
    with np.errstate(over="ignore"):
        x = np.ldexp(x, e)
    if not np.isfinite(x).all():
        raise NonFinite(f"the result leaves the float range at scale 2^{e}")
    return x


def qsvd(A: QMatrix) -> QSVDFactors:
    """Quaternion SVD A = U diag(S) V^H with full unitary U, V.

    Route: LAPACK SVD of the complex adjoint embedding -> V paired from
    its right singular vectors -> U = A V / sigma on the numerical range,
    completed from the left singular vectors of the left null space. An A
    outside _EXPONENT_BAND is factored as A 2^-e (``_equilibrated``), and
    S scaled back by 2^e.
    """
    m, n = A.shape
    A, e = _equilibrated(A)
    Uc, s, V, AV = _right_factor(A)
    r = int(np.sum(s > 1e-13 * s.max(initial=0.0)))
    U = np.concatenate([AV[:, :r] / s[:r, None],
                        _quaternion_basis(Uc[:, 2 * r:], m - r)], axis=1)
    return QSVDFactors(U=QMatrix(U), S=_rescaled(s[:min(m, n)], e),
                       V=QMatrix(V))


def pinv_qsvd(A: QMatrix) -> QMatrix:
    """Pseudoinverse V Sigma^+ U^H; sigma <= 1e-10 * max sigma -> 0.

    With U = A V / sigma on the kept columns this is
    V diag(1 / sigma^2) (A V)^H, so U itself is never formed. An A outside
    _EXPONENT_BAND is taken as A 2^-e (``_equilibrated``), and its
    pseudoinverse scaled back by 2^-e.
    """
    A, e = _equilibrated(A)
    _, s, V, AV = _right_factor(A)
    k = min(A.shape)
    s, V, AV = s[:k], V[:, :k], AV[:, :k]
    smax = s[0] if k else 0.0
    keep = s > 1e-10 * max(smax, 1e-300)
    sinv = np.where(keep, 1.0 / np.maximum(s, 1e-300), 0.0)
    X = QMatrix(V * (sinv ** 2)[None, :, None]) @ QMatrix(AV).adjoint()
    return QMatrix(_rescaled(X.data, -e))


def pinv_normal_eq(A: QMatrix) -> QMatrix:
    """Closed-form pseudoinverse through the Gram system.

    Tall (and square) inputs use (A^H A)^{-1} A^H; wide inputs use
    A^H (A A^H)^{-1}. A rank-deficient tall or square A still gives A^+,
    the min-norm solve of its singular A^H A Z = A^H (``hpd_solve``'s
    fallback); a rank-deficient wide A raises Indefinite, since I is not
    in the range of its singular A A^H. An A
    outside _EXPONENT_BAND is taken as A 2^-e (``_equilibrated``), and its
    pseudoinverse scaled back by 2^-e.
    """
    require_finite(A)
    A, e = _equilibrated(A)
    m, n = A.shape
    Ah = A.adjoint()
    if m >= n:
        X = hpd_solve(Ah @ A, Ah)
    else:
        X = Ah @ hpd_solve(A @ Ah, QMatrix.identity(m))
    return QMatrix(_rescaled(X.data, -e))
