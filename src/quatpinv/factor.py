"""Direct factorizations: thin QR, Hermitian-PD solves, SVD, and the
closed-form / SVD-based pseudoinverse baselines.

The SVD is LAPACK's, run on the complex adjoint embedding; quaternion
factors are reassembled from its singular vectors, which come in pairs
(v, phi(v)). These routines serve as oracles for the iterative solvers
and as micro-solvers inside the randomized methods. A Hermitian positive
definite G is factored once (``hpd_factor``) and solved against each
right-hand side (``HPDFactor.solve``); ``hpd_solve`` does both for one.
``qsvd``, ``pinv_qsvd`` and ``pinv_normal_eq`` raise NonFinite at entry
when A holds a NaN or infinite entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _qops
from .errors import (ConvergenceFailure, Indefinite, NotHermitian,
                     RankDeficient)
from .qmatrix import QMatrix, require_finite


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
# Thin QR via quaternion Householder reflectors
# ---------------------------------------------------------------------------

def thin_qr(Y: QMatrix, rank_tol: float = 1e-12) -> QRFactors:
    """Householder QR of a tall matrix; R diagonal made real positive.

    Raises RankDeficient when the smallest diagonal of R falls below
    rank_tol * ||Y||_F (caller typically redraws its sketch).
    """
    m, r = Y.shape
    if m < r:
        raise RankDeficient("thin_qr requires m >= r")
    scale = Y.fro_norm()
    W = Y.data.copy()
    reflectors = []
    for k in range(r):
        x = W[k:, k, :]
        normx = math.sqrt((x * x).sum())
        if normx == 0.0:
            continue
        x1 = x[0]
        ax1 = math.sqrt((x1 * x1).sum())
        phi = x1 / ax1 if ax1 > 0 else np.array([1.0, 0.0, 0.0, 0.0])
        v = x.copy()
        v[0] = v[0] + phi * normx
        vns = float((v * v).sum())
        if vns == 0.0:
            continue
        vcol = v[:, None, :]
        vH = _qops.qconj(v)[None, :, :]
        t = _qops.qmatmul(vH, W[k:, k:, :])
        W[k:, k:, :] -= (2.0 / vns) * _qops.qmatmul(vcol, t)
        # reflector maps the column to -phi*normx * e1 exactly
        W[k, k, :] = -phi * normx
        W[k + 1:, k, :] = 0.0
        reflectors.append((k, vcol, vH, vns))

    # unit quaternions d_k = conj(R_kk) / |R_kk| make the diagonal real
    # positive: R <- diag(d) R and Q <- Q diag(conj(d)); a zero R_kk keeps
    # d_k = 1 and its row is left as it is
    Rdat = W[:r, :, :].copy()
    ks = np.arange(r)
    rkk = Rdat[ks, ks]
    mag = np.sqrt((rkk * rkk).sum(axis=1))
    nz = np.flatnonzero(mag != 0.0)
    D = np.zeros((r, 4))
    D[:, 0] = 1.0
    D[nz] = _qops.qconj(rkk[nz]) / mag[nz, None]
    Rdat[nz] = _qops.qmul(D[nz, None, :], Rdat[nz])
    Rdat[nz, nz] = 0.0
    Rdat[nz, nz, 0] = mag[nz]

    diag = Rdat[ks, ks, 0]
    if diag.min() <= rank_tol * max(scale, 1e-300):
        raise RankDeficient(
            f"R diagonal {diag.min():.3e} <= {rank_tol:.1e} * {scale:.3e}")

    Qdat = np.zeros((m, r, 4))
    Qdat[ks, ks, 0] = 1.0
    for k, vcol, vH, vns in reversed(reflectors):
        t = _qops.qmatmul(vH, Qdat[k:, :, :])
        Qdat[k:, :, :] -= (2.0 / vns) * _qops.qmatmul(vcol, t)
    Qdat = _qops.qmul(Qdat, _qops.qconj(D)[None, :, :])

    return QRFactors(Q=QMatrix(Qdat), R=QMatrix(Rdat))


def solve_upper_triangular(R: QMatrix, B: QMatrix) -> QMatrix:
    """Solve R Z = B for upper-triangular R with real positive diagonal."""
    r = R.rows
    Z = np.zeros_like(B.data)
    Rd = R.data
    Bd = B.data
    for j in range(r - 1, -1, -1):
        Z[j] = Bd[j]
        if j + 1 < r:
            Z[j] -= _qops.qmatmul(Rd[j:j + 1, j + 1:, :], Z[j + 1:, :, :])[0]
        Z[j] /= Rd[j, j, 0]
    return QMatrix(Z)


def pinv_from_qr(Y: QMatrix, rank_tol: float = 1e-12) -> QMatrix:
    """Y^dagger = R^{-1} Q^H for numerically full-column-rank Y."""
    f = thin_qr(Y, rank_tol)
    return solve_upper_triangular(f.R, f.Q.adjoint())


# ---------------------------------------------------------------------------
# Hermitian positive definite solves
# ---------------------------------------------------------------------------

def _cholesky(Gd: np.ndarray) -> np.ndarray | None:
    """Quaternion Cholesky G = L L^H; returns None on a nonpositive pivot."""
    r = Gd.shape[0]
    L = np.zeros_like(Gd)
    gscale = math.sqrt((Gd * Gd).sum())
    for j in range(r):
        d = Gd[j, j, 0] - float((L[j, :j, :] * L[j, :j, :]).sum())
        if d <= 1e-14 * max(gscale, 1e-300):
            return None
        ljj = math.sqrt(d)
        L[j, j, 0] = ljj
        if j + 1 < r:
            L[j + 1:, j] = Gd[j + 1:, j]
            if j > 0:
                conj_row = _qops.qconj(L[j, :j, :])[:, None, :]
                L[j + 1:, j] -= _qops.qmatmul(L[j + 1:, :j, :],
                                              conj_row)[:, 0, :]
            L[j + 1:, j] /= ljj
    return L


def _chol_solve(L: np.ndarray, Bd: np.ndarray) -> np.ndarray:
    """Solve L L^H Z = B: forward substitution with L, then back
    substitution with L^H, whose real diagonal is L's."""
    Z = np.zeros_like(Bd)
    for j in range(L.shape[0]):
        Z[j] = Bd[j]
        if j > 0:
            Z[j] -= _qops.qmatmul(L[j:j + 1, :j, :], Z[:j, :, :])[0]
        Z[j] /= L[j, j, 0]
    LH = QMatrix(_qops.qconj(L.transpose(1, 0, 2)))
    return solve_upper_triangular(LH, QMatrix(Z)).data


def _frob_inner(x: np.ndarray, y: np.ndarray) -> float:
    return float((x * y).sum())


@dataclass
class HPDFactor:
    """G + ridge*I, factored once by ``hpd_factor`` and then solved against
    any number of right-hand sides."""
    G: QMatrix               # G + ridge*I
    L: np.ndarray | None     # its Cholesky factor; None: solves run CG

    def solve(self, B: QMatrix, tol: float = 1e-10) -> QMatrix:
        """Z with (G + ridge*I) Z = B: the two triangular solves, kept when
        their residual is within tol * ||B||; otherwise a CG micro-solver
        (iteration cap 4r) takes over. Raises Indefinite when CG
        stagnates."""
        r = self.G.rows
        if B.rows != r:
            raise NotHermitian("B row count differs from G")
        bnorm = max(B.fro_norm(), 1e-300)
        if self.L is not None:
            Z = QMatrix(_chol_solve(self.L, B.data))
            if (self.G @ Z - B).fro_norm() <= tol * bnorm:
                return Z

        # CG fallback in the real trace inner product
        Z = QMatrix.zeros(r, B.cols)
        Rres = B - self.G @ Z
        P = Rres.copy()
        rs = _frob_inner(Rres.data, Rres.data)
        for _ in range(4 * r):
            if math.sqrt(rs) <= tol * bnorm:
                break
            GP = self.G @ P
            denom = _frob_inner(P.data, GP.data)
            if denom <= 0:
                break
            a = rs / denom
            Z = QMatrix(Z.data + a * P.data)
            Rres = QMatrix(Rres.data - a * GP.data)
            rs_new = _frob_inner(Rres.data, Rres.data)
            P = QMatrix(Rres.data + (rs_new / rs) * P.data)
            rs = rs_new
        if (self.G @ Z - B).fro_norm() <= tol * bnorm:
            return Z
        raise Indefinite("Cholesky failed and the CG fallback stagnated")


def hpd_factor(G: QMatrix, ridge: float = 1e-10) -> HPDFactor:
    """Factor G + ridge*I for Hermitian positive definite G, once per G.

    Raises NotHermitian, or Indefinite when a Cholesky pivot fails and G
    has a negative eigenvalue; a pivot failure on a merely singular or
    ill-conditioned G leaves L None, and every solve then runs CG.
    """
    r, _ = G.shape
    if G.cols != r:
        raise NotHermitian("hpd_factor needs a square matrix")
    herm_gap = (G - G.adjoint()).fro_norm()
    if herm_gap > 1e-10 * max(G.fro_norm(), 1e-300):
        raise NotHermitian(f"||G - G^H|| = {herm_gap:.3e}")
    Gd = G.data.copy()
    Gd[np.arange(r), np.arange(r), 0] += ridge
    L = _cholesky(Gd)
    if L is None:
        lo = float(np.linalg.eigvalsh(G.to_complex_adjoint())[0])
        if lo < -1e-10 * max(G.fro_norm(), 1e-300):
            raise Indefinite(f"min eigenvalue {lo:.3e} < 0")
    return HPDFactor(QMatrix(Gd), L)


def hpd_solve(G: QMatrix, B: QMatrix, ridge: float = 1e-10,
              tol: float = 1e-10) -> QMatrix:
    """Solve (G + ridge*I) Z = B for Hermitian positive definite G:
    ``hpd_factor(G, ridge).solve(B, tol)``. A caller with several
    right-hand sides for one G factors it once and calls ``solve`` on each.
    """
    return hpd_factor(G, ridge).solve(B, tol)


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
    cols = np.empty((W.shape[0] // 2, k, 4))
    for j in range(k):
        i = int(np.argmax(nsq))
        v = W[:, i] / np.linalg.norm(W[:, i])
        P = np.stack([v, _phi(v)], axis=1)
        C = P.conj().T @ W
        W -= P @ C
        nsq -= np.sum(np.abs(C) ** 2, axis=0)
        x, y = v[0::2], v[1::2]
        cols[:, j] = np.stack([x.real, x.imag, -y.real, y.imag], axis=1)
    return cols


def _right_factor(A: QMatrix):
    """LAPACK SVD of the embedding, then V paired from its right singular
    vectors. Returns (Uc, s, V, AV): the complex left singular vectors,
    and s = ||A v_j||, V and AV sorted so that s is nonincreasing."""
    require_finite(A)
    try:
        Uc, _, Vch = np.linalg.svd(A.to_complex_adjoint())
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"LAPACK SVD: {exc}") from exc
    V = _quaternion_basis(Vch.conj().T, A.cols)
    AV = (A @ QMatrix(V)).data
    s = np.sqrt(_qops.qnormsq(AV).sum(axis=0))
    perm = np.argsort(-s, kind="stable")
    return Uc, s[perm], V[:, perm], AV[:, perm]


def qsvd(A: QMatrix) -> QSVDFactors:
    """Quaternion SVD A = U diag(S) V^H with full unitary U, V.

    Route: LAPACK SVD of the complex adjoint embedding -> V paired from
    its right singular vectors -> U = A V / sigma on the numerical range,
    completed from the left singular vectors of the left null space.
    """
    m, n = A.shape
    Uc, s, V, AV = _right_factor(A)
    r = int(np.sum(s > 1e-13 * s.max(initial=0.0)))
    U = np.concatenate([AV[:, :r] / s[:r, None],
                        _quaternion_basis(Uc[:, 2 * r:], m - r)], axis=1)
    return QSVDFactors(U=QMatrix(U), S=s[:min(m, n)], V=QMatrix(V))


def pinv_qsvd(A: QMatrix, rank_tol: float = 1e-10) -> QMatrix:
    """Pseudoinverse V Sigma^+ U^H; sigma <= rank_tol * max sigma -> 0.

    With U = A V / sigma on the kept columns this is
    V diag(1 / sigma^2) (A V)^H, so U itself is never formed.
    """
    _, s, V, AV = _right_factor(A)
    k = min(A.shape)
    s, V, AV = s[:k], V[:, :k], AV[:, :k]
    smax = s[0] if k else 0.0
    keep = s > rank_tol * max(smax, 1e-300)
    sinv = np.where(keep, 1.0 / np.maximum(s, 1e-300), 0.0)
    return QMatrix(V * (sinv ** 2)[None, :, None]) @ QMatrix(AV).adjoint()


def pinv_normal_eq(A: QMatrix, ridge: float = 0.0) -> QMatrix:
    """Closed-form full-rank pseudoinverse through the Gram system.

    Tall (and square) inputs use (A^H A)^{-1} A^H; wide inputs use
    A^H (A A^H)^{-1}. Indefinite propagates on rank deficiency.
    """
    require_finite(A)
    m, n = A.shape
    Ah = A.adjoint()
    if m >= n:
        return hpd_solve(Ah @ A, Ah, ridge)
    W = hpd_solve(A @ Ah, QMatrix.identity(m), ridge)
    return Ah @ W
