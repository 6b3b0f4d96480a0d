import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quatpinv import _qops, factor, solvers
from quatpinv.errors import (ConvergenceFailure, DimensionMismatch,
                             Indefinite, NonFinite, NotHermitian,
                             QuatpinvError, RankDeficient)
from quatpinv.factor import (_checked_chol_solve, _cholesky, hpd_solve,
                             pinv_normal_eq, pinv_qsvd, qsvd,
                             solve_upper_triangular, thin_qr)
from quatpinv.qmatrix import QMatrix, randn_qmat, randn_qmat_rng
from quatpinv.rng import QuatRNG
from quatpinv.solvers import (SketchConfig, SolverConfig, cgne_q,
                              penrose_residuals)
from rsp_helpers import pinv_from_qr


def is_identity(A: QMatrix, tol=1e-12) -> bool:
    return (A - QMatrix.identity(A.rows)).fro_norm() <= tol


def reconstruct(f, m: int, n: int) -> QMatrix:
    Sig = np.zeros((m, n))
    Sig[:len(f.S), :len(f.S)] = np.diag(f.S)
    return f.U @ QMatrix.from_real(Sig) @ f.V.adjoint()


# ---------------------------------------------------------------------------
# thin QR
# ---------------------------------------------------------------------------

def _geometric(m: int, n: int, cond: float, seed: int) -> QMatrix:
    """U diag(s) V^H with s geometric from 1 to 1/cond, U and V from qsvd."""
    U = qsvd(randn_qmat(m, n, seed)).U.take_cols(range(n))
    V = qsvd(randn_qmat(n, n, seed + 1)).V
    s = np.geomspace(1.0, 1.0 / cond, n)
    return QMatrix(U.data * s[:, None]) @ V.adjoint()


def _upper_real_positive(R: QMatrix) -> bool:
    d = R.data
    ks = np.arange(R.rows)
    return bool(np.all(d[ks, ks, 0] > 0.0) and np.all(d[ks, ks, 1:] == 0.0)
                and not np.tril(np.abs(d).sum(-1), -1).any())


def test_thin_qr_column_example():
    Y = QMatrix.from_real(np.array([[2.0], [0.0]]))
    f = thin_qr(Y)
    assert (f.Q - QMatrix.from_real(np.array([[1.0], [0.0]]))).fro_norm() <= 1e-14
    assert np.linalg.norm(f.R.data[0, 0] - (2.0, 0, 0, 0)) <= 1e-14


def test_thin_qr_random():
    Y = randn_qmat(8, 3, 0)
    f = thin_qr(Y)
    assert is_identity(f.Q.adjoint() @ f.Q, tol=1e-13)
    assert (f.Q @ f.R - Y).fro_norm() <= 1e-12 * Y.fro_norm()
    assert _upper_real_positive(f.R)


def test_thin_qr_rank_deficient():
    Y = randn_qmat(6, 2, 1)
    Y = QMatrix(np.concatenate([Y.data, Y.data[:, :1, :]], axis=1))
    with pytest.raises(RankDeficient):
        thin_qr(Y)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m,n", [(70, 8), (30, 30)])
def test_thin_qr_orthonormal_at_cond_1e10(m, n, seed):
    # one QR of the embedding leaves Q^H Q - I at about cond(Y) eps, 3e-9
    # to 9e-8 on these inputs; the second pass brings it to rounding
    Y = _geometric(m, n, 1e10, seed)
    f = thin_qr(Y)
    assert (f.Q.adjoint() @ f.Q - QMatrix.identity(n)).fro_norm() <= 1e-13
    assert (f.Q @ f.R - Y).fro_norm() <= 1e-14 * Y.fro_norm()
    assert _upper_real_positive(f.R)


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e-250])
def test_thin_qr_rank_threshold_holds_at_any_scale(scale):
    # ||Y||_F^2 underflows below about 1e-162: the threshold once fell to
    # 1e-12 * 1e-300, and R_22 = 1e-14 passed at 1e-200 and 1e-250
    Y = np.zeros((4, 3))
    Y[:3] = np.diag([1.0, 1e-14, 2.0])
    with pytest.raises(RankDeficient):
        thin_qr(QMatrix.from_real(Y * scale))
    Y[1, 1] = 1e-6
    assert _upper_real_positive(thin_qr(QMatrix.from_real(Y * scale)).R)


@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_thin_qr_quaternion_rank_at_extreme_scales(scale):
    # column 3 of the dependent Y is column 1 times a non-real quaternion on
    # the right. A Householder loop in quaternion arithmetic underflowed its
    # updates at 1e-150 and kept R_33 = 5.4e-150, and overflowed to NaN
    # factors of both inputs at 1e150
    Y = randn_qmat(12, 5, 3)
    dep = Y.copy()
    dep.data[:, 3] = _qops.qmul(Y.data[:, 1], np.array([0.3, -0.7, 0.5, 0.2]))
    with pytest.raises(RankDeficient):
        thin_qr(QMatrix(dep.data * scale))
    Ys = QMatrix(Y.data * scale)
    f = thin_qr(Ys)
    # the gap is scaled back first, so that its squares stay in range
    gap = QMatrix((f.Q @ f.R - Ys).data / scale).fro_norm()
    assert gap <= 1e-14 * Y.fro_norm()
    assert _upper_real_positive(f.R)


def test_solve_upper_triangular():
    R = thin_qr(randn_qmat(5, 4, 2)).R
    B = randn_qmat(4, 3, 3)
    X = solve_upper_triangular(R, B)
    assert (R @ X - B).fro_norm() <= 1e-11 * B.fro_norm()


def test_pinv_from_qr_penrose():
    A = randn_qmat(9, 4, 4)
    X = pinv_from_qr(A)
    assert max(penrose_residuals(A, X)) <= 1e-11


# ---------------------------------------------------------------------------
# HPD solve
# ---------------------------------------------------------------------------

def test_hpd_solve_identity_and_diag():
    B = randn_qmat(3, 2, 5)
    assert (hpd_solve(QMatrix.identity(3), B) - B).fro_norm() <= 1e-13
    G = QMatrix.from_real(np.diag([2.0, 3.0]))
    B2 = QMatrix.from_real(np.array([[4.0], [9.0]]))
    X = hpd_solve(G, B2)
    assert (X - QMatrix.from_real(np.array([[2.0], [3.0]]))).fro_norm() <= 1e-13


def test_hpd_solve_gram():
    A = randn_qmat(10, 4, 6)
    G = A.adjoint() @ A
    B = randn_qmat(4, 2, 7)
    X = hpd_solve(G, B)
    assert (G @ X - B).fro_norm() <= 1e-10 * B.fro_norm()


def test_hpd_solve_not_hermitian():
    with pytest.raises(NotHermitian):
        hpd_solve(randn_qmat(3, 3, 8), QMatrix.identity(3))


def test_hpd_solve_indefinite():
    G = QMatrix.from_real(-np.eye(3))
    with pytest.raises(Indefinite):
        hpd_solve(G, QMatrix.identity(3))


def test_hpd_solve_cg_fallback():
    # a repeated column makes G singular: the Cholesky pivot fails and CG
    # solves a right-hand side in the range of G, but not one outside it
    C = randn_qmat(12, 4, 0).take_cols([0, 0, 1, 2, 3])
    G = C.adjoint() @ C
    B = G @ randn_qmat(5, 2, 1)
    X = hpd_solve(G, B)
    assert (G @ X - B).fro_norm() <= 1e-10 * B.fro_norm()
    with pytest.raises(Indefinite):
        hpd_solve(G, randn_qmat(5, 2, 2))


# ---------------------------------------------------------------------------
# QSVD
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n,seed", [(6, 4, 0), (4, 6, 1), (5, 5, 2)])
def test_qsvd_reconstruction(m, n, seed):
    A = randn_qmat(m, n, seed)
    f = qsvd(A)
    assert is_identity(f.U.adjoint() @ f.U, tol=1e-12)
    assert is_identity(f.V.adjoint() @ f.V, tol=1e-12)
    assert np.all(np.diff(f.S) <= 1e-12) and np.all(f.S >= 0)
    assert (reconstruct(f, m, n) - A).fro_norm() <= 1e-8 * A.fro_norm()


def test_qsvd_spectrum_matches_gram():
    A = randn_qmat(7, 4, 3)
    f = qsvd(A)
    # eigenvalues of the embedded Gram matrix come in pairs sigma^2
    ev = np.linalg.eigvalsh((A.adjoint() @ A).to_complex_adjoint())[::-1]
    assert np.allclose(ev[0::2], f.S ** 2, rtol=1e-10, atol=1e-10)
    assert np.allclose(ev[1::2], f.S ** 2, rtol=1e-10, atol=1e-10)


def test_qsvd_rank_deficient():
    G = randn_qmat(6, 2, 4)
    H = randn_qmat(5, 2, 5)
    A = G @ H.adjoint()
    f = qsvd(A)
    assert np.sum(f.S > 1e-8 * f.S[0]) == 2
    assert (reconstruct(f, 6, 5) - A).fro_norm() <= 1e-8 * A.fro_norm()


def test_qsvd_zero_matrix():
    f = qsvd(QMatrix.zeros(3, 2))
    assert np.all(f.S == 0.0)
    assert is_identity(f.U.adjoint() @ f.U, tol=1e-12)


@settings(deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**31 - 1))
def test_qsvd_property(m, n, seed):
    A = randn_qmat(m, n, seed)
    f = qsvd(A)
    assert is_identity(f.U.adjoint() @ f.U, tol=1e-12)
    assert is_identity(f.V.adjoint() @ f.V, tol=1e-12)
    assert np.all(np.diff(f.S) <= 0) and np.all(f.S >= 0)
    assert (reconstruct(f, m, n) - A).fro_norm() <= 1e-10 * A.fro_norm()


@pytest.mark.parametrize("A", [QMatrix.identity(6),
                               thin_qr(randn_qmat(9, 4, 12)).Q,
                               thin_qr(randn_qmat(9, 4, 12)).Q.adjoint()],
                         ids=["identity", "orthonormal-cols", "orthonormal-rows"])
def test_qsvd_degenerate_spectrum(A):
    m, n = A.shape
    f = qsvd(A)
    assert np.abs(f.S - 1.0).max() <= 1e-12
    assert is_identity(f.U.adjoint() @ f.U, tol=1e-12)
    assert is_identity(f.V.adjoint() @ f.V, tol=1e-12)
    assert (reconstruct(f, m, n) - A).fro_norm() <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_qsvd_rejects_non_finite(bad):
    A = randn_qmat(5, 4, 13)
    A.data[2, 1, 3] = bad
    with pytest.raises(NonFinite):
        qsvd(A)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
@pytest.mark.parametrize("oracle", [pinv_qsvd, pinv_normal_eq],
                         ids=["pinv_qsvd", "pinv_normal_eq"])
def test_pseudoinverse_oracles_reject_non_finite(oracle, wide, bad):
    A = randn_qmat(5, 4, 13)
    A.data[2, 1, 3] = bad
    with pytest.raises(NonFinite):
        oracle(A.adjoint() if wide else A)


# ---------------------------------------------------------------------------
# pseudoinverse routes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m,n", [(8, 5), (5, 8)])
def test_pinv_routes_agree(m, n):
    A = randn_qmat(m, n, 9)
    X1 = pinv_qsvd(A)
    X2 = pinv_normal_eq(A)
    assert (X1 - X2).fro_norm() <= 1e-10 * X2.fro_norm()
    assert max(penrose_residuals(A, X1)) <= 1e-9
    assert max(penrose_residuals(A, X2)) <= 1e-9


@pytest.mark.parametrize("m,n", [(25, 24), (50, 30), (70, 50), (220, 200)])
def test_pinv_qsvd_completes_unitary_basis(m, n):
    # these shapes (seed 0) once failed to complete the unitary U
    A = randn_qmat(m, n, 0)
    X1 = pinv_qsvd(A)
    X2 = pinv_normal_eq(A)
    assert (X1 - X2).fro_norm() <= 1e-10 * X2.fro_norm()
    assert max(penrose_residuals(A, X1)) <= 1e-9


def test_pinv_zeros():
    X = pinv_qsvd(QMatrix.zeros(2, 3))
    assert X.shape == (3, 2) and X.fro_norm() == 0.0


def test_pinv_rank_deficient_qsvd():
    G = randn_qmat(7, 3, 10)
    H = randn_qmat(6, 3, 11)
    A = G @ H.adjoint()
    X = pinv_qsvd(A)
    assert max(penrose_residuals(A, X)) <= 1e-8


# ---------------------------------------------------------------------------
# bitwise parity with the loops the micro-solves replaced
# ---------------------------------------------------------------------------
# The references keep the earlier code: substitutions that copy each
# right-hand-side row before subtracting, and one qconj per
# back-substitution step. The current code must round exactly as they do.

def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return (x.shape == y.shape and np.array_equal(x, y)
            and np.ascontiguousarray(x).tobytes()
            == np.ascontiguousarray(y).tobytes())


def _solve_upper_loop(Rd: np.ndarray, Bd: np.ndarray) -> np.ndarray:
    r = Rd.shape[0]
    Z = np.zeros_like(Bd)
    for j in range(r - 1, -1, -1):
        acc = Bd[j:j + 1, :, :].copy()
        if j + 1 < r:
            acc = acc - _qops.qmatmul(Rd[j:j + 1, j + 1:, :], Z[j + 1:, :, :])
        Z[j, :, :] = acc[0] / Rd[j, j, 0]
    return Z


def _cholesky_loop(Gd: np.ndarray):
    r = Gd.shape[0]
    L = np.zeros_like(Gd)
    gscale = float(np.sqrt(np.sum(Gd * Gd)))
    for j in range(r):
        d = Gd[j, j, 0] - float(np.sum(L[j, :j, :] * L[j, :j, :]))
        if d <= 1e-14 * max(gscale, 1e-300):
            return None
        ljj = np.sqrt(d)
        L[j, j, 0] = ljj
        if j + 1 < r:
            acc = Gd[j + 1:, j, :].copy()
            if j > 0:
                conj_row = _qops.qconj(L[j, :j, :])[:, None, :]
                acc -= _qops.qmatmul(L[j + 1:, :j, :], conj_row)[:, 0, :]
            L[j + 1:, j, :] = acc / ljj
    return L


def _chol_solve_loop(L: np.ndarray, Bd: np.ndarray) -> np.ndarray:
    r = L.shape[0]
    Y = np.zeros_like(Bd)
    for j in range(r):
        acc = Bd[j:j + 1, :, :].copy()
        if j > 0:
            acc = acc - _qops.qmatmul(L[j:j + 1, :j, :], Y[:j, :, :])
        Y[j, :, :] = acc[0] / L[j, j, 0]
    Z = np.zeros_like(Bd)
    for j in range(r - 1, -1, -1):
        acc = Y[j:j + 1, :, :].copy()
        if j + 1 < r:
            LH = _qops.qconj(L[j + 1:, j, :])[None, :, :]
            acc = acc - _qops.qmatmul(LH, Z[j + 1:, :, :])
        Z[j, :, :] = acc[0] / L[j, j, 0]
    return Z


def _hpd_solve_loop(G: QMatrix, B: QMatrix, ridge: float = 1e-10,
                    tol: float = 1e-10) -> QMatrix:
    r = G.rows
    if G.cols != r:
        raise NotHermitian("shape")
    if B.rows != r:
        raise DimensionMismatch("shape")
    if (G - G.adjoint()).fro_norm() > 1e-10 * max(G.fro_norm(), 1e-300):
        raise NotHermitian("not Hermitian")
    Gd = G.data.copy()
    Gd[np.arange(r), np.arange(r), 0] += ridge
    Gr = QMatrix(Gd)
    bnorm = max(B.fro_norm(), 1e-300)
    L = _cholesky_loop(Gd)
    if L is not None:
        Z = QMatrix(_chol_solve_loop(L, B.data))
        if (Gr @ Z - B).fro_norm() <= tol * bnorm:
            return Z
    else:
        lo = float(np.linalg.eigvalsh(G.to_complex_adjoint())[0])
        if lo < -1e-10 * max(G.fro_norm(), 1e-300):
            raise Indefinite("negative eigenvalue")
    # the fallback: LAPACK's min-norm least-squares solution of the
    # embedded system, read back from its even columns
    Zc = np.linalg.lstsq(Gr.to_complex_adjoint(), B.to_complex_adjoint(),
                         rcond=1e-12)[0]
    x, y = Zc[0::2, 0::2], Zc[1::2, 0::2]
    Z = QMatrix(np.stack([x.real, x.imag, -y.real, y.imag], axis=-1))
    if (Gr @ Z - B).fro_norm() <= tol * bnorm:
        return Z
    raise Indefinite("B is not in G's range")


def _outcome(fn, *args):
    """fn's result, or the class of the error it raised."""
    try:
        return fn(*args)
    except QuatpinvError as exc:
        return type(exc)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 10), st.integers(1, 12), st.integers(0, 2**31 - 1))
@example(1, 1, 0)
def test_solve_upper_triangular_matches_loop_version(r, ncols, seed):
    R = thin_qr(randn_qmat(r + 2, r, seed)).R
    B = randn_qmat(r, ncols, seed + 1)
    assert _same_bits(solve_upper_triangular(R, B).data,
                      _solve_upper_loop(R.data, B.data))


def _rel_gap(X: np.ndarray, Xref: np.ndarray) -> float:
    return float(np.linalg.norm(X - Xref) / np.linalg.norm(Xref))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 10), st.integers(1, 12), st.integers(0, 2**31 - 1))
@example(1, 1, 0)
def test_cholesky_and_chol_solve_match_complex_solve(r, ncols, seed):
    # L is the lower-triangular factor of G's embedding, and the solve is
    # LAPACK's solve of the embedded system, to rounding
    C = randn_qmat(r + 3, r, seed)
    G = C.adjoint() @ C
    Gc = G.to_complex_adjoint()
    L = _cholesky(G.data)
    assert np.array_equal(L, np.tril(L))
    assert _rel_gap(L @ L.conj().T, Gc) <= 1e-12
    B = randn_qmat(r, ncols, seed + 1)
    Z = QMatrix(_checked_chol_solve(L, G.data, B.data)[0])
    ref = np.linalg.solve(Gc, B.to_complex_adjoint())
    assert _rel_gap(Z.to_complex_adjoint(), ref) <= 1e-12


def test_cholesky_pivot_failure_matches_loop_version():
    C = randn_qmat(12, 4, 0).take_cols([0, 0, 1, 2, 3])
    Gd = (C.adjoint() @ C).data
    assert _cholesky(Gd) is None and _cholesky_loop(Gd) is None


_C = randn_qmat(12, 4, 0).take_cols([0, 0, 1, 2, 3])
_G_SINGULAR = _C.adjoint() @ _C
_G_GRAM = randn_qmat(10, 4, 6).adjoint() @ randn_qmat(10, 4, 6)


@pytest.mark.parametrize("G,B,ridge", [
    (QMatrix.identity(3), randn_qmat(3, 2, 5), 0.0),
    (_G_SINGULAR, _G_SINGULAR @ randn_qmat(5, 2, 1), 0.0),   # B in range
    (_G_SINGULAR, randn_qmat(5, 2, 2), 0.0),                 # B not in range
    (QMatrix.from_real(-np.eye(3)), QMatrix.identity(3), 1e-10),
    # e0 - e1 spans null(G): the min-norm solution is 0
    (_G_SINGULAR, QMatrix.from_real(np.array([[1.0], [-1.0], [0], [0], [0]])),
     0.0),
], ids=["identity", "cg-fallback", "cg-stagnates", "indefinite",
        "cg-null-direction"])
def test_hpd_solve_matches_loop_version(G, B, ridge):
    Gr = G.copy()
    Gr.data[np.arange(G.rows), np.arange(G.rows), 0] += ridge
    got = _outcome(hpd_solve, Gr, B)
    ref = _outcome(_hpd_solve_loop, G, B, ridge)
    if not isinstance(ref, QMatrix):
        assert got is ref
    elif _cholesky_loop(Gr.data) is None:
        # the fallback's min-norm solve, to rounding
        assert _rel_gap(got.data, ref.data) <= 1e-12
    else:
        assert _same_bits(got.data, ref.data)


def test_hpd_solve_overflowing_cg_residual_is_non_finite():
    # the pivot fails and ||B||^2 overflows, though B is finite: the CG
    # fallback once stopped at once on sqrt(inf) <= tol * inf and passed
    # its final check with Z = 0
    B = (_G_SINGULAR @ randn_qmat(5, 2, 1)).scale(1e160)
    with np.errstate(over="ignore"), pytest.raises(NonFinite):
        hpd_solve(_G_SINGULAR, B)


def test_hpd_solve_tiny_singular_gram_keeps_its_range():
    # ||G||_F^2 underflows to 0 at this scale: the fallback's eigenvalue
    # cut is taken relative to the largest eigenvalue, so G's range is
    # kept and B, in it, is solved
    B = _G_SINGULAR @ randn_qmat(5, 2, 1)
    Z = hpd_solve(_G_SINGULAR.scale(1e-300), B.scale(1e-300))
    assert (_G_SINGULAR @ Z - B).fro_norm() <= 1e-10 * B.fro_norm()


def _low_rank(m: int, n: int, k: int, seed: int) -> QMatrix:
    return randn_qmat(m, k, seed) @ randn_qmat(k, n, seed + 1)


@pytest.mark.parametrize("A", [
    _C,
    _low_rank(40, 30, 3, 13),
    _low_rank(40, 30, 15, 11),
    _low_rank(220, 200, 199, 9),
    _C.scale(1e-150),
    _low_rank(40, 30, 15, 11).scale(1e100),
    _low_rank(30, 30, 3, 13),
    _low_rank(30, 40, 3, 13),
], ids=["duplicate-column", "rank-3", "rank-15", "rank-199",
        "duplicate-column-1e-150", "rank-15-1e100", "rank-3-square",
        "rank-3-wide"])
def test_pinv_normal_eq_rank_deficient_matches_qsvd(A):
    # a singular Gram matrix fails its Cholesky pivot; the fallback's
    # min-norm solve of A^H A Z = A^H is A^+ (rank-199 and the two scaled
    # cases once raised). A wide A's A A^H Z = I has no solution, since I
    # is not in the singular Gram matrix's range
    if A.rows < A.cols:
        with pytest.raises(Indefinite):
            pinv_normal_eq(A)
        return
    ref = pinv_qsvd(A)
    with np.errstate(over="ignore"):
        X = pinv_normal_eq(A)
    assert (X - ref).fro_norm() <= 1e-10 * ref.fro_norm()
    # each Penrose residual over the norm of the matrix its equation
    # compares with (X, A, XA, AX), so the bound holds at any scale of A
    sizes = (X.fro_norm(), A.fro_norm(), (X @ A).fro_norm(),
             (A @ X).fro_norm())
    assert all(e <= 1e-8 * n for e, n in zip(penrose_residuals(A, X), sizes))


@pytest.mark.parametrize("r", range(1, 11))
def test_hpd_solve_gram_matches_complex_solve(r):
    # a ridged Gram matrix, as the sketch stream solves them (r = 4 is
    # _G_GRAM), against LAPACK's solve of the embedded system
    C = randn_qmat(r + 6, r, 6)
    G = C.adjoint() @ C
    G.data[np.arange(r), np.arange(r), 0] += 1e-10
    B = randn_qmat(r, 2, 7)
    Z = hpd_solve(G, B)
    ref = np.linalg.solve(G.to_complex_adjoint(), B.to_complex_adjoint())
    assert _rel_gap(Z.to_complex_adjoint(), ref) <= 1e-12


def test_cholesky_rejects_a_positive_pivot_below_threshold():
    # LAPACK accepts the pivot 1e-16 > 0; it is at most 1e-14 ||G||_F, so
    # the factor is still refused, alone and in a stack
    Gd = QMatrix.from_real(np.diag([1.0, 1e-16, 2.0])).data
    assert np.linalg.cholesky(QMatrix(Gd).to_complex_adjoint()) is not None
    assert _cholesky(Gd) is None
    Ggood = _G_GRAM.data[:3, :3].copy()
    L, ok = _cholesky(np.stack([Ggood, Gd]))
    assert ok.tolist() == [True, False]
    assert _same_bits(L[0], _cholesky(Ggood))
    assert _same_bits(L[1], np.eye(6, dtype=complex))


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e-250])
def test_cholesky_pivot_threshold_holds_at_any_scale(scale):
    # ||G||_F^2 underflows below about 1e-162: the threshold once fell to
    # 1e-14 * 1e-300, and the pivot 1e-20 passed at 1e-200 and 1e-250
    refused = QMatrix.from_real(np.diag([1.0, 1e-20, 2.0])).data * scale
    kept = QMatrix.from_real(np.diag([1.0, 1e-10, 2.0])).data * scale
    assert _cholesky(refused) is None
    assert _cholesky(kept) is not None
    assert _cholesky(np.stack([kept, refused]))[1].tolist() == [True, False]


def test_hpd_solve_overflowing_b_norm_is_non_finite():
    # ||B||_F overflows though B is finite: the Cholesky path's residual
    # bound is then inf, and a solve that returned Z = 0 once passed it
    B = randn_qmat(4, 2, 7).scale(1e160)
    Gs = np.stack([_gram(4, 40 + i) for i in range(3)])
    Bs = _stack((4, 2), range(50, 53))
    Bs[1] *= 1e160
    with np.errstate(over="ignore"):
        with pytest.raises(NonFinite, match="B"):
            hpd_solve(_G_GRAM, B)
        Z, ok = hpd_solve(Gs, Bs)
        assert ok.tolist() == [True, False, True]
        for i in (0, 2):
            assert _same_bits(Z[i],
                              hpd_solve(QMatrix(Gs[i]), QMatrix(Bs[i])).data)


def test_hpd_solve_lapack_failures_are_typed(monkeypatch):
    # a LinAlgError of the fallback's eigendecomposition or of the
    # triangular solves' inverse is not the pivot test's failure: it is
    # raised as ConvergenceFailure
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")
    B = randn_qmat(4, 2, 7)
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceFailure, match="eigenvalues"):
            hpd_solve(QMatrix.from_real(-np.eye(4)), B)
    monkeypatch.setattr(np.linalg, "inv", fail)
    with pytest.raises(ConvergenceFailure, match="triangular solve"):
        hpd_solve(_G_GRAM, B)
    with pytest.raises(ConvergenceFailure, match="triangular solve"):
        hpd_solve(_G_GRAM.data[None], B.data[None])


def test_thin_qr_lapack_failure_is_typed(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("did not converge")
    monkeypatch.setattr(np.linalg, "qr", fail)
    with pytest.raises(ConvergenceFailure, match="QR"):
        thin_qr(randn_qmat(6, 4, 1))


# ---------------------------------------------------------------------------
# the Nystrom preconditioner against a dense reference
# ---------------------------------------------------------------------------

class _NystromPrecondDense:
    """The Nystrom preconditioner of H = B B^H built densely: the m x m
    approximation Y_nu (Omega^H Y_nu)^{-1} Y_nu^H, its top r eigenpairs from
    qsvd, and P^{-1} = I + U diag(l_r / l - 1) U^H as an m x m matrix."""

    def __init__(self, B: QMatrix, Bh: QMatrix, sk: SketchConfig):
        r = sk.block_r
        Omega = thin_qr(randn_qmat_rng(B.rows, r, QuatRNG(sk.seed))).Q
        Y = B @ (Bh @ Omega)
        nu = np.finfo(float).eps * Y.fro_norm()
        Y = Y + Omega.scale(nu)
        f = qsvd(Y @ hpd_solve(Omega.adjoint() @ Y, Y.adjoint()))
        lam = f.S[:r] - nu
        U = f.U.take_cols(range(r))
        UW = QMatrix(U.data * (lam[-1] / lam - 1.0)[None, :, None])
        self.Pinv = QMatrix.identity(B.rows) + UW @ U.adjoint()

    def apply_right(self, Z: QMatrix) -> QMatrix:
        return Z @ self.Pinv


@pytest.mark.parametrize("shape", [(20, 8), (8, 20)])
def test_cgne_nystrom_matches_dense_reference(shape, monkeypatch):
    # the r x r core's eigenpairs, rotated by Q, give the preconditioner
    # that the dense m x m approximation gives; CG amplifies last-bit
    # differences, so the counts may differ by one
    A = randn_qmat(*shape, 21)
    cfg = SolverConfig(tol=1e-10, maxit=60)
    sk = SketchConfig(block_r=6, seed=2)
    X, rep = cgne_q(A, cfg, precond=sk)
    monkeypatch.setattr(solvers, "_NystromPrecond", _NystromPrecondDense)
    Xref, ref = cgne_q(A, cfg, precond=sk)
    assert rep.converged and ref.converged
    assert abs(rep.iterations - ref.iterations) <= 1 and ref.iterations > 1
    assert (X - Xref).fro_norm() <= 1e-8 * Xref.fro_norm()


# ---------------------------------------------------------------------------
# stacks: each item bitwise the routine run on it alone
# ---------------------------------------------------------------------------
# p up to 130 puts the reductions over a whole right-hand side on both sides
# of numpy's 8- and 128-element summation blocks.

def _stack(shape, seeds):
    """randn_qmat items of one shape, stacked."""
    return np.stack([randn_qmat(*shape, s).data for s in seeds])


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(0, 2**31 - 1),
       st.booleans())
@example(16, 8, 0, False)
@example(3, 12, 1, True)
def test_cholesky_stack_items_bitwise_equal_2d(s, r, seed, singular):
    # with singular, item 0 repeats a column of C: a nonpositive pivot amid
    # items that factor
    Gs = []
    for i in range(s):
        C = randn_qmat(r + 3, r, seed + i)
        if singular and i == 0 and r > 1:
            C.data[:, 1] = C.data[:, 0]
        Gs.append((C.adjoint() @ C).data)
    L, ok = _cholesky(np.stack(Gs))
    for i in range(s):
        ref = _cholesky(Gs[i])
        assert ok[i] == (ref is not None)
        if ok[i]:
            assert _same_bits(L[i], ref)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 4), st.integers(1, 10), st.integers(1, 130),
       st.integers(0, 2**31 - 1))
@example(16, 8, 30, 0)
@example(2, 10, 130, 1)
@example(3, 1, 1, 2)
def test_chol_solve_stack_items_bitwise_equal_2d(s, r, p, seed):
    Gs = np.stack([(C.adjoint() @ C).data for C in (
        randn_qmat(r + 3, r, seed + i) for i in range(s))])
    L = np.stack([_cholesky(G) for G in Gs])
    B = _stack((r, p), [seed + 100 + i for i in range(s)])
    Z, solved = _checked_chol_solve(L, Gs, B)
    for i in range(s):
        Zi, ok = _checked_chol_solve(L[i], Gs[i], B[i])
        assert _same_bits(Z[i], Zi) and solved[i] == ok


@pytest.mark.parametrize("bad", [0, 2, 4])
def test_hpd_solve_stack_flags_only_its_indefinite_item(bad):
    # LAPACK's Cholesky rejects the whole stack for its one indefinite item;
    # the items are then factored apart: only that item is flagged, its
    # factor is the identity, and every other item is bitwise as alone
    Gs = np.stack([(C.adjoint() @ C).data
                   for C in (randn_qmat(9, 4, 40 + i) for i in range(5))])
    Gs[bad] = QMatrix.from_real(-np.eye(4)).data
    B = _stack((4, 3), range(50, 55))
    L, ok = _cholesky(Gs)
    Z, solved = hpd_solve(Gs, B)
    assert ok.tolist() == solved.tolist() == [i != bad for i in range(5)]
    assert _same_bits(L[bad], np.eye(8, dtype=complex))
    for i in range(5):
        if i != bad:
            assert _same_bits(L[i], _cholesky(Gs[i]))
            assert _same_bits(Z[i],
                              hpd_solve(QMatrix(Gs[i]), QMatrix(B[i])).data)


def test_hpd_solve_stack_items_bitwise_equal_2d():
    # a Gram matrix whose solve passes; a singular one and an indefinite
    # one, whose pivots fail; and a nearly singular one whose pivots pass
    # but whose triangular solves miss the residual check. An accepted item
    # is bitwise the 2-D solve; a rejected one is where the 2-D solve
    # raises or falls back to CG
    C = randn_qmat(10, 5, 8)
    near = randn_qmat(10, 5, 8)
    near.data[:, 1] = near.data[:, 0] + 1e-5 * randn_qmat(10, 1, 3).data[:, 0]
    Gs = np.stack([(C.adjoint() @ C).data, _G_SINGULAR.data,
                   QMatrix.from_real(-np.eye(5)).data,
                   (near.adjoint() @ near).data])
    B = _stack((5, 7), [30, 31, 32, 33])
    Z, ok = hpd_solve(Gs, B)
    assert Z.shape == B.shape and ok.tolist() == [True, False, False, False]
    assert _same_bits(Z[0], hpd_solve(QMatrix(Gs[0]), QMatrix(B[0])).data)
    assert _cholesky(Gs[1]) is None and _cholesky(Gs[2]) is None
    L = _cholesky(Gs[3])
    assert L is not None and not _checked_chol_solve(L, Gs[3], B[3])[1]


def _gram(r, seed):
    C = randn_qmat(r + 3, r, seed)
    return (C.adjoint() @ C).data


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 4), st.integers(1, 10), st.integers(1, 130),
       st.integers(0, 2**31 - 1))
@example(16, 8, 120, 0)
@example(1, 1, 1, 1)
def test_checked_solve_residual_is_the_quaternion_residual(s, r, p, seed):
    # item `bad` gets the factor of another Gram matrix, which leaves a
    # residual far above rounding: the check flags that item alone, and
    # its residual, taken on the embeddings, is the quaternion
    # ||G Z - B||_F to 1e-12 relative: the flag flips between tolerances
    # 1e-12 above and below the quaternion ratio
    Gs = np.stack([_gram(r, seed + i) for i in range(s)])
    B = _stack((r, p), [seed + 100 + i for i in range(s)])
    L, ok = _cholesky(Gs)
    bad = seed % s
    L[bad] = _cholesky(_gram(r, seed + 1000))
    before = [x.tobytes() for x in (L, Gs, B)]
    Z, solved = _checked_chol_solve(L, Gs, B)
    assert [x.tobytes() for x in (L, Gs, B)] == before
    assert ok.all() and solved.tolist() == [i != bad for i in range(s)]
    G, Zb, Bb = (QMatrix(x[bad]) for x in (Gs, Z, B))
    q = (G @ Zb - Bb).fro_norm() / Bb.fro_norm()
    with pytest.MonkeyPatch.context() as mp:
        for scale, flag in ((1 + 1e-12, True), (1 - 1e-12, False)):
            mp.setattr(factor, "_SOLVE_TOL", q * scale)
            assert _checked_chol_solve(L, Gs, B)[1][bad] == flag


@pytest.mark.parametrize("c", [1e160, 1e300])
@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
def test_hpd_solve_overflowing_gram_is_non_finite(c, wide):
    # A is finite but A^H A (or A A^H), pinv_normal_eq's Gram system before
    # it scaled A, overflows; LAPACK's eigenvalue check used to fail on it
    # with ConvergenceFailure
    A = randn_qmat(30, 20, 1).scale(c)
    A = A.adjoint() if wide else A
    Ah = A.adjoint()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite, match="G has"):
            if wide:
                hpd_solve(A @ Ah, QMatrix.identity(A.rows))
            else:
                hpd_solve(Ah @ A, Ah)


_ORACLES = {"pinv_qsvd": pinv_qsvd, "pinv_normal_eq": pinv_normal_eq,
            "qsvd": lambda A: qsvd(A).S}


@pytest.mark.parametrize("c", [1e-300, 1e-160, 1e160, 1e300])
@pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
@pytest.mark.parametrize("oracle", sorted(_ORACLES))
def test_oracles_at_extreme_scales(oracle, wide, c):
    # unscaled, pinv_qsvd was 1 off at 1e-300, 1e160 and 1e300 and NaN at
    # 1e-160, and pinv_normal_eq 1 off at 1e-300, Indefinite at 1e-160 and
    # NonFinite from 1e160; (cA)^+ = A^+ / c and S(cA) = c S(A)
    A = randn_qmat(30, 20, 1)
    A = A.adjoint() if wide else A
    ref, got = (_ORACLES[oracle](B) for B in (A, A.scale(c)))
    if oracle == "qsvd":
        assert _rel_gap(got / c, ref) <= 1e-12
    else:
        assert _rel_gap(got.data * c, ref.data) <= 1e-12


@pytest.mark.parametrize("top, e", [(np.nextafter(2.0 ** 64, 0), 0),
                                    (2.0 ** 64, 65), (2.0 ** -65, 0),
                                    (np.nextafter(2.0 ** -65, 0), -65)],
                         ids=["below-2^64", "2^64", "2^-65", "below-2^-65"])
def test_oracles_take_an_a_within_the_band_as_it_is(top, e):
    # the band is |e| <= 64, e from frexp of the largest |entry|
    A = QMatrix.from_real(np.array([[top, -top / 3]]))
    B, got = factor._equilibrated(A)
    assert got == e and (B is A) == (e == 0)
    assert np.array_equal(np.ldexp(B.data, e), A.data)


@pytest.mark.parametrize("oracle", ["pinv_qsvd", "pinv_normal_eq"])
def test_oracle_pseudoinverse_out_of_range_is_non_finite(oracle):
    # A = 1e-309, subnormal, scales exactly to [0.5, 1); its inverse, about
    # 1e309, does not fit in a float
    with pytest.raises(NonFinite, match="float range"):
        _ORACLES[oracle](QMatrix.from_real(np.array([[1e-309]])))


def test_qsvd_singular_values_out_of_range_are_non_finite():
    # every entry 1e308 fits; the largest singular value, 2e308, does not
    with pytest.raises(NonFinite, match="float range"):
        qsvd(QMatrix.from_real(np.full((2, 2), 1e308)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("which", ["G", "B"])
def test_hpd_solve_rejects_non_finite(which, bad):
    G, B = _G_GRAM.copy(), randn_qmat(4, 2, 7)
    (G if which == "G" else B).data[1, 1, 0] = bad
    with pytest.raises(NonFinite, match=f"{which} has"):
        hpd_solve(G, B)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at", [(1, 1), (0, 2), (2, 0)],
                         ids=["diagonal", "upper", "lower"])
def test_hpd_solve_stack_flags_only_its_non_finite_item(at, bad):
    # LAPACK's Cholesky reads only the lower triangle; an entry above it
    # still fails the pivot rule, whose threshold is then not finite
    Gs = np.stack([_gram(4, 40 + i) for i in range(5)])
    Gs[2, at[0], at[1], 0] = bad
    B = _stack((4, 3), range(50, 55))
    with np.errstate(invalid="ignore", over="ignore"):
        Z, ok = hpd_solve(Gs, B)
    assert ok.tolist() == [True, True, False, True, True]
    for i in (0, 1, 3, 4):
        assert _same_bits(Z[i],
                          hpd_solve(QMatrix(Gs[i]), QMatrix(B[i])).data)


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
def test_pinv_normal_eq_of_an_empty_matrix(shape):
    # the 0 x 0 Gram matrix has no pivot to fail
    X = pinv_normal_eq(QMatrix(np.zeros(shape + (4,))))
    assert X.shape == shape[::-1]
    Z, ok = hpd_solve(np.zeros((2, 0, 0, 4)), np.zeros((2, 0, 3, 4)))
    assert Z.shape == (2, 0, 3, 4) and ok.tolist() == [True, True]


@pytest.mark.parametrize("stacked", [False, True])
def test_hpd_solve_b_row_count_mismatch(stacked):
    # G is Hermitian positive definite: the fault is B's shape
    G = _G_GRAM.data
    B = randn_qmat(3, 2, 1).data
    args = (G[None], B[None]) if stacked else (QMatrix(G), QMatrix(B))
    with pytest.raises(DimensionMismatch, match="row count"):
        hpd_solve(*args)
