import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quatpinv.errors import (ConvergenceFailure, Indefinite, NotHermitian,
                             RankDeficient)
from quatpinv.factor import (hpd_solve, pinv_from_qr, pinv_normal_eq,
                             pinv_qsvd, qsvd, solve_upper_triangular, thin_qr)
from quatpinv.qmatrix import QMatrix, randn_qmat
from quatpinv.quaternion import Quaternion
from quatpinv.solvers import penrose_residuals


def is_identity(A: QMatrix, tol=1e-12) -> bool:
    return (A - QMatrix.identity(A.rows)).fro_norm() <= tol


def reconstruct(f, m: int, n: int) -> QMatrix:
    Sig = np.zeros((m, n))
    Sig[:len(f.S), :len(f.S)] = np.diag(f.S)
    return f.U @ QMatrix.from_real(Sig) @ f.V.adjoint()


# ---------------------------------------------------------------------------
# thin QR
# ---------------------------------------------------------------------------

def test_thin_qr_column_example():
    Y = QMatrix.from_real(np.array([[2.0], [0.0]]))
    f = thin_qr(Y)
    assert (f.Q - QMatrix.from_real(np.array([[1.0], [0.0]]))).fro_norm() <= 1e-14
    assert f.R[0, 0].is_close(Quaternion(2.0), tol=1e-14)


def test_thin_qr_random():
    Y = randn_qmat(8, 3, 0)
    f = thin_qr(Y)
    assert is_identity(f.Q.adjoint() @ f.Q, tol=1e-13)
    assert (f.Q @ f.R - Y).fro_norm() <= 1e-12 * Y.fro_norm()
    # R upper triangular with real positive diagonal
    for i in range(3):
        d = f.R[i, i]
        assert d.b == d.c == d.d == 0.0 and d.a > 0
        for j in range(i):
            assert f.R[i, j].norm() <= 1e-13 * Y.fro_norm()


def test_thin_qr_rank_deficient():
    Y = randn_qmat(6, 2, 1)
    Y = QMatrix(np.concatenate([Y.data, Y.data[:, :1, :]], axis=1))
    with pytest.raises(RankDeficient):
        thin_qr(Y)


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
    assert (hpd_solve(QMatrix.identity(3), B, ridge=0.0) - B).fro_norm() <= 1e-13
    G = QMatrix.from_real(np.diag([2.0, 3.0]))
    B2 = QMatrix.from_real(np.array([[4.0], [9.0]]))
    X = hpd_solve(G, B2, ridge=0.0)
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
    X = hpd_solve(G, B, ridge=0.0)
    assert (G @ X - B).fro_norm() <= 1e-10 * B.fro_norm()
    with pytest.raises(Indefinite):
        hpd_solve(G, randn_qmat(5, 2, 2), ridge=0.0)


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
    with pytest.raises(ConvergenceFailure):
        qsvd(A)


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
