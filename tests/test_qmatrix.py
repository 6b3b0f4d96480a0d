import numpy as np
import pytest

from quatpinv._qops import qmul, qnormsq
from quatpinv.errors import (ConvergenceFailure, DimensionMismatch, NonFinite,
                             NonPowerOfTwo)
from quatpinv.factor import qsvd
from quatpinv.qmatrix import (QMatrix, _gram_ritz, complex_adjoint,
                              op_norm_est, randn_qmat, require_pow2)
from quatpinv.rng import QuatRNG


def embed(A: QMatrix) -> np.ndarray:
    return A.to_complex_adjoint()


def qmat(entries) -> QMatrix:
    """A matrix from a nested list of (a, b, c, d) entries."""
    return QMatrix(np.array(entries, dtype=np.float64))


def test_matmul_against_embedding_oracle():
    A = randn_qmat(7, 5, 0)
    B = randn_qmat(5, 6, 1)
    C = A @ B
    assert np.allclose(embed(C), embed(A) @ embed(B), atol=1e-12)


def test_matmul_scalar_example():
    A = qmat([[(0, 1, 0, 0)]])   # i
    B = qmat([[(0, 0, 1, 0)]])   # j
    assert np.array_equal((A @ B).data[0, 0], (0, 0, 0, 1))   # ij = k
    assert np.array_equal((B @ A).data[0, 0], (0, 0, 0, -1))


def test_matmul_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        randn_qmat(3, 4, 0) @ randn_qmat(3, 4, 0)


def test_adjoint_reverses_products():
    A = randn_qmat(4, 3, 2)
    B = randn_qmat(3, 5, 3)
    lhs = (A @ B).adjoint()
    rhs = B.adjoint() @ A.adjoint()
    assert (lhs - rhs).fro_norm() <= 1e-12


def test_adjoint_isometry_and_involution():
    A = randn_qmat(6, 4, 4)
    assert A.adjoint().fro_norm() == pytest.approx(A.fro_norm())
    assert (A.adjoint().adjoint() - A).fro_norm() == 0.0


def test_fro_norm_example():
    A = qmat([[(1, 1, 1, 1)]])
    assert A.fro_norm() == pytest.approx(2.0)


def test_submultiplicativity():
    rng = np.random.default_rng(0)
    for t in range(200):
        m, k, n = rng.integers(1, 6, size=3)
        A = randn_qmat(int(m), int(k), 100 + t)
        B = randn_qmat(int(k), int(n), 300 + t)
        assert (A @ B).fro_norm() <= A.fro_norm() * B.fro_norm() * (1 + 1e-12)


def test_op_norm_est_diagonal():
    A = QMatrix.from_real(np.diag([3.0, 1.0]))
    assert op_norm_est(A) == pytest.approx(3.0, rel=1e-6)
    assert op_norm_est(QMatrix.zeros(3, 2)) == 0.0


def test_op_norm_est_unitary_invariance():
    # diag(i, j) is unitary; sandwiching preserves the spectral norm
    A = QMatrix.from_real(np.diag([2.0, 0.5]))
    U = qmat([
        [(0, 1, 0, 0), (0, 0, 0, 0)],
        [(0, 0, 0, 0), (0, 0, 1, 0)],
    ])
    assert op_norm_est(U @ A @ U.adjoint()) == pytest.approx(2.0, rel=1e-6)


@pytest.mark.parametrize("m, n", [(12, 5), (5, 12), (5, 5), (60, 50),
                                  (50, 60), (50, 50)])
@pytest.mark.parametrize("seed", [0, 1])
def test_gram_min_ritz_against_qsvd(m, n, seed):
    A = randn_qmat(m, n, seed)
    smin2 = qsvd(A).S[-1] ** 2
    lam = _gram_ritz(A)[0]
    assert lam >= smin2 * (1 - 1e-10)
    if 4 * min(m, n) <= 20:
        # 20 steps would span the space; the run stops at its breakdown
        assert lam == pytest.approx(smin2, rel=1e-8)


@pytest.mark.parametrize("m, n", [(40, 30), (30, 40)])
def test_gram_min_ritz_skips_zero_on_rank_deficient(m, n):
    A = randn_qmat(m, 3, 1) @ randn_qmat(n, 3, 101).adjoint()
    assert _gram_ritz(A)[0] == pytest.approx(qsvd(A).S[2] ** 2, rel=1e-8)


def test_gram_min_ritz_1x1_and_zero():
    A = qmat([[(2.0, -0.5, 0.25, 1.5)]])
    assert _gram_ritz(A)[0] == pytest.approx(4.0 + 0.25 + 0.0625 + 2.25,
                                              rel=1e-15)
    assert _gram_ritz(QMatrix.zeros(3, 2)) == (0.0, 0.0, 0.0)


# The Lanczos probe as it was when every product copied A's planes again:
# each product through QMatrix @, as the run wrote them before it laid the
# planes out once per run.

def _min_ritz_ref(A):
    if A.rows < A.cols:
        A = A.adjoint()
    n = A.cols
    Ah = A.adjoint()
    V = np.empty((20, 4 * n))
    v = QuatRNG(0).normals((n, 1, 4)).ravel()
    v /= np.sqrt(v @ v)
    diag, off = [], []
    for j in range(20):
        V[j] = v
        w = (Ah @ (A @ QMatrix(v.reshape(n, 1, 4)))).data.ravel()
        diag.append(float(v @ w))
        for _ in range(2):
            w -= V[:j + 1].T @ (V[:j + 1] @ w)
        beta = np.sqrt(w @ w)
        if j + 1 == 20 or beta <= 1e-12 * max(map(abs, diag)):
            break
        off.append(beta)
        v = w / beta
    ritz = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1)
                              + np.diag(off, -1))
    ritz = ritz[ritz > 1e-12 * ritz[-1]]
    return float(ritz[0]) if ritz.size else 0.0


# the benchmark's shapes (dense, sketch, the Lorenz solve), k = 1 and 1 x 1
@pytest.mark.parametrize("m, n", [(220, 200), (200, 220), (120, 100),
                                  (30, 20), (20, 30), (70, 50), (50, 50),
                                  (9, 1), (1, 9), (1, 1)])
def test_probes_bitwise_equal_one_product_at_a_time(m, n):
    A = randn_qmat(m, n, m + 2 * n)
    low = _min_ritz_ref(A).hex()
    assert _gram_ritz(A)[0].hex() == low
    assert _gram_ritz(A, A.adjoint())[0].hex() == low


@pytest.mark.parametrize("m, n", [(12, 5), (5, 12), (50, 50), (1, 1)])
def test_gram_ritz_top_and_bound_against_qsvd(m, n):
    A = randn_qmat(m, n, 3)
    smax2 = qsvd(A).S[0] ** 2
    low, top, bound = _gram_ritz(A)
    assert low <= top <= smax2 * (1 + 1e-12)
    assert top == pytest.approx(smax2, rel=1e-4)
    assert bound >= smax2 * (1 - 1e-12)


def test_gram_ritz_eigensolver_failure_is_typed(monkeypatch):
    def fail(T):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceFailure):
        _gram_ritz(randn_qmat(6, 4, 1))


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_gram_ritz_overflow_is_non_finite(scale):
    # A^H A overflows; numpy's eigvalsh once raised its own LinAlgError
    with np.errstate(all="ignore"), pytest.raises(NonFinite):
        _gram_ritz(randn_qmat(30, 20, 1).scale(scale))


def test_randn_statistics_and_determinism():
    A = randn_qmat(60, 60, 5)
    mean_sq = float(qnormsq(A.data).mean())   # |q|^2 sums four unit variances
    assert abs(mean_sq - 4.0) < 0.2
    B = randn_qmat(60, 60, 5)
    assert (A - B).fro_norm() == 0.0
    C = randn_qmat(60, 60, 6)
    assert (A - C).fro_norm() > 1.0


def test_complex_adjoint_unit_example():
    Aj = qmat([[(0, 0, 1, 0)]])
    assert np.allclose(embed(Aj), np.array([[0, 1], [-1, 0]], dtype=complex))


def test_complex_adjoint_roundtrip_and_norm():
    A = randn_qmat(4, 5, 9)
    C = embed(A)
    assert np.linalg.norm(C) == pytest.approx(np.sqrt(2) * A.fro_norm())
    # the first block row of each entry's block is (a + bi, c + di)
    z1, z2 = C[0::2, 0::2], C[0::2, 1::2]
    B = QMatrix(np.stack([z1.real, z1.imag, z2.real, z2.imag], axis=-1))
    assert (A - B).fro_norm() <= 1e-14


def _embed_blocks(d: np.ndarray) -> np.ndarray:
    """The embedding written entry by entry from its 2 x 2 blocks."""
    m, n = d.shape[-3:-1]
    out = np.zeros(d.shape[:-3] + (2 * m, 2 * n), dtype=complex)
    a, b, c, e = (d[..., i] for i in range(4))
    out[..., 0::2, 0::2], out[..., 0::2, 1::2] = a + 1j * b, c + 1j * e
    out[..., 1::2, 0::2], out[..., 1::2, 1::2] = -c + 1j * e, a - 1j * b
    return out


def test_complex_adjoint_stacks_layouts_and_even_columns():
    # a stack embeds item by item; a component axis that is not contiguous
    # (a QMatrix made from a moved axis) embeds as its contiguous copy
    d = randn_qmat(5, 3, 2).data
    moved = np.moveaxis(np.ascontiguousarray(np.moveaxis(d, -1, 0)), 0, -1)
    for x in (d, moved, d.transpose(1, 0, 2), np.stack([d, 2 * d, -d])):
        ref = _embed_blocks(x)
        assert np.array_equal(complex_adjoint(x), ref)
        assert np.array_equal(complex_adjoint(x, even=True), ref[..., 0::2])
    assert np.array_equal(QMatrix(moved).to_complex_adjoint(), embed(QMatrix(d)))


def test_hadamard_and_mask():
    # the Hadamard product is the elementwise Hamilton product
    A = randn_qmat(3, 4, 12)
    ones = QMatrix.from_real(np.ones((3, 4)))
    assert (QMatrix(qmul(A.data, ones.data)) - A).fro_norm() == 0.0
    mask = np.zeros((3, 4))
    mask[0, 0] = 1.0
    M = A.mask(mask)
    assert np.array_equal(M.data[0, 0], A.data[0, 0])
    assert M.fro_norm() == pytest.approx(np.linalg.norm(A.data[0, 0]))


def test_take_rows_cols():
    A = randn_qmat(4, 5, 13)
    S = A.take_rows([2, 0]).take_cols([1, 1, 3])
    assert S.shape == (2, 3)
    assert np.array_equal(S.data[0, 0], A.data[2, 1])
    assert np.array_equal(S.data[1, 2], A.data[0, 3])


def test_pow2_helpers():
    require_pow2(8)
    with pytest.raises(NonPowerOfTwo):
        require_pow2(6)


def test_complex_components_are_rejected():
    # np.asarray(..., dtype=float64) once dropped the imaginary parts with
    # only numpy's ComplexWarning, leaving [1, 1, 1, 1] here
    with pytest.raises(TypeError, match="complex128"):
        QMatrix(np.ones((2, 2, 4)) * (1 + 1j))
    with pytest.raises(TypeError, match="complex64"):
        QMatrix(np.ones((2, 2, 4), dtype=np.complex64))


def test_constructor_makes_every_real_dtype_float64():
    for dtype in (np.float32, np.int64, np.float16, np.bool_):
        ones = np.ones((2, 2, 4), dtype=dtype)
        for A in (QMatrix(ones), QMatrix.from_real(ones[..., 0])):
            assert A.data.dtype == np.float64
            assert np.array_equal(A.data[..., 0], np.ones((2, 2)))
    d64 = np.ones((2, 2, 4))
    assert QMatrix(d64).data is d64
    # from_real once dropped the imaginary parts with only a ComplexWarning
    with pytest.raises(TypeError, match="complex128"):
        QMatrix.from_real(np.ones((2, 2)) * 1j)


def test_of_keeps_float32_through_every_operation():
    d32 = np.arange(16, dtype=np.float32).reshape(2, 2, 4)
    A = QMatrix._of(d32)
    assert A.data is d32
    for B in (A @ A, A + A, A - A, A.scale(0.5), A.adjoint(), A.copy()):
        assert B.data.dtype == np.float32
    # re-wrapped by the constructor, the same array is float64
    assert QMatrix(d32).data.dtype == np.float64
