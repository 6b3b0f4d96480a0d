import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quatpinv._qops import qconj, qmatmul, qmul
from quatpinv.quaternion import Quaternion

# Small-integer entries keep every partial sum exact in float64, so any
# summation order must reproduce the scalar loop bit for bit.


def loop_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    m, k, _ = x.shape
    n = y.shape[1]
    out = np.zeros((m, n, 4))
    for i in range(m):
        for j in range(n):
            acc = Quaternion()
            for p in range(k):
                acc = acc + Quaternion(*x[i, p]) * Quaternion(*y[p, j])
            out[i, j] = (acc.a, acc.b, acc.c, acc.d)
    return out


def int_qarray(shape, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-8, 9, size=shape + (4,)).astype(np.float64)


dims = st.integers(1, 9)


@settings(deadline=None)
@given(dims, dims, dims, st.integers(0, 2**31 - 1))
# a 1 x k row times a wide matrix expands the left operand, a tall matrix
# times a column the right one
@example(1, 9, 9, 0)
@example(9, 9, 1, 0)
def test_qmatmul_exact_on_integers(m, k, n, seed):
    x = int_qarray((m, k), seed)
    y = int_qarray((k, n), seed + 1)
    assert np.array_equal(qmatmul(x, y), loop_product(x, y))


def _views(j: int):
    """The strided operands the factor routines pass, cut at step j."""
    W = int_qarray((9, 7), 1)
    L = int_qarray((9, 9), 2)
    Rd = int_qarray((7, 7), 3)
    Z = int_qarray((7, 5), 4)
    return [
        # thin_qr: v^H W[k:, k:] and v (v^H W[k:, k:])
        (qconj(W[j:, j])[None], W[j:, j:]),
        (W[j:, j][:, None], W[j:j + 1, j:]),
        # _cholesky: L[j+1:, :j] conj(L[j, :j])^T
        (L[j + 1:, :j], qconj(L[j, :j])[:, None]),
        # solve_upper_triangular: Rd[j, j+1:] Z[j+1:]
        (Rd[j:j + 1, j + 1:], Z[j + 1:]),
        # an adjoint left as a transposed view, on either side
        (W[j:, j:].transpose(1, 0, 2), W[j:, :]),
        (W[:, j:], L[:5, j + 2:].transpose(1, 0, 2)),
    ]


@pytest.mark.parametrize("j", [1, 3, 5])
def test_qmatmul_exact_on_strided_views(j):
    for x, y in _views(j):
        got = qmatmul(x, y)
        assert got.shape == (x.shape[0], y.shape[1], 4)
        assert np.array_equal(got, loop_product(x, y))


@settings(deadline=None)
@given(dims, dims, dims, st.integers(0, 2**31 - 1))
@example(1, 9, 9, 0)
@example(9, 9, 1, 0)
def test_qmatmul_sums_in_hamilton_order(m, k, n, seed):
    # x is zero outside one column, so each real k-term product is one
    # rounded multiplication; entries spread over 16 decades make the sum
    # of the four terms of a component depend on their order, which must
    # be that of the Hamilton formula in qmul
    rng = np.random.default_rng(seed)
    p = int(rng.integers(k))
    x = np.zeros((m, k, 4))
    x[:, p] = rng.standard_normal((m, 4)) * 10.0 ** rng.integers(-8, 9, (m, 4))
    y = rng.standard_normal((k, n, 4)) * 10.0 ** rng.integers(-8, 9, (k, n, 4))
    expect = qmul(x[:, p][:, None], y[p][None])
    assert np.array_equal(qmatmul(x, y), expect)
