"""Hamilton algebra of the elementwise kernels ``_qops.qmul``, ``qconj``
and ``qnormsq`` on single quaternions, held as length-4 arrays (a, b, c, d)
for q = a + b*i + c*j + d*k."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quatpinv._qops import qconj, qmul, qnormsq

EPS = 2.220446049250313e-16

ONE = np.array([1.0, 0.0, 0.0, 0.0])
I = np.array([0.0, 1.0, 0.0, 0.0])
J = np.array([0.0, 0.0, 1.0, 0.0])
K = np.array([0.0, 0.0, 0.0, 1.0])

finite = st.floats(min_value=-1e3, max_value=1e3,
                   allow_nan=False, allow_infinity=False)
quats = st.tuples(finite, finite, finite, finite).map(np.array)


def q(a, b, c, d) -> np.ndarray:
    return np.array([a, b, c, d], dtype=np.float64)


def norm(p: np.ndarray) -> float:
    return math.sqrt(qnormsq(p))


def is_close(p: np.ndarray, r: np.ndarray, tol: float = 1e-12) -> bool:
    return norm(p - r) <= tol


def test_hamilton_table():
    assert is_close(qmul(I, J), K)
    assert is_close(qmul(J, K), I)
    assert is_close(qmul(K, I), J)
    assert is_close(qmul(J, I), -K)
    assert is_close(qmul(K, J), -I)
    assert is_close(qmul(I, K), -J)
    assert is_close(qmul(I, I), -ONE)
    assert is_close(qmul(J, J), -ONE)
    assert is_close(qmul(K, K), -ONE)


def test_product_hand_example():
    p = q(1, 2, 3, 4)
    r = q(5, 6, 7, 8)
    # expanded by the Hamilton table by hand
    assert is_close(qmul(p, r), q(-60, 12, 30, 24))
    assert is_close(qmul(r, p), q(-60, 20, 14, 32))
    assert not is_close(qmul(p, r), qmul(r, p))


def test_conj_antihomomorphism():
    p = q(1, -2, 0.5, 3)
    r = q(-1, 4, 2, -0.5)
    assert is_close(qconj(qmul(p, r)), qmul(qconj(r), qconj(p)))


def test_real_scalar_mul():
    # a real quaternion commutes with every quaternion
    p = q(1, 2, 3, 4)
    two = 2.0 * ONE
    assert is_close(qmul(two, p), q(2, 4, 6, 8))
    assert is_close(qmul(p, two), q(2, 4, 6, 8))


def test_norm_example():
    assert norm(q(1, 1, 1, 1)) == pytest.approx(2.0)
    assert norm(q(0, 0, 0, 0)) == 0.0


@given(quats, quats, quats)
def test_associativity(p, r, s):
    lhs = qmul(qmul(p, r), s)
    rhs = qmul(p, qmul(r, s))
    scale = max(norm(p) * norm(r) * norm(s), 1.0)
    assert norm(lhs - rhs) <= 16 * EPS * scale


@given(quats, quats)
def test_norm_multiplicative(p, r):
    assert abs(norm(qmul(p, r)) - norm(p) * norm(r)) <= \
        8 * EPS * max(norm(p) * norm(r), 1.0)


@given(quats, quats)
def test_real_part_symmetry(p, r):
    # Re(p conj(r)) is a real inner product, hence symmetric
    lhs = qmul(p, qconj(r))[0]
    rhs = qmul(r, qconj(p))[0]
    assert abs(lhs - rhs) <= 8 * EPS * max(norm(p) * norm(r), 1.0)
