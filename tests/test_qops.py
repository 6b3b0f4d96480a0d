import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from quatpinv import _qops, factor, solvers
from quatpinv._qops import qconj, qmatmul, qmul
from quatpinv.apps import completion
from quatpinv.qmatrix import randn_qmat
from quatpinv.rng import QuatRNG

# Small-integer entries keep every partial sum exact in float64, so any
# summation order must reproduce the scalar loop bit for bit.


def hamilton(p, q) -> tuple:
    """The scalar Hamilton product p*q of two (a, b, c, d) quaternions."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e)


def loop_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    m, k, _ = x.shape
    n = y.shape[1]
    out = np.zeros((m, n, 4))
    for i in range(m):
        for j in range(n):
            acc = (0.0, 0.0, 0.0, 0.0)
            for p in range(k):
                acc = tuple(s + t for s, t in
                            zip(acc, hamilton(x[i, p], y[p, j])))
            out[i, j] = acc
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


def _views(j: int, make=int_qarray):
    """The strided operands the factor routines pass, cut at step j;
    make(shape, seed) fills the matrices they are cut from."""
    W = make((9, 7), 1)
    L = make((9, 9), 2)
    Rd = make((7, 7), 3)
    Z = make((7, 5), 4)
    return [
        # a Householder step: v^H W[k:, k:] and v (v^H W[k:, k:])
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


# ---------------------------------------------------------------------------
# bitwise parity with the one-call-per-GEMM kernel
# ---------------------------------------------------------------------------

# the parent's sign table, kept here so that the reference stands alone
_SIGN_REF = qmul(np.eye(4)[:, None, :], np.eye(4)[None, :, :])  # [s, u, t]


def _qmatmul_parent(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The kernel before the small-product paths: one numpy call per GEMM,
    the right slabs built and multiplied one at a time."""
    m, k, _ = x.shape
    n = y.shape[1]
    planes = np.ascontiguousarray(x.transpose(2, 0, 1))
    yq = y.reshape(k * n, 4)
    Z = planes[0] @ yq.reshape(k, 4 * n)
    for s in range(1, 4):
        R = (yq @ _SIGN_REF[s]).reshape(k, 4 * n)
        Z += planes[s] @ R
    return Z.reshape(m, n, 4)


def eight_product(x, y):
    """x y in the 8-product form (Howell & Lafon, 1975), out of place, in
    the dtype of the product: float32 for two float32 operands. Its GEMMs
    take C-ordered operands, as the kernel's do."""
    dtype = np.result_type(x, y)
    a, b, c, d = np.moveaxis(np.ascontiguousarray(x, dtype), -1, 0)
    e, f, g, h = np.moveaxis(np.ascontiguousarray(y, dtype), -1, 0)
    left = [d - c, a + b, a - b, c + d, d - b, d + b, a + c, a - c]
    right = [g - h, e + f, g + h, e - f, f - g, f + g, e - h, e + h]
    m1, m2, m3, m4, m5, m6, m7, m8 = [p @ q for p, q in zip(left, right)]
    t = m6 + m7 + m8
    u = (m5 + t) / 2
    return np.stack([m1 + u - m6, m2 + u - t, m3 + u - m8, m4 + u - m7], -1)


def _eight_form(m, k, n):
    """Whether qmatmul runs an (m, k) @ (k, n) product in the 8-product
    form: a slab-path product with each dimension at least _EIGHT_MIN."""
    return not _batched(m, k, n) and min(m, k, n) >= _qops._EIGHT_MIN


def _qmatmul_reference(x, y):
    """qmatmul's reference, dispatched as qmatmul dispatches: the
    8-product reference where qmatmul runs that form, else the parent
    kernel."""
    m, k, _ = x.shape
    n = y.shape[1]
    return (eight_product if _eight_form(m, k, n) else _qmatmul_parent)(x, y)


def _wide_range_qarray(shape, rng) -> np.ndarray:
    """Gaussian entries scaled by 10^U(-8, 8), about one in eight an exact
    0.0 and one in eight an exact -0.0."""
    a = rng.standard_normal(shape + (4,)) * 10.0 ** rng.uniform(-8, 8, shape + (4,))
    pick = rng.random(a.shape)
    a[pick < 0.125] = 0.0
    a[pick > 0.875] = -0.0
    return a


def _batched(m, k, n):
    return (m + k) * n <= _qops._BATCH_MAX


dims40 = st.integers(1, 40)


@settings(deadline=None, max_examples=300)
@given(dims40, dims40, dims40, st.integers(0, 2**31 - 1))
# a small left operand, m = 1 and m > 1
@example(1, 20, 8, 0)
@example(3, 40, 40, 0)
# both sides of the batch rule: (m + k) n = 2048 and 2052,
# the next value reachable with m, k, n <= 40
@example(24, 40, 32, 0)
@example(1, 1, 1, 0)
@example(30, 1, 8, 0)
@example(9, 9, 1, 0)
@example(40, 40, 40, 0)
@example(27, 27, 38, 0)
def test_qmatmul_bitwise_equals_parent_kernel(m, k, n, seed):
    rng = np.random.default_rng(seed)
    x = _wide_range_qarray((m, k), rng)
    y = _wide_range_qarray((k, n), rng)
    assert qmatmul(x, y).tobytes() == _qmatmul_parent(x, y).tobytes()


def test_parity_examples_cover_every_path():
    # the explicit examples above reach both paths: the small left operands
    # take the batched right side, and the batch rule's boundary is met
    # exactly and just missed
    assert _batched(1, 20, 8) and _batched(3, 40, 40)
    assert (24 + 40) * 32 == _qops._BATCH_MAX
    assert (27 + 27) * 38 == _qops._BATCH_MAX + 4
    assert _batched(24, 40, 32) and not _batched(27, 27, 38)
    assert not _batched(40, 40, 40)


@pytest.mark.parametrize("m,k,n", [(1, 20, 8), (30, 1, 8), (9, 9, 1),
                                   (24, 40, 32), (40, 40, 40), (120, 1, 60)])
@pytest.mark.parametrize("zero_side", ["x", "y"])
def test_qmatmul_signed_zeros_match_parent(m, k, n, zero_side):
    # one operand all -0.0: every term is a signed zero, and the result's
    # zero signs must be the parent kernel's (its GEMMs start at +0.0)
    rng = np.random.default_rng(m * k * n)
    x = rng.standard_normal((m, k, 4))
    y = rng.standard_normal((k, n, 4))
    if zero_side == "x":
        x[:] = -0.0
    else:
        y[:] = -0.0
    assert qmatmul(x, y).tobytes() == _qmatmul_parent(x, y).tobytes()


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_qmatmul_bitwise_equals_parent_on_strided_views(j, seed):
    def make(shape, i):
        return _wide_range_qarray(shape, np.random.default_rng([seed, i]))
    for x, y in _views(j, make):
        assert qmatmul(x, y).tobytes() == _qmatmul_parent(x, y).tobytes()


# ---------------------------------------------------------------------------
# stacks of products: each item bitwise its 2-D product
# ---------------------------------------------------------------------------

dims130 = st.integers(1, 130)


def _stack_operands(s, m, k, n, mode, seed):
    """s pairs of (m, k) and (k, n) operands; mode "x" or "y" makes that
    operand one 2-D matrix shared by every item."""
    rng = np.random.default_rng(seed)
    x = _wide_range_qarray((s, m, k), rng)
    y = _wide_range_qarray((s, k, n), rng)
    return (x[0] if mode == "x" else x), (y[0] if mode == "y" else y)


def _item(a, i):
    return a[i] if a.ndim == 4 else a


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 4), dims130, dims130, dims130,
       st.sampled_from(["both", "x", "y"]), st.integers(0, 2**31 - 1))
# the batched right side with a small left operand (m = 1 and m > 1), with
# k > 1 and with k = 1, and the slab path, each with both operands stacked
# and with one shared
@example(3, 1, 20, 8, "both", 0)
@example(3, 3, 40, 40, "x", 0)
@example(16, 1, 7, 70, "both", 0)
@example(3, 30, 8, 8, "y", 0)
@example(4, 30, 1, 8, "both", 0)
@example(4, 30, 1, 8, "x", 0)
@example(4, 30, 1, 8, "y", 0)
@example(2, 130, 1, 60, "both", 0)
@example(2, 40, 40, 40, "x", 0)
def test_qmatmul_stack_items_bitwise_equal_2d(s, m, k, n, mode, seed):
    x, y = _stack_operands(s, m, k, n, mode, seed)
    got = _qops.qmatmul_stack(x, y)
    assert got.shape == (s, m, n, 4)
    for i in range(s):
        assert got[i].tobytes() == qmatmul(_item(x, i), _item(y, i)).tobytes()


def test_qmatmul_stack_examples_cover_every_path():
    assert _batched(1, 20, 8) and _batched(3, 40, 40) and _batched(1, 7, 70)
    assert _batched(30, 8, 8) and _batched(30, 1, 8)
    assert not _batched(130, 1, 60) and not _batched(40, 40, 40)


# stacks longer than one batched call takes (s (m + k) n > _STACK_MAX): the
# sketch stream's Y = A Omega of a 120 x 100 input, both operands stacked,
# y shared, and k = 1
@pytest.mark.parametrize("s, m, k, n, mode", [(8, 120, 100, 8, "x"),
                                              (9, 40, 24, 32, "both"),
                                              (9, 40, 24, 32, "y"),
                                              (40, 30, 1, 8, "both")])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_qmatmul_stack_in_several_calls_bitwise_equal_2d(s, m, k, n, mode,
                                                         dtype):
    assert _batched(m, k, n)
    assert s * (m + k) * n > _qops._STACK_MAX
    x, y = (a.astype(dtype) for a in _stack_operands(s, m, k, n, mode, 8))
    got = _qops.qmatmul_stack(x, y)
    assert got.shape == (s, m, n, 4) and got.dtype == dtype
    for i in range(s):
        assert got[i].tobytes() == qmatmul(_item(x, i), _item(y, i)).tobytes()


def test_qmatmul_stack_of_strided_views_bitwise_equal_2d():
    # the operands of the stacked micro-solves are strided views of stacks
    rng = np.random.default_rng(3)
    W = _wide_range_qarray((5, 30, 8), rng)
    v = _wide_range_qarray((5, 28), rng)
    for x, y in [(qconj(v)[:, None], W[:, 2:, 2:]),
                 (W[:, 3:4, 4:], W[:, 4:8, 1:]),
                 (W[:, 5:, :3], qconj(W[:, 4, :3])[:, :, None])]:
        got = _qops.qmatmul_stack(x, y)
        for i in range(len(x)):
            assert got[i].tobytes() == qmatmul(x[i], y[i]).tobytes()


# slab-path products with a short left operand, 2-D and stacked: each GEMM
# takes the rows of x's planes as they are, so every result is bitwise the
# reference's
@pytest.mark.parametrize("m, k, n", [(10, 300, 300), (9, 300, 300),
                                     (14, 64, 300)])
def test_short_left_operands_bitwise_equal_parent_kernel(m, k, n):
    assert not _batched(m, k, n) and not _eight_form(m, k, n)
    x, y = _stack_operands(2, m, k, n, "both", m + k + n)
    got = _qops.qmatmul_stack(x, y)
    for i in range(2):
        want = _qmatmul_parent(x[i], y[i]).tobytes()
        assert qmatmul(x[i], y[i]).tobytes() == want
        assert got[i].tobytes() == want


# ---------------------------------------------------------------------------
# products by one left factor, its planes laid out once
# ---------------------------------------------------------------------------

# (m, k) of the left factor: the probes' matrices and adjoints in the dense,
# sketch and apps workloads, k = 1, and m + k > _BATCH_MAX, where a matvec
# takes the slab path
@pytest.mark.parametrize("m, k", [(220, 200), (200, 220), (120, 100),
                                  (100, 120), (30, 20), (20, 30), (70, 50),
                                  (50, 70), (50, 50), (60, 1), (1, 1),
                                  (1, 20), (2000, 60), (60, 2000)])
def test_qmatmul_by_bitwise_equals_qmatmul(m, k):
    rng = np.random.default_rng(m * 4096 + k)
    x = _wide_range_qarray((m, k), rng)
    kept = x.tobytes()
    product = _qops.qmatmul_by(x)
    for n in (1, 1, 8):
        y = _wide_range_qarray((k, n), rng)
        got = product(y)
        assert got.tobytes() == qmatmul(x, y).tobytes()
        assert not np.shares_memory(got, x)
    assert x.tobytes() == kept


def test_qmatmul_by_shapes_cover_every_path():
    assert _batched(220, 200, 1) and _batched(60, 1, 1)
    assert _batched(1, 20, 8)
    assert not _batched(2000, 60, 1) and not _batched(60, 2000, 1)


# ---------------------------------------------------------------------------
# the batched right side on slabs built ahead: the kernel of qmatmul,
# qmatmul_by, qmatmul_right and the sketch stream
# ---------------------------------------------------------------------------

# batched right-side shapes: the sketch steps' (20 x 30 by 30 x 8, 20 x 8 by
# 8 x 30, 100 x 120 by 120 x 8) and test-sketch products (20 x 30 by
# 30 x 5), k = 1, n = 1, and (m + k) n = 2048
_PREPARED_SHAPES = [(20, 30, 8), (20, 8, 30), (100, 120, 8), (20, 30, 5),
                    (30, 1, 8), (60, 1, 1), (24, 40, 32)]


def test_prepared_shapes_take_the_batched_right_side():
    for m, k, n in _PREPARED_SHAPES:
        assert _batched(m, k, n)
        assert _qops._batched_right(m, k, n)
    assert not _qops._batched_right(25, 40, 32)  # the slab path


@pytest.mark.parametrize("m, k, n", _PREPARED_SHAPES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_prepared_slabs_bitwise_equal_qmatmul(m, k, n, dtype):
    # 2-D slabs, one item of a stack's slabs and one item of the stream's
    # layout (the stack seen as one-column factors); entries include 0.0
    # and -0.0
    rng = np.random.default_rng(m * 4096 + k * 64 + n)
    x = _wide_range_qarray((m, k), rng).astype(dtype)
    ys = _wide_range_qarray((3, k, n), rng).astype(dtype)
    kept = x.tobytes(), ys.tobytes()
    planes = _qops._planes(x)
    stacked = _qops._slabs(ys)
    # the stream's layout: slab 0 the entries as they are, -0.0 kept
    streamed = np.empty((4, 3 * k * n, 4), dtype)
    streamed[0] = ys.reshape(-1, 4)
    _qops._fill_slabs(streamed)
    assert (streamed[1:].tobytes()
            == _qops._slabs(ys).reshape(4, -1, 4)[1:].tobytes())
    streamed = streamed.reshape(4, 3, k, 4 * n)
    for i, y in enumerate(ys):
        want = qmatmul(x, y)
        assert want.dtype == dtype
        for S in (_qops._slabs(y), stacked[:, i], streamed[:, i]):
            got = _qops._right_batched(planes, S)
            assert got.dtype == dtype
            assert got.tobytes() == want.tobytes()
    assert (x.tobytes(), ys.tobytes()) == kept


def test_prepared_slabs_of_strided_views_bitwise_equal_qmatmul():
    rng = np.random.default_rng(14)
    W = _wide_range_qarray((60, 80), rng)
    for x, y in [(W[:20, :60:2], W[30:60, 40:48]),
                 (W[:30, 10:30].transpose(1, 0, 2), W[:30, ::10]),
                 (W[40:, 7:8], W[:1, 3::9])]:
        assert not (x.flags.c_contiguous and y.flags.c_contiguous)
        got = _qops._right_batched(_qops._planes(x), _qops._slabs(y))
        assert got.tobytes() == qmatmul(x, y).tobytes()


@pytest.mark.parametrize("zero_side", ["x", "y"])
@pytest.mark.parametrize("k", [1, 30])
def test_prepared_slabs_signed_zeros_match_qmatmul(zero_side, k):
    # a -0.0 operand gives 0.0 throughout, as qmatmul's product does
    rng = np.random.default_rng(15)
    x, y = rng.standard_normal((20, k, 4)), rng.standard_normal((k, 8, 4))
    (x if zero_side == "x" else y)[:] = -0.0
    got = _qops._right_batched(_qops._planes(x), _qops._slabs(y))
    assert got.tobytes() == qmatmul(x, y).tobytes()
    assert got.tobytes() == _qmatmul_parent(x, y).tobytes()


@pytest.mark.parametrize("dx, dy", [(np.float64, np.float32),
                                    (np.float32, np.float64)])
def test_prepared_slabs_mixed_dtypes_bitwise_equal_qmatmul(dx, dy):
    # slabs in y's dtype serve planes of the other dtype bit for bit
    rng = np.random.default_rng(16)
    x = _wide_range_qarray((20, 30), rng).astype(dx)
    y = _wide_range_qarray((30, 8), rng).astype(dy)
    S = _qops._slabs(y)
    assert S.dtype == dy
    got = _qops._right_batched(_qops._planes(x), S)
    assert got.dtype == np.float64
    assert got.tobytes() == qmatmul(x, y).tobytes()
    assert got.tobytes() == qmatmul(x.astype(np.float64),
                                    y.astype(np.float64)).tobytes()


@pytest.mark.parametrize("m, k, n", _PREPARED_SHAPES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_qmatmul_right_batched_bitwise_equals_qmatmul(m, k, n, dtype):
    rng = np.random.default_rng(m * 4096 + k * 64 + n + 1)
    y = _wide_range_qarray((k, n), rng).astype(dtype)
    kept = y.tobytes()
    product = _qops.qmatmul_right(y)
    for _ in range(2):
        x = _wide_range_qarray((m, k), rng).astype(dtype)
        got = product(x)
        assert not np.shares_memory(got, y)
        assert got.tobytes() == qmatmul(x, y).tobytes()
    assert y.tobytes() == kept


def test_qmatmul_right_builds_its_slabs_once(monkeypatch):
    built = []
    slabs = _qops._slabs
    monkeypatch.setattr(_qops, "_slabs",
                        lambda y: built.append(y.shape) or slabs(y))
    rng = np.random.default_rng(17)
    product = _qops.qmatmul_right(_wide_range_qarray((30, 8), rng))
    for _ in range(3):
        product(_wide_range_qarray((20, 30), rng))
    assert built == [(30, 8, 4)]


# ---------------------------------------------------------------------------
# the 8-product form: large slab-path products, and products by one right
# factor
# ---------------------------------------------------------------------------

_T8 = _qops._EIGHT_MIN
# slab-path shapes in the 8-product form: at the threshold, at the earlier
# threshold of 128, the dense workload's products (220 x 200 and 200 x 220
# operands), 200 x 200 and two of the sketch workload's hybrid products
# (120 x 100 operands)
_EIGHT_SHAPES = [(_T8, _T8, _T8), (_T8, _T8 + 9, _T8 + 3), (128, 128, 128),
                 (128, 137, 131), (200, 220, 200), (200, 200, 220),
                 (220, 200, 220), (220, 220, 200), (220, 200, 200),
                 (200, 200, 200), (100, 120, 100), (120, 120, 100)]
# slab-path shapes one short of the threshold in each dimension, which stay
# in the Hamilton form
_HAMILTON_SHAPES = [(_T8 - 1, _T8, _T8), (_T8, _T8 - 1, _T8),
                    (_T8, _T8, _T8 - 1)]


def test_eight_product_reference_is_the_quaternion_product():
    x, y = int_qarray((5, 6), 1), int_qarray((6, 7), 2)
    assert np.array_equal(eight_product(x, y), loop_product(x, y))


def test_eight_form_shapes_take_the_intended_path(monkeypatch):
    ran = []
    eight, slab = _qops._eight_product, _qops._slab_product
    monkeypatch.setattr(_qops, "_eight_product",
                        lambda x, y, R=None: ran.append("8") or eight(x, y, R))
    monkeypatch.setattr(_qops, "_slab_product",
                        lambda x, y: ran.append("H") or slab(x, y))
    for shapes, form in ((_EIGHT_SHAPES, "8"), (_HAMILTON_SHAPES, "H")):
        for m, k, n in shapes:
            assert _eight_form(m, k, n) == (form == "8")
            ran.clear()
            qmatmul(np.ones((m, k, 4)), np.ones((k, n, 4)))
            assert ran == [form], (m, k, n)


@pytest.mark.parametrize("m, k, n", _EIGHT_SHAPES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_qmatmul_eight_form_bitwise_equals_reference(m, k, n, dtype):
    # entries include 0.0 and -0.0; the result is fresh, not the workspace
    rng = np.random.default_rng(m * 4096 + k * 64 + n)
    x = _wide_range_qarray((m, k), rng).astype(dtype)
    y = _wide_range_qarray((k, n), rng).astype(dtype)
    kept = x.tobytes(), y.tobytes()
    got = qmatmul(x, y)
    want = eight_product(x, y)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(got, _qops._local.workspace)
    assert (x.tobytes(), y.tobytes()) == kept


def test_qmatmul_eight_form_of_strided_views_bitwise_equals_reference():
    # column slices and adjoints left as transposed views, on either side
    rng = np.random.default_rng(21)
    W = _wide_range_qarray((220, 420), rng)
    views = [(W[:200, ::2], W[:, 1::2].transpose(1, 0, 2)[:, :200]),
             (W[:, :200].transpose(1, 0, 2), W[:, 200:]),
             (W[:, 10:400:3][:200], W[:130, 7::3])]
    for x, y in views:
        assert not (x.flags.c_contiguous or y.flags.c_contiguous)
        assert _eight_form(x.shape[0], x.shape[1], y.shape[1])
        assert qmatmul(x, y).tobytes() == eight_product(x, y).tobytes()


@pytest.mark.parametrize("zero_side", ["x", "y"])
def test_qmatmul_eight_form_signed_zeros_match_reference(zero_side):
    # a -0.0 operand gives 0.0 throughout, in either form
    rng = np.random.default_rng(22)
    x = rng.standard_normal((_T8, _T8 + 9, 4))
    y = rng.standard_normal((_T8 + 9, _T8 + 3, 4))
    (x if zero_side == "x" else y)[:] = -0.0
    got = qmatmul(x, y).tobytes()
    assert got == eight_product(x, y).tobytes()
    assert got == _qmatmul_parent(x, y).tobytes()


def test_qmatmul_eight_form_mixed_dtypes_bitwise_equal_reference():
    # a float32 operand with a float64 one: float64 combinations and GEMMs
    rng = np.random.default_rng(23)
    x = _wide_range_qarray((_T8, 150), rng)
    y = _wide_range_qarray((150, _T8), rng)
    for dx, dy in ((np.float32, np.float64), (np.float64, np.float32)):
        got = qmatmul(x.astype(dx), y.astype(dy))
        assert got.dtype == np.float64
        assert got.tobytes() == eight_product(x.astype(dx),
                                              y.astype(dy)).tobytes()


@pytest.mark.parametrize("m, k, n", [(_T8, _T8, _T8), (_T8, _T8 - 1, _T8),
                                     (128, 128, 128), (128, 127, 128),
                                     (200, 220, 200), (220, 200, 220)])
@pytest.mark.parametrize("mode", ["both", "x", "y"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_qmatmul_stack_eight_form_items_bitwise_equal_2d(m, k, n, mode,
                                                         dtype):
    x, y = _stack_operands(2, m, k, n, mode, m + k + n)
    x, y = x.astype(dtype), y.astype(dtype)
    got = _qops.qmatmul_stack(x, y)
    for i in range(2):
        xi, yi = _item(x, i), _item(y, i)
        assert got[i].tobytes() == qmatmul(xi, yi).tobytes()
        if _eight_form(m, k, n):
            assert got[i].tobytes() == eight_product(xi, yi).tobytes()


# (m, k, n) of products by one right factor on the slab path: CGNE's
# 200 x 200 step, a rectangular pair and the smallest square one, both
# below _EIGHT_MIN, where qmatmul keeps the Hamilton form, CGNE-Nystrom's
# 50 x 50 step and a pair whose 9mn + 8mk elements just pass 2^18;
# entries include 0.0 and -0.0
_RIGHT_SHAPES = [(200, 200, 200), (100, 90, 100), (40, 40, 40),
                 (50, 50, 50), (130, 120, 130)]


def test_qmatmul_right_shapes_take_the_slab_path():
    for m, k, n in _RIGHT_SHAPES:
        assert not _batched(m, k, n)


@pytest.mark.parametrize("m, k, n", _RIGHT_SHAPES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_qmatmul_right_bitwise_equals_eight_product(m, k, n, dtype):
    rng = np.random.default_rng(m * 4096 + k)
    y = _wide_range_qarray((k, n), rng).astype(dtype)
    kept = y.tobytes()
    product = _qops.qmatmul_right(y)
    for _ in range(2):
        x = _wide_range_qarray((m, k), rng).astype(dtype)
        want = eight_product(x, y)
        got = product(x)
        assert not np.shares_memory(got, _qops._local.workspace)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
    assert y.tobytes() == kept


@pytest.mark.parametrize("zero_side", ["x", "y"])
def test_qmatmul_right_signed_zeros_match_qmatmul(zero_side):
    # a -0.0 operand gives 0.0 throughout, in either form
    rng = np.random.default_rng(7)
    x = rng.standard_normal((100, 90, 4))
    y = rng.standard_normal((90, 100, 4))
    (x if zero_side == "x" else y)[:] = -0.0
    got = _qops.qmatmul_right(y)(x).tobytes()
    assert got == eight_product(x, y).tobytes() == qmatmul(x, y).tobytes()


def test_qmatmul_right_of_strided_views_bitwise_equals_eight_product():
    rng = np.random.default_rng(8)
    x = _wide_range_qarray((100, 180), rng)[:, ::2]
    y = _wide_range_qarray((100, 90), rng).transpose(1, 0, 2)
    assert not x.flags.c_contiguous and not y.flags.c_contiguous
    product = _qops.qmatmul_right(y)
    for _ in range(2):
        assert product(x).tobytes() == eight_product(x, y).tobytes()


def test_qmatmul_right_mixed_dtypes_bitwise_equal_eight_product():
    # a float64 x by a float32 y takes y's combinations formed in float64
    rng = np.random.default_rng(9)
    y = _wide_range_qarray((90, 100), rng).astype(np.float32)
    product = _qops.qmatmul_right(y)
    for dtype in (np.float32, np.float64, np.float32):
        x = _wide_range_qarray((100, 90), rng).astype(dtype)
        assert product(x).tobytes() == eight_product(x, y).tobytes()


def _longdouble_product(x, y):
    """The Hamilton product in long double, as a reference of accuracy."""
    a, b, c, d = np.moveaxis(x.astype(np.longdouble), -1, 0)
    e, f, g, h = np.moveaxis(y.astype(np.longdouble), -1, 0)
    return np.stack([a @ e - b @ f - c @ g - d @ h,
                     a @ f + b @ e + c @ h - d @ g,
                     a @ g - b @ h + c @ e + d @ f,
                     a @ h + b @ g - c @ f + d @ e], -1)


def _assert_normwise_small(product, shapes, make, rng):
    """Each entry's error of product(x, y) and of the parent kernel against
    a long-double product, over (|x||y|)_ij, the sum of the entries'
    moduli, is within the bound of operands of the kind make."""
    bound = {"gaussian": 5e-16, "wide-range": 5e-15}[make]
    modulus = lambda q: np.sqrt(np.sum(np.square(q, dtype=np.longdouble), -1))
    for m, k, n in shapes:
        if make == "gaussian":
            x = rng.standard_normal((m, k, 4))
            y = rng.standard_normal((k, n, 4))
        else:
            x = _wide_range_qarray((m, k), rng)
            y = _wide_range_qarray((k, n), rng)
        want = _longdouble_product(x, y)
        scale = modulus(x) @ modulus(y)
        for got in (product(x, y), _qmatmul_parent(x, y)):
            assert float(np.max(modulus(got - want) / scale)) <= bound


_NO_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is float64 on this platform")


@_NO_LONG_DOUBLE
@pytest.mark.parametrize("make", ["gaussian", "wide-range"])
def test_qmatmul_right_rounding_is_normwise_small(make):
    # measured up to 2.6e-16 (Gaussian) and 2.2e-15 (wide range), 1.3-2.3
    # times qmatmul's; bounds 2x that
    _assert_normwise_small(lambda x, y: _qops.qmatmul_right(y)(x),
                           _RIGHT_SHAPES[1:], make, np.random.default_rng(12))


@_NO_LONG_DOUBLE
@pytest.mark.parametrize("make", ["gaussian", "wide-range"])
def test_qmatmul_eight_form_rounding_is_normwise_small(make):
    # measured at 80-200 sizes up to 2.8e-16 (Gaussian) and 2.3e-15 (wide
    # range), 1.1-2.4 times the Hamilton form's; bounds 2x that
    shapes = [(_T8, _T8 + 9, _T8), (_T8 + 9, _T8, _T8 + 3), (100, 120, 100)]
    assert all(_eight_form(*shape) for shape in shapes)
    _assert_normwise_small(qmatmul, shapes, make, np.random.default_rng(13))


def test_qmatmul_right_forms_its_combinations_once(monkeypatch):
    formed = []
    combine = _qops._combine
    rng = np.random.default_rng(10)
    y = _wide_range_qarray((90, 100), rng)

    def counting(q, table, out):
        formed.append((q is y, len(table)))
        combine(q, table, out)
    monkeypatch.setattr(_qops, "_combine", counting)
    product = _qops.qmatmul_right(y)
    for _ in range(3):
        product(_wide_range_qarray((100, 90), rng))
    # all eight of y's at the first product, then x's, one half at a time,
    # at each
    assert formed == [(True, 2)] + [(False, 1)] * 6


def test_qmatmul_right_outside_the_slab_path_is_qmatmul(monkeypatch):
    # batched right-side products, a 1 x 20 row among them, run on y's
    # slabs, built once, bitwise qmatmul's, and none goes through qmatmul
    calls = []
    monkeypatch.setattr(_qops, "qmatmul",
                        lambda x, y: calls.append(x.shape) or qmatmul(x, y))
    rng = np.random.default_rng(11)
    y = _wide_range_qarray((20, 20), rng)
    product = _qops.qmatmul_right(y)
    for x in (_wide_range_qarray((20, 20), rng),
              _wide_range_qarray((1, 20), rng)):
        got = product(x)
        assert got.tobytes() == qmatmul(x, y).tobytes()
    assert calls == []


# ---------------------------------------------------------------------------
# the slab path's per-thread workspace
# ---------------------------------------------------------------------------

# slab-path shapes that grow and then shrink, k = 1 and a square one among
# them, 220 x 200 x 220 in the 8-product form: the workspace is reused at
# every size it has held
_SLAB_SHAPES = [(40, 40, 40), (60, 50, 70), (120, 1, 60), (120, 100, 110),
                (220, 200, 220), (50, 60, 50), (120, 1, 60), (27, 27, 38)]


def _slab_operands(seed):
    rng = np.random.default_rng(seed)
    return [(_wide_range_qarray((m, k), rng), _wide_range_qarray((k, n), rng))
            for m, k, n in _SLAB_SHAPES]


def test_slab_shapes_take_the_slab_path():
    for m, k, n in _SLAB_SHAPES:
        assert not _batched(m, k, n)


def test_workspace_products_grow_and_shrink_bitwise():
    for x, y in _slab_operands(11):
        assert qmatmul(x, y).tobytes() == _qmatmul_reference(x, y).tobytes()


def test_workspace_never_leaks_into_results():
    operands = _slab_operands(12)
    results = [qmatmul(x, y) for x, y in operands]
    kept = [z.tobytes() for z in results]
    for x, y in operands[::-1]:
        qmatmul(x, y)
    ws = _qops._local.workspace
    for z, before in zip(results, kept):
        assert not np.shares_memory(z, ws)
        assert z.tobytes() == before


def test_workspace_bound(monkeypatch):
    # above the bound a product uses fresh scratch and leaves the
    # retained workspace as it was
    x, y = _slab_operands(13)[4]
    monkeypatch.setattr(_qops, "_local", threading.local())
    monkeypatch.setattr(_qops, "_WORKSPACE_MAX", 20_000)
    assert qmatmul(x, y).tobytes() == _qmatmul_reference(x, y).tobytes()
    assert not hasattr(_qops._local, "workspace")
    small = _slab_operands(13)[0]
    qmatmul(*small)
    assert _qops._local.workspace.size <= 20_000


def test_workspace_per_thread():
    # more threads than cores run slab-path products at once, with short
    # switch intervals; each must get its reference's bits
    jobs = [_slab_operands(20 + t) for t in range(4)]
    expect = [[_qmatmul_reference(x, y).tobytes() for x, y in ops]
              for ops in jobs]
    got = [[] for _ in jobs]

    def work(t):
        for _ in range(3):
            got[t].append([qmatmul(x, y).tobytes() for x, y in jobs[t]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(len(jobs))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for t, runs in enumerate(got):
        assert runs == [expect[t]] * 3


def _completion(pinv):
    n = 20
    A = randn_qmat(n, 3, 1) @ randn_qmat(n, 3, 2).adjoint()
    rows, cols = completion.sample_cur_indices(n, n, 3, 3)
    mask = (QuatRNG(4).uniform((n, n)) > 0.5).astype(float)
    prob = completion.CompletionProblem(M=A.mask(mask), mask=mask, rank=3,
                                        iters=4, col_idx=cols, row_idx=rows)
    return completion.complete(prob, pinv)


_SK8 = solvers.SketchConfig(block_r=8, test_s=5, cycle_T=5, seed=7)
_RSP = solvers.SolverConfig(tol=1e-9, maxit=300)
_SOLVER_CALLS = {
    "rsp_column": lambda: solvers.rsp_column(randn_qmat(30, 20, 1), _RSP, _SK8),
    "rsp_row": lambda: solvers.rsp_row(randn_qmat(20, 30, 2), _RSP, _SK8),
    "hybrid_rsp_ns": lambda: solvers.hybrid_rsp_ns(
        randn_qmat(40, 30, 3), solvers.SolverConfig(tol=1e-8, maxit=30), _SK8),
    "cgne_q_nystrom": lambda: solvers.cgne_q(
        randn_qmat(20, 8, 4), solvers.SolverConfig(tol=1e-8, maxit=100),
        precond=solvers.SketchConfig(block_r=4, seed=5)),
    "pinv_normal_eq": lambda: (factor.pinv_normal_eq(randn_qmat(12, 5, 6)), []),
    "complete": lambda: _completion(factor.pinv_normal_eq),
}


def _pinned(result):
    X, rep = result
    if isinstance(rep, solvers.SolverReport):
        return X.data.tobytes(), rep.iterations, rep.residual_history
    return X.data.tobytes(), rep  # complete's history, or nothing


@pytest.mark.parametrize("call", sorted(_SOLVER_CALLS))
def test_solvers_bitwise_equal_on_parent_kernel(call, monkeypatch):
    # each solve's X bytes, iteration count and residual history are those
    # of the same solve with every quaternion product on the parent kernel
    got = _pinned(_SOLVER_CALLS[call]())
    monkeypatch.setattr(_qops, "qmatmul", _qmatmul_parent)
    assert got == _pinned(_SOLVER_CALLS[call]())
