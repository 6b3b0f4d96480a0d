"""Products of float32 operands: every path of ``_qops`` keeps float32 and
matches the float64 product of the same values to float32 rounding."""

import threading

import numpy as np
import pytest

from quatpinv import _qops
from quatpinv._qops import qconj, qmatmul, qmatmul_by, qmatmul_stack

_EPS32 = float(np.finfo(np.float32).eps)

# (m, k, n) on each path of a product: the batched right side, also with
# one row and with k = 1, and the slab path, also with k = 1
_PATHS = {"batched": (6, 9, 7), "batched-row": (1, 20, 8),
          "batched-k1": (40, 1, 30), "slab": (60, 50, 70),
          "slab-k1": (120, 1, 60)}


def _path(m, k, n) -> str:
    return "batched" if _qops._batched_right(m, k, n) else "slab"


def _f32(shape, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape + (4,)).astype(np.float32)


def _assert_float32_product(got, x, y):
    """got is float32 and each entry lies within (4k + 4) eps32 times the
    sum of the magnitudes of its terms of the float64 product of x and y,
    a bound on float32 summation of 4k terms."""
    assert got.dtype == np.float32
    x64, y64 = x.astype(np.float64), y.astype(np.float64)
    want = qmatmul(x64, y64)
    # every term of component t of entry (i, j) is a component of
    # x[i, p] times a component of y[p, j]
    mag = np.abs(x64).sum(-1) @ np.abs(y64).max(-1)
    k = x.shape[-2]
    assert np.all(np.abs(got - want) <= (4 * k + 4) * _EPS32 * mag[..., None])


def test_paths_cover_every_path():
    assert {name: _path(*shape) for name, shape in _PATHS.items()} == {
        name: name.split("-")[0] for name in _PATHS}


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_float32_product_keeps_dtype(path):
    m, k, n = _PATHS[path]
    x, y = _f32((m, k), 1), _f32((k, n), 2)
    _assert_float32_product(qmatmul(x, y), x, y)


@pytest.mark.parametrize("path", sorted(_PATHS))
def test_float32_integer_products_are_exact(path):
    # small integers keep every float32 partial sum exact, so the float32
    # product is bitwise the float64 one
    m, k, n = _PATHS[path]
    rng = np.random.default_rng(3)
    x, y = (rng.integers(-8, 9, s + (4,)).astype(np.float32)
            for s in ((m, k), (k, n)))
    got = qmatmul(x, y)
    assert got.dtype == np.float32
    assert np.array_equal(got, qmatmul(x.astype(np.float64),
                                       y.astype(np.float64)))


@pytest.mark.parametrize("path", sorted(_PATHS))
@pytest.mark.parametrize("shared", ["none", "x", "y"])
def test_float32_stack_keeps_dtype(path, shared):
    # a stack of 3 products, or one operand shared by every item; each item
    # is bitwise its own 2-D product, as in float64
    m, k, n = _PATHS[path]
    x = _f32((m, k), 4) if shared == "x" else _f32((3, m, k), 4)
    y = _f32((k, n), 5) if shared == "y" else _f32((3, k, n), 5)
    got = qmatmul_stack(x, y)
    assert got.dtype == np.float32 and got.shape == (3, m, n, 4)
    for i in range(3):
        xi = x if shared == "x" else x[i]
        yi = y if shared == "y" else y[i]
        assert got[i].tobytes() == qmatmul(xi, yi).tobytes()
        _assert_float32_product(got[i], xi, yi)


def test_float32_strided_views_keep_dtype():
    # adjoints left as transposed views and column slices, on either side
    W, L = _f32((90, 70), 6), _f32((90, 90), 7)
    views = [(W[3:, 3:].transpose(1, 0, 2), W[3:, :]),
             (W[:, 5:], L[:50, 25:].transpose(1, 0, 2)),
             (qconj(W[3:, 3])[None], W[3:, 3:]),
             (W[::2, :40], L[:40, ::3])]
    for x, y in views:
        assert not (x.flags.c_contiguous and y.flags.c_contiguous)
        _assert_float32_product(qmatmul(x, y), x, y)


@pytest.mark.parametrize("m, k, n", [(200, 220, 1), (60, 1, 1), (1, 20, 8),
                                     (60, 50, 70)])
def test_float32_qmatmul_by_keeps_dtype(m, k, n):
    # the batched products from the laid-out planes, 1 x 20 among them, and
    # the slab path through qmatmul
    x, y = _f32((m, k), 8), _f32((k, n), 9)
    got = qmatmul_by(x)(y)
    assert got.tobytes() == qmatmul(x, y).tobytes()
    _assert_float32_product(got, x, y)


def test_qconj_keeps_float32():
    x = _f32((5, 4), 10)
    got = qconj(x)
    assert got.dtype == np.float32
    assert np.array_equal(got, qconj(x.astype(np.float64)))


def test_mixed_operands_give_float64():
    x, y = _f32((60, 50), 11), _f32((50, 70), 12).astype(np.float64)
    assert qmatmul(x, y).dtype == np.float64
    assert qmatmul(x, y).tobytes() == qmatmul(x.astype(np.float64), y).tobytes()


def test_float32_slab_product_shares_the_float64_workspace(monkeypatch):
    # a float32 slab product takes the bytes of the thread's workspace,
    # half the float64 elements, and a float64 product of the same shape
    # then grows that one workspace; neither result is a view of it
    monkeypatch.setattr(_qops, "_local", threading.local())
    m, k, n = _PATHS["slab"]
    x, y = _f32((m, k), 13), _f32((k, n), 14)
    z32 = qmatmul(x, y)
    ws = _qops._local.workspace
    need = 4 * (m * k + k * n + m * n)
    assert ws.dtype == np.float64 and ws.size == need // 2
    z64 = qmatmul(x.astype(np.float64), y.astype(np.float64))
    assert _qops._local.workspace.size == need
    for z in (z32, z64):
        assert not np.shares_memory(z, _qops._local.workspace)
    _assert_float32_product(z32, x, y)
