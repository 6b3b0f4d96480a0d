"""Array-level quaternion kernels.

Quaternion arrays carry a trailing axis of length 4 holding (a, b, c, d)
components. A quaternion matrix product is four real GEMMs, one per
component of one operand:

* for each component s of the left operand x, its contiguous (m, k) plane
  times the (k, 4n) slab of y whose entry (p, (q, t)) is component t of
  (unit s) * y[p, q], that is one component of y or its negative; the
  four (m, 4n) products are added in the order s = 0..3 and reshape to
  the (m, n, 4) result;
* when x is the smaller operand (such as the 1 x k rows of a triangular
  solve), the roles swap: for each component u of y, a (4m, k) block of
  signed components of x times the (k, n) plane of y; one batched
  product gives all four, and their terms are then added in the order of
  the components of x.

The side is picked from the shapes alone, as the one that moves fewer
elements. Either way each output component is summed as the Hamilton
formula writes it: four k-term products, added in the order a, b, c, d of
the left factor.

Small products, such as the sketch steps' products with an n x r sketch,
cost mostly numpy's per-call overhead, so each side keeps its call count
low: the left side builds its four blocks with one product by a (16, 4)
sign table and regroups the terms with one row gather; a right-side
product with (m + k) n <= 2048 builds all four slabs with one product by
the sign table and runs its four GEMMs as one batched call (for k = 1 as
one einsum, which does the same faster than numpy's matmul). A larger
right-side product builds and multiplies one slab at a time (each product
an einsum too when k = 1). No path changes a GEMM's shape or the order of
the adds, so the results are bitwise those of one call per GEMM.

That slab path keeps its scratch -- the (4, m, k) planes of x, one (k, 4n)
slab and one slab's (m, 4n) product, 4 (mk + kn + mn) elements -- in a
workspace reused from call to call, so that a large product does not
fault fresh pages in on every call. The workspace belongs to the calling
thread (``threading.local``), so concurrent products never share it. It
grows to the largest need seen and retains at most _WORKSPACE_MAX
elements (8 MiB) per thread; a larger product takes fresh scratch. The
returned array is fresh, never a view of the workspace, except for the
slab-path products by a fixed right factor (below).

``qmatmul_stack`` runs stacks of products, (s, m, k, 4) @ (s, k, n, 4)
-> (s, m, n, 4), with one operand possibly a single matrix shared by every
item; the micro-solves use it to factor a block of sketches in one pass.
The left side and the batched right side run the items' GEMMs as items
of the same batched numpy calls, with each item's GEMM shapes and adds
unchanged, so every item is bitwise its 2-D product; the slab path takes
the items one at a time. ``qmatmul`` is the product of one pair, the name
a tracer wraps: a span's flops are computed from 2-D operand shapes, so
stacked products do not pass through it.

``qmatmul_by(x)`` is the product by one fixed 2-D left factor, for the
matvecs of a power or Lanczos run: it lays out the planes of x once, and
each batched right-side product takes them as they are (``_right_batched``,
the batched body of ``qmatmul_stack``), where qmatmul would copy them
again on every call. Its products are bitwise qmatmul's; a left-side or
slab-path product calls qmatmul, and the others do not pass through that
name.

``qmatmul_right(y)`` is its counterpart for one fixed 2-D right factor,
for CGNE's steps, which multiply by the same n x n M: its slab-path
products take y's slabs built once, at the first of them (slab 0 is y's
own array, slabs 1-3 three fresh ones), where qmatmul builds slabs 1-3 on
every call, and they do not pass through the name qmatmul. Their scratch
is then the planes, one slab's product and the sum of the four, which is
left in the workspace until the thread's next product, so a loop that
forms its scaled copies there holds no buffer of its own. Its products
are bitwise qmatmul's, and any other product (the left side, the batched
right side) is qmatmul's.

A product keeps its operands' dtype: two float32 operands give a float32
product, formed with float32 sign tables, planes, slabs and GEMMs, and any
other pair gives float64, bitwise as before. Float32 scratch on the slab
path is a prefix of the same thread workspace's bytes, so a float32
product never keeps a second workspace. ``qconj`` keeps float32 too. The
Newton-Schulz family runs its first steps this way (``solvers._ns_solve``):
at 200 x 220 by 220 x 200 a float32 product took 0.53 of the float64 one's
time (one BLAS thread, 2-core VM).

The products stay quaternion-native: the GEMMs do the same 16 m k n real
multiply-adds as the Hamilton product written out over the component
planes, the expanded slabs or blocks of one operand live only inside one
call (qmatmul_right's slabs, 3 k x 4n, as long as its product), and no
4m x 4n real counterpart of a whole matrix is ever formed.
"""

from __future__ import annotations

import functools
import threading

import numpy as np


def qmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise (broadcasting) Hamilton product of (..., 4) arrays."""
    a, b, c, d = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    e, f, g, h = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    return np.stack([
        a * e - b * f - c * g - d * h,
        a * f + b * e + c * h - d * g,
        a * g - b * h + c * e + d * f,
        a * h + b * g - c * f + d * e,
    ], axis=-1)


def qconj(x: np.ndarray) -> np.ndarray:
    """Elementwise conjugate, a fresh C-ordered array; bitwise a copy with
    components b, c, d multiplied by -1."""
    return np.multiply(x, _TABLES[x.dtype is _F32][0], order="C")


def qnormsq(x: np.ndarray) -> np.ndarray:
    """Elementwise squared magnitude, shape (...)."""
    return np.sum(x * x, axis=-1)


_CONJ = np.array([1.0, -1.0, -1.0, -1.0])
# _SIGN[s, u, t]: component t of (unit s) * (unit u), each 0 or +-1. A
# product with it builds a slab or block of an operand; every entry is then
# exactly one component or its negative.
_SIGN = qmul(np.eye(4)[:, None, :], np.eye(4)[None, :, :])
_SIGN_LEFT = _SIGN.transpose(1, 2, 0).reshape(16, 4)  # [(u, t), s]
# the tables in float64 and in float32, indexed by whether a product is
# float32: _CONJ, _SIGN for a 2-D operand and for a stack ([s, u, t] and
# [s, 0, u, t]) and _SIGN_LEFT
_TABLES = tuple((_CONJ.astype(t), (_SIGN.astype(t), _SIGN.astype(t)[:, None]),
                 _SIGN_LEFT.astype(t)) for t in (np.float64, np.float32))
_F32 = np.dtype(np.float32)
# transposes of an operand to its planes, (4, [s,] r, c) and ([s,] 4, r, c),
# and the einsum of the one-term products, by the operand's stack axes
_PLANES_FIRST = ((2, 0, 1), (3, 0, 1, 2))
_PLANES_LAST = ((2, 0, 1), (0, 3, 1, 2))
_ONE_TERM = ("smk,skn->smn", "sbmk,sbkn->sbmn")
# _TERM_U[s, t]: the component of y that meets component s of x in
# component t of the product
_TERM_U = np.abs(_SIGN).argmax(axis=1)
# the row (u, t) of the left side's block products that holds the term
# (s, t), in the order (s, t)
_TERM_ROWS = (4 * _TERM_U + np.arange(4)).ravel()


@functools.lru_cache(maxsize=32)
def _term_rows(b: int) -> np.ndarray:
    """The rows of b stacked (16, m n) left-side block products that hold
    the terms (s, t) of item b', as a (4, 4 b) array [s, (t, b')]."""
    return np.add.outer(_TERM_ROWS, 16 * np.arange(b)).reshape(4, 4 * b)


# right-side products with (m + k) n up to this run as one batched call
_BATCH_MAX = 2048
# float64 elements of scratch a thread keeps between products (8 MiB)
_WORKSPACE_MAX = 1 << 20
_local = threading.local()


def _tables(x: np.ndarray, y: np.ndarray):
    """The tables of a product of x and y: float32 when both are float32,
    float64 otherwise. numpy's native dtypes are singletons, and an
    identity test costs the many small products of the sketch solvers
    less than an equality test."""
    return _TABLES[x.dtype is _F32 and y.dtype is _F32]


def _scratch(size: int, dtype: np.dtype) -> np.ndarray:
    """size elements of scratch of a float dtype: the bytes of a prefix of
    this thread's float64 workspace, which grows to the largest size asked
    for up to _WORKSPACE_MAX, or a fresh array above that bound."""
    words = -(-size * dtype.itemsize // 8)
    if words > _WORKSPACE_MAX:
        return np.empty(size, dtype)
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.size < words:
        ws = _local.workspace = np.empty(words)
    return ws[:words].view(dtype)[:size]


def qmatmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Quaternion matrix product of (m, k, 4) @ (k, n, 4) -> (m, n, 4).

    The product of one pair; stacks of pairs go through ``qmatmul_stack``,
    which computes both."""
    return qmatmul_stack(x, y)


def qmatmul_stack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Quaternion matrix products of stacks, (s, m, k, 4) @ (s, k, n, 4)
    -> (s, m, n, 4); either operand may also be one 2-D matrix, used with
    every item of the other, and two 2-D operands give their product.
    Each item is bitwise the 2-D product of its two operands."""
    sx, sy = x.shape, y.shape
    m, k, n = sx[-3], sx[-2], sy[-2]
    lx, ly = sx[:-3], sy[:-3]
    lead = lx or ly
    if _left_side(m, k, n):
        # L[.., (u, t, i), p] = sum_s _SIGN[s, u, t] x[.., i, p, s]: block
        # u holds the rows (t, i), in any order a row's k-term sum is the
        # same
        L = _tables(x, y)[2] @ x.reshape(lx + (m * k, 4)).swapaxes(-1, -2)
        planes = np.ascontiguousarray(y.transpose(_PLANES_LAST[len(ly)]))
        P = np.matmul(L.reshape(lx + (4, 4 * m, k)), planes)
        b = len(P) if lead else 1
        # Q[s, (t, item)]: the term (s, t) of each item, added over s
        Q = P.reshape(16 * b, m * n).take(_term_rows(b), axis=0)
        Z = Q[0] + Q[1]
        Z += Q[2]
        Z += Q[3]
        if lead:
            Z = Z.reshape(4, b * m * n)
        return np.ascontiguousarray(Z.T).reshape(lead + (m, n, 4))
    if (m + k) * n <= _BATCH_MAX:
        return _right_batched(
            np.ascontiguousarray(x.transpose(_PLANES_FIRST[len(lx)])), y)
    # the slab path takes one item at a time
    if not lead:
        return _slab_product(x, y)
    out = np.empty(lead + (m, n, 4), _tables(x, y)[0].dtype)
    for i in range(len(out)):
        out[i] = _slab_product(x[i] if lx else x, y[i] if ly else y)
    return out


def _left_side(m: int, k: int, n: int) -> bool:
    """Whether an (m, k) @ (k, n) product runs on the left side. The right
    slabs are 16kn elements in all; the left side moves 16mk (its block),
    4kn (the planes of y) and 36mn (the terms, their reordering and the
    result)."""
    return 16 * m * k + 4 * k * n + 36 * m * n < 16 * k * n


def _right_batched(planes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The batched right side, from the contiguous planes of x, (4, [s,]
    m, k), and y, ([s,] k, n, 4); one of the two may be a stack."""
    lx, ly = planes.shape[1:-2], y.shape[:-3]
    lead = lx or ly
    m, k = planes.shape[-2:]
    n = y.shape[-2]
    # S[s, .., p, (q, t)] = sum_u y[.., p, q, u] _SIGN[s, u, t]
    sign = _tables(planes, y)[1][len(ly)]
    S = (y.reshape(ly + (k * n, 4)) @ sign).reshape(
        (4,) + ly + (k, 4 * n))
    if lx != ly:  # one 2-D operand, used with every item
        if lx:
            S = np.broadcast_to(S[:, None], (4,) + lead + (k, 4 * n))
        else:
            planes = np.broadcast_to(planes[:, None], (4,) + lead + (m, k))
    # with k = 1 numpy's matmul runs its own loop, one rounded product
    # added to +0.0 per entry; einsum does the same, faster
    P = (np.einsum(_ONE_TERM[len(lead)], planes, S) if k == 1
         else np.matmul(planes, S))
    Z = P[0] + P[1]
    Z += P[2]
    Z += P[3]
    return Z.reshape(lead + (m, n, 4))


def qmatmul_by(x: np.ndarray):
    """y -> qmatmul(x, y) for one 2-D left factor x, bit for bit, with the
    planes of x laid out once: each batched right-side product uses them as
    they are, where qmatmul would copy them again. For many small products
    by one matrix, such as the matvecs of a power or Lanczos run; any other
    product (the left side, the slab path) is qmatmul's."""
    m, k = x.shape[:2]
    planes = np.ascontiguousarray(x.transpose(2, 0, 1))

    def product(y: np.ndarray) -> np.ndarray:
        n = y.shape[1]
        if _left_side(m, k, n) or (m + k) * n > _BATCH_MAX:
            return qmatmul(x, y)
        return _right_batched(planes, y)
    return product


def qmatmul_right(y: np.ndarray):
    """x -> qmatmul(x, y) for one 2-D right factor y, bit for bit, with the
    slabs of y built once: each slab-path product takes them as they are,
    where qmatmul would build them again. Slab 0 is y's own array, and
    slabs 1-3 are built at the first slab-path product, in y's dtype: their
    entries are y's, signed, so a float64 x gets qmatmul's bits from them
    too. For many products by one matrix, such as CGNE's steps; any other
    product (the left side, the batched right side) is qmatmul's.

    A slab-path product is left in this thread's workspace, beside the
    planes, and stays valid only until the thread's next product; the
    others are fresh arrays."""
    k, n = y.shape[:2]
    slabs = []

    def product(x: np.ndarray) -> np.ndarray:
        m = x.shape[0]
        if _left_side(m, k, n) or (m + k) * n <= _BATCH_MAX:
            return qmatmul(x, y)
        if not slabs:
            slabs.extend(_slabs(y, _TABLES[y.dtype is _F32][1][0]))
        return _slab_product(x, y, slabs)
    return product


def _slabs(y: np.ndarray, sign: np.ndarray, R: np.ndarray | None = None):
    """The four (k, 4n) slabs of y (k, n, 4), in the order s = 0..3: slab 0
    is y's own array, since unit 1 leaves y as it is, and slab s > 0 is
    R[p, (q, t)] = sum_u y[p, q, u] _SIGN[s, u, t], built into the buffer R
    of (k n, 4) when the one before is done with, or into a fresh array
    without R."""
    k, n = y.shape[:2]
    yq = y.reshape(k * n, 4)
    yield yq.reshape(k, 4 * n)
    for s in range(1, 4):
        yield np.matmul(yq, sign[s], out=R).reshape(k, 4 * n)


def _slab_product(x: np.ndarray, y: np.ndarray, slabs=None) -> np.ndarray:
    """The right side one slab at a time, for (m, k, 4) @ (k, n, 4). From
    y's prebuilt slabs (_slabs), the sum of the four products is left in
    scratch; without them, each slab is built in scratch as the loop
    reaches it, and the sum is a fresh array."""
    m, k, _ = x.shape
    n = y.shape[1]
    sign = _tables(x, y)[1][0]
    # the planes of x, one slab's product, then the sum or one slab, in
    # scratch
    mk, mn = 4 * m * k, 4 * m * n
    ws = _scratch(mk + mn + (mn if slabs else 4 * k * n), sign.dtype)
    planes = ws[:mk].reshape(4, m, k)
    np.copyto(planes, x.transpose(2, 0, 1))
    P = ws[mk:mk + mn].reshape(m, 4 * n)
    Z = None
    if slabs:
        Z = ws[mk + mn:].reshape(m, 4 * n)
    else:
        slabs = _slabs(y, sign, ws[mk + mn:].reshape(k * n, 4))
    slabs = iter(slabs)
    # k = 1 runs as einsum, as in the batched call
    gemm = np.matmul if k != 1 else functools.partial(np.einsum, "mk,kn->mn")
    Z = gemm(planes[0], next(slabs), out=Z)
    for plane, slab in zip(planes[1:], slabs):
        Z += gemm(plane, slab, out=P)
    return Z.reshape(m, n, 4)
