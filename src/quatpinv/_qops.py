"""Array-level quaternion kernels.

Quaternion arrays carry a trailing axis of length 4 holding (a, b, c, d)
components. A quaternion matrix product runs in one of two forms. The
Hamilton form is four real GEMMs, one per component s of the left
operand x: its contiguous (m, k) plane times the (k, 4n) slab of y whose
entry (p, (q, t)) is component t of (unit s) * y[p, q], that is one
component of y or its negative. The four (m, 4n) products are added in
the order s = 0..3 and reshape to the (m, n, 4) result, so each output
component is summed as the Hamilton formula writes it: four k-term
products, added in the order a, b, c, d of the left factor.

Small products, such as the sketch steps', cost mostly per-call overhead,
so the numpy call count stays low. A product with (m + k) n <= _BATCH_MAX
(2048), the batched right side, builds all four slabs with one product by
the sign table (``_slabs``) and runs its four GEMMs as one batched call
(``_right_batched``). A larger product, the slab path, builds and
multiplies one slab at a time. No path changes a GEMM's shape or the
order of the adds, so the results are bitwise those of one call per GEMM.

``_right_batched(planes, slabs)`` is the one kernel of the batched right
side: it takes the planes of x and the slabs of y as they are, so that a
caller that multiplies by one factor many times lays that factor out
once. qmatmul, qmatmul_stack, ``qmatmul_by(x)`` (x's planes laid out
once, for the matvecs of a power or Lanczos run), ``qmatmul_right(y)``
(y's slabs built once, for CGNE's steps and a test sketch's residual) and
the sketch stream (``solvers._SketchStream``, the slabs of a block's
sketches built once per block) all run it, and every product it runs is
bitwise qmatmul's. The slabs of a stack are built in one product, and
those of a buffer whose slab 0 already holds the factors' entries in one
product for slabs 1..3 (``_fill_slabs``): unit 1 leaves y as it is.

The slab path keeps its scratch -- the (4, m, k) planes of x, one (k, 4n)
slab and one slab's (m, 4n) product, 4 (mk + kn + mn) elements -- in a
workspace reused from call to call, so that a large product does not
fault fresh pages in on every call. The workspace belongs to the calling
thread (``threading.local``), so concurrent products never share it. It
grows to the largest need seen and retains at most _WORKSPACE_MAX
elements (10.5 MiB) per thread; a larger product takes fresh scratch.
The returned array is fresh, never a view of the workspace.

A slab-path product with each of m, k and n at least _EIGHT_MIN (80) runs
instead in the 8-product form of Howell and Lafon (The complexity of the
quaternion product, Cornell TR 75-245, 1975), which holds for matrix
entries: eight real (m, k) @ (k, n) GEMMs of sums and differences of the
components of x and of y, and post-additions that give the four
components, 8 m k n multiply-adds where the Hamilton form takes 16. The
products run in two halves, m1..m4 and m5..m8: each forms its four
combinations of each operand (two an op, on the component views) and
runs its four GEMMs as one batched call, into the workspace, whose
9mn + 4 (mk + kn) elements hold the eight products, their sum t and one
half's combinations; the post-additions write the fresh result. The
threshold is read from a table of the two forms' times by shape
(README, performance notes).
Its rounding is not the Hamilton form's: against a long-double product,
each entry's error is 1.1-2.4 times the Hamilton form's, within
2.3e-15 (|x||y|)_ij, |x| the entries' moduli (Gaussian operands:
2.8e-16).

``qmatmul_stack`` runs stacks of products, (s, m, k, 4) @ (s, k, n, 4)
-> (s, m, n, 4), with one operand possibly a single matrix shared by every
item; the micro-solves use it to factor a block of sketches in one pass.
The batched right side runs the items' GEMMs as items of the same
batched numpy calls, with each item's GEMM shapes and adds unchanged, so
every item is bitwise its 2-D product; it takes at most _STACK_MAX
(m + k) n of items per call, so that one call's slabs and products stay
within 1 MiB. The slab path takes the items one at a time, each in the
form of its 2-D product. ``qmatmul`` is the product of one pair, the name
a tracer wraps: a span's flops are computed from 2-D operand shapes, so
stacked products do not pass through it.

``qmatmul_right(y)`` also runs every product that qmatmul would run on
the slab path in the 8-product form, at any size, on y's eight
combinations, formed once, at the first such product, and handed to the
same kernel (``_eight_product``), whose halves then form only x's. Its
products are bitwise the 8-product form's, so from _EIGHT_MIN on they
are bitwise qmatmul's too.

A product keeps its operands' dtype: two float32 operands give a float32
product, formed with float32 sign tables, planes, slabs, combinations and
GEMMs, and any other pair gives float64. Float32
scratch is a prefix of the same thread workspace's bytes, so a float32
product never keeps a second workspace. ``qconj`` keeps float32 too. The
Newton-Schulz family runs its first steps this way
(``solvers._ns_solve``).

The products stay quaternion-native: the GEMMs do the same 16 m k n real
multiply-adds as the Hamilton product written out over the component
planes (8 m k n in the 8-product form), the expanded slabs or
combinations of an operand live only inside one call or, prepared ahead,
as long as the products by that operand (qmatmul_right's, a sketch
stream's for one block), and no 4m x 4n real counterpart of a whole matrix
is ever formed.
"""

from __future__ import annotations

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
# product with it builds a slab of an operand; every entry is then
# exactly one component or its negative.
_SIGN = qmul(np.eye(4)[:, None, :], np.eye(4)[None, :, :])
# the tables in float64 and in float32, indexed by whether a product is
# float32: _CONJ and _SIGN
_TABLES = tuple((_CONJ.astype(t), _SIGN.astype(t))
                for t in (np.float64, np.float32))
_F32 = np.dtype(np.float32)
# transposes of an operand to its planes, (4, [s,] r, c), by the operand's
# stack axes
_PLANES = ((2, 0, 1), (3, 0, 1, 2))

# products with (m + k) n up to this run as one batched call
_BATCH_MAX = 2048
# a stack's batched right-side products run in calls of at most this
# (m + k) n summed over their items, so that the slabs and products of one
# call, 16 (m + k) n elements in all, stay within 1 MiB
_STACK_MAX = 8192
# slab-path products with min(m, k, n) at least this run in the 8-product
# form (README, performance notes: the shape table it was chosen from)
_EIGHT_MIN = 80
# float64 elements of scratch a thread keeps between products (10.5 MiB):
# the 17 s^2 of an 8-product-form s x s x s product up to s = 284
_WORKSPACE_MAX = 17 * 284 ** 2
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
    if _batched_right(m, k, n):
        if not lead or lead[0] * (m + k) * n <= _STACK_MAX:
            return _right_batched(_planes(x), _slabs(y))
        # a long stack in calls of b items (at least 4), whose slabs and
        # products stay within 16 _STACK_MAX elements
        planes = _planes(x)
        b = _STACK_MAX // ((m + k) * n)
        out = np.empty(lead + (m, n, 4), _tables(x, y)[0].dtype)
        for i in range(0, lead[0], b):
            items = slice(i, i + b)
            out[items] = _right_batched(planes[:, items] if lx else planes,
                                        _slabs(y[items] if ly else y))
        return out
    # the slab path takes one item at a time, each as a 2-D product
    if not lead:
        return _slab_path(x, y)
    out = np.empty(lead + (m, n, 4), _tables(x, y)[0].dtype)
    for i in range(len(out)):
        out[i] = _slab_path(x[i] if lx else x, y[i] if ly else y)
    return out


def _slab_path(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A slab-path product, (m, k, 4) @ (k, n, 4): in the 8-product form
    when each of m, k and n is at least _EIGHT_MIN, else in the Hamilton
    form, one slab at a time."""
    if min(x.shape[0], x.shape[1], y.shape[1]) >= _EIGHT_MIN:
        return _eight_product(x, y)
    return _slab_product(x, y)


def _batched_right(m: int, k: int, n: int) -> bool:
    """Whether qmatmul runs an (m, k) @ (k, n) product on the batched right
    side."""
    return (m + k) * n <= _BATCH_MAX


def _planes(x: np.ndarray) -> np.ndarray:
    """The contiguous planes of x, ([s,] m, k, 4) -> (4, [s,] m, k)."""
    return np.ascontiguousarray(x.transpose(_PLANES[x.ndim - 3]))


def _slabs(y: np.ndarray) -> np.ndarray:
    """The sign slabs of y, ([s,] k, n, 4) -> (4, [s,] k, 4n), in y's dtype
    (float32 for float32, else float64): S[s', .., p, (q, t)] =
    sum_u y[.., p, q, u] _SIGN[s', u, t], each entry one component of y or
    its negative, so that a product with planes of either dtype is bitwise
    the one on slabs of its own dtype. A stack's entries are one
    (s k n, 4) operand, four products in all, whose entries do not depend
    on the order of their sums."""
    S = y.reshape(-1, 4) @ _TABLES[y.dtype is _F32][1]
    return S.reshape((4,) + y.shape[:-2] + (4 * y.shape[-2],))


def _fill_slabs(S: np.ndarray) -> None:
    """Slabs 1..3 of S, (4, e, 4), from slab 0, which holds the e entries of
    the factors: unit 1 leaves each entry as it is. One product, whose
    entries are ``_slabs``' bit for bit, but for the sign of a zero, which
    no GEMM's sum carries (each starts from +0.0)."""
    np.matmul(S[0], _TABLES[S.dtype is _F32][1][1:], out=S[1:])


def _right_batched(planes: np.ndarray, S: np.ndarray) -> np.ndarray:
    """The batched right side: the contiguous planes of x, (4, [s,] m, k),
    times the slabs of y, (4, [s,] k, 4n) (``_slabs``), four GEMMs in one
    batched call, added in the order s = 0..3; one of the two may be a
    stack. The kernel of every batched right-side product."""
    lx, ly = planes.shape[1:-2], S.shape[1:-2]
    lead = lx or ly
    m, k = planes.shape[-2:]
    n = S.shape[-1] // 4
    if lx != ly:  # one 2-D operand, used with every item
        if lx:
            S = np.broadcast_to(S[:, None], (4,) + lead + (k, 4 * n))
        else:
            planes = np.broadcast_to(planes[:, None], (4,) + lead + (m, k))
    P = np.matmul(planes, S)
    Z = P[0] + P[1]
    Z += P[2]
    Z += P[3]
    return Z.reshape(lead + (m, n, 4))


def qmatmul_by(x: np.ndarray):
    """y -> qmatmul(x, y) for one 2-D left factor x, bit for bit, with the
    planes of x laid out once: each batched right-side product uses them as
    they are, where qmatmul would copy them again. For many small products
    by one matrix, such as the matvecs of a power or Lanczos run; a
    slab-path product is qmatmul's."""
    m, k = x.shape[:2]
    planes = _planes(x)

    def product(y: np.ndarray) -> np.ndarray:
        if not _batched_right(m, k, y.shape[1]):
            return qmatmul(x, y)
        return _right_batched(planes, _slabs(y))
    return product


def qmatmul_right(y: np.ndarray):
    """x -> x y for one 2-D right factor y, for many products by one
    matrix, such as CGNE's steps and a test sketch's residual. A product
    that qmatmul would run on the batched right side runs on y's slabs
    (``_slabs``), built once, at the first such product, bitwise
    qmatmul's. A product that qmatmul would run on the slab path runs in
    the 8-product form (``_eight_product``) at every size, on y's eight
    combinations of components, formed once, at the first such product,
    in that product's dtype (float32 for two float32 operands, float64
    otherwise); x's are formed at every product, one half at a time.
    Every result is a fresh array."""
    k, n = y.shape[:2]
    prepared = {}

    def product(x: np.ndarray) -> np.ndarray:
        if _batched_right(x.shape[0], k, n):
            if "slabs" not in prepared:
                prepared["slabs"] = _slabs(y)
            return _right_batched(_planes(x), prepared["slabs"])
        dtype = _tables(x, y)[0].dtype
        if dtype not in prepared:
            prepared[dtype] = np.empty((8, k, n), dtype)
            _combine(y, _RIGHT_SUMS, prepared[dtype])
        return _eight_product(x, y, prepared[dtype])
    return product


# The 8-product form of z = x y (Howell & Lafon, The complexity of the
# quaternion product, Cornell TR 75-245, 1975), for x = (a, b, c, d) and
# y = (e, f, g, h): the real products m1..m8 of (d - c, a + b, a - b,
# c + d, d - b, d + b, a + c, a - c) by (g - h, e + f, g + h, e - f,
# f - g, f + g, e - h, e + h), then t = m6 + m7 + m8, u = (m5 + t) / 2 and
# z = (m1 + u - m6, m2 + u - t, m3 + u - m8, m4 + u - m7). Each table is in
# two halves, the combinations of m1..m4 and of m5..m8, four slots each;
# each row of a half forms two combinations in one call: (ufunc, its two
# operands' components, the slots of the two combinations)
_LEFT_SUMS = (
    # (d, a) - (c, b) and (a, c) + (b, d), for m1, m3 and m2, m4
    ((np.subtract, slice(3, None, -3), slice(2, 0, -1), slice(0, 3, 2)),
     (np.add, slice(0, None, 2), slice(1, None, 2), slice(1, 4, 2))),
    # (d, a) - (b, c) and (d, a) + (b, c), for m5, m8 and m6, m7
    ((np.subtract, slice(3, None, -3), slice(1, 3), slice(0, 4, 3)),
     (np.add, slice(3, None, -3), slice(1, 3), slice(1, 3))),
)
_RIGHT_SUMS = (
    # (g, e) - (h, f) for m1, m4; (e, g) + (f, h) for m2, m3
    ((np.subtract, slice(2, None, -2), slice(3, None, -2), slice(0, 4, 3)),
     (np.add, slice(0, None, 2), slice(1, None, 2), slice(1, 3))),
    # (f, e) - (g, h) for m5, m7; (f, e) + (g, h) for m6, m8
    ((np.subtract, slice(1, None, -1), slice(2, None), slice(0, 3, 2)),
     (np.add, slice(1, None, -1), slice(2, None), slice(1, 4, 2))),
)


def _combine(q: np.ndarray, halves, out: np.ndarray) -> None:
    """The combinations of the components of q, (r, c, 4), that the halves
    of a table name, into out, (4 per half, r, c), each pair one
    elementwise op on q's component views, in out's dtype."""
    planes = q.transpose(2, 0, 1)
    for h, half in enumerate(halves):
        for op, i, j, slots in half:
            op(planes[i], planes[j], out=out[4 * h:4 * h + 4][slots],
               dtype=out.dtype)


def _eight_product(x: np.ndarray, y: np.ndarray,
                   R: np.ndarray | None = None) -> np.ndarray:
    """x y in the 8-product form, a fresh (m, n, 4) array, for x (m, k, 4)
    and y (k, n, 4): eight real (m, k) @ (k, n) GEMMs of combinations of
    the components of x (_LEFT_SUMS) and of y (_RIGHT_SUMS), in two
    halves of four, each formed in scratch and run as one batched call,
    then the post-additions. R is y's eight combinations, (8, k, n) in
    the product's dtype, formed ahead for many products by y
    (``qmatmul_right``), or None to form each half's four here."""
    m, k = x.shape[:2]
    n = y.shape[1]
    dtype = _tables(x, y)[0].dtype
    mn, mk, kn = m * n, m * k, (k * n if R is None else 0)
    # in scratch: m1..m8 and t, then one half's combinations of x and, when
    # R is None, of y
    ws = _scratch(9 * mn + 4 * (mk + kn), dtype)
    P = ws[:9 * mn].reshape(9, m, n)
    L = ws[9 * mn:9 * mn + 4 * mk].reshape(4, m, k)
    for h in range(2):
        _combine(x, _LEFT_SUMS[h:h + 1], L)
        if R is None:
            Rh = ws[9 * mn + 4 * mk:].reshape(4, k, n)
            _combine(y, _RIGHT_SUMS[h:h + 1], Rh)
        else:
            Rh = R[4 * h:4 * h + 4]
        np.matmul(L, Rh, P[4 * h:4 * h + 4])
    A, B = P[:4], P[4:]
    # the post-additions, outputs passed by position, which spares numpy's
    # keyword handling, a few per cent of a 50 x 50 product
    t, u = B[4], B[0]
    np.add(B[1], B[2], t)
    np.add(t, B[3], t)
    np.add(u, t, u)
    np.multiply(u, 0.5, u)
    np.add(A, u, A)
    Z = np.empty((m, n, 4), dtype)
    Zt = Z.transpose(2, 0, 1)
    # z1 and z4 less m6 and m7, then z2 and z3 less t and m8
    np.subtract(A[0:4:3], B[1:3], Zt[0:4:3])
    np.subtract(A[1:3], B[4:2:-1], Zt[1:3])
    return Z


def _slab_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The right side one slab at a time, for (m, k, 4) @ (k, n, 4): slab 0
    is y's own array, since unit 1 leaves y as it is, and slab s > 0,
    S[p, (q, t)] = sum_u y[p, q, u] _SIGN[s, u, t], is built in scratch as
    the loop reaches it. The sum of the four products is a fresh array."""
    m, k, _ = x.shape
    n = y.shape[1]
    sign = _tables(x, y)[1]
    # the planes of x, one slab's product and one slab, in scratch
    mk, mn = 4 * m * k, 4 * m * n
    ws = _scratch(mk + mn + 4 * k * n, sign.dtype)
    planes = ws[:mk].reshape(4, m, k)
    np.copyto(planes, x.transpose(2, 0, 1))
    P = ws[mk:mk + mn].reshape(m, 4 * n)
    S = ws[mk + mn:].reshape(k * n, 4)
    yq = y.reshape(k * n, 4)
    Z = planes[0] @ yq.reshape(k, 4 * n)
    for s in range(1, 4):
        slab = np.matmul(yq, sign[s], out=S).reshape(k, 4 * n)
        Z += np.matmul(planes[s], slab, out=P)
    return Z.reshape(m, n, 4)
