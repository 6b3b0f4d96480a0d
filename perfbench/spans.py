"""Spans around the library's layer boundaries, installed from outside.

``Tracer.install`` wraps each function in ``TARGETS`` and puts the wrapper
in every ``quatpinv`` module global that holds the original, so it sees
calls made through module attributes (``_qops.qmatmul``) and through names
imported with ``from ... import`` (the ``hpd_solve`` that ``solvers`` uses)
alike. ``uninstall`` puts the originals back.

Each timed call is a root span; every wrapped call inside it records
(name, start, end, parent span, call id, returned normally, computed
flops). Wrapped functions called outside a timed call, such as the
benchmark's own checks, record nothing. Spans stay in memory until
``save`` writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, function) pairs wrapped in a traced run; the metric prefix is the
# module path without the package name.
TARGETS = (
    ("quatpinv._qops", "qmatmul"),
    ("quatpinv.qmatrix", "op_norm_est"),
    ("quatpinv.factor", "thin_qr"),
    ("quatpinv.factor", "solve_upper_triangular"),
    ("quatpinv.factor", "hpd_solve"),
    ("quatpinv.factor", "qsvd"),
    ("quatpinv.factor", "pinv_normal_eq"),
    ("quatpinv.solvers", "auto_alpha"),
    ("quatpinv.solvers", "penrose_residuals"),
    ("quatpinv.solvers", "eval_neumann_poly"),
    ("quatpinv.apps.fftpack", "fft2"),
    ("quatpinv.apps.fftpack", "ifft2"),
    ("quatpinv.apps.lorenz", "lorenz_build"),
    ("quatpinv.apps.lorenz", "lorenz_solve_ns"),
    ("quatpinv.apps.deblur", "scalar_ns_reciprocal"),
    ("quatpinv.apps.deblur", "blur_and_noise"),
    ("quatpinv.apps.completion", "cur_reconstruct"),
)

ROOT = "call"
QMATMUL = "_qops.qmatmul"


def qmatmul_flops(x, y) -> float:
    """Computed, not measured: 16 real (m,k)x(k,n) products, 2mkn each."""
    return 32.0 * x.shape[0] * x.shape[1] * y.shape[1]


def qmatmul_bytes(x, y) -> float:
    """Computed, not measured: read both operands, write the result once."""
    m, k, n = x.shape[0], x.shape[1], y.shape[1]
    return 32.0 * (m * k + k * n + m * n)


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        # (name index, start, end, parent span, call id, ok, flops, bytes)
        self.spans: list = []
        self._stack: list[int] = []
        self._call: int | None = None
        self._root_start = 0.0
        self._patches: list = []
        self._wrappers: list = []        # (original, wrapper), made once

    # -- root spans ---------------------------------------------------------

    def begin_call(self, call_id: int) -> None:
        self._call = call_id
        self._stack = [len(self.spans)]
        self.spans.append(None)
        self._root_start = time.perf_counter()

    def end_call(self, ok: bool) -> None:
        end = time.perf_counter()
        sid = self._stack[0]
        self.spans[sid] = (0, self._root_start, end, -1, self._call, ok, 0.0,
                           0.0)
        self._call = None
        self._stack = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, tracer = self.spans, self
        counted = name == QMATMUL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._call is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                flops = qmatmul_flops(*args) if counted else 0.0
                nbytes = qmatmul_bytes(*args) if counted else 0.0
                spans[sid] = (idx, start, end, parent, tracer._call, ok,
                              flops, nbytes)
        return wrapper

    def install(self) -> None:
        pkg = [m for n, m in list(sys.modules.items()) if m is not None
               and (n == "quatpinv" or n.startswith("quatpinv."))]
        if not self._wrappers:
            for modname, attr in TARGETS:
                original = getattr(sys.modules[modname], attr)
                name = f"{modname.removeprefix('quatpinv.')}.{attr}"
                self._wrappers.append((original, self._wrap(name, original)))
        for original, wrapper in self._wrappers:
            for mod in pkg:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def table(self) -> dict:
        """Span columns as numpy arrays, with each span's self time."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 8
        name, start, end, parent, call, ok, flops, nbytes = (
            np.asarray(c) for c in cols)
        parent = parent.astype(np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return {"name": name.astype(np.int64), "start": start, "end": end,
                "parent": parent, "call": call.astype(np.int64),
                "ok": ok.astype(bool), "flops": flops, "bytes": nbytes,
                "dur": dur, "self": dur - child}

    def save(self, path) -> None:
        t = self.table()
        np.savez(path, names=np.array(self.names),
                 **{k: t[k] for k in ("name", "start", "end", "parent", "call",
                                      "ok", "flops", "bytes")})
