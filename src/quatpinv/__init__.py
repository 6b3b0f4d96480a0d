"""Quaternion-native dense linear algebra with iterative pseudoinverse solvers."""

import os as _os

# QUATPINV_THREADS caps BLAS parallelism (default 1, for reproducible
# single-threaded timings). Must land before numpy loads its BLAS, so it
# sits at the top of the package root; setdefault keeps explicit user
# settings intact.
_threads = _os.environ.get("QUATPINV_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    _os.environ.setdefault(_var, _threads)

from .qmatrix import QMatrix, op_norm_est, randn_qmat

__all__ = ["QMatrix", "randn_qmat", "op_norm_est"]
