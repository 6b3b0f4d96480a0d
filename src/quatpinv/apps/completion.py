"""CUR reconstruction and impute-reconstruct matrix completion.

One completion round replaces the current fill-in with its CUR low-rank
reconstruction, then restores the observed entries exactly:

    X <- CUR(C_filled),   C_filled <- mask*M + (1 - mask)*X.

The middle factor comes either from the least-squares optimum
U = C^dagger A R^dagger or from the cross form U = W^dagger; the
pseudoinverse routine is injected so iterative and SVD-based solvers can
be benchmarked interchangeably.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .._loop import _require_count
from ..qmatrix import QMatrix
from ..rng import QuatRNG

MODE_U_OPT = "u-opt"
MODE_W_PINV = "w-pinv"

PinvFn = Callable[[QMatrix], QMatrix]


@dataclass
class CompletionProblem:
    M: QMatrix                 # observed data, unobserved entries zero
    mask: np.ndarray           # binary, same shape
    rank: int
    iters: int
    col_idx: Sequence[int]     # J, |J| = rank (duplicates allowed)
    row_idx: Sequence[int]     # I, |I| = rank

    def __post_init__(self):
        mask = np.asarray(self.mask)
        if mask.shape != self.M.shape:
            raise ValueError("mask shape differs from data shape")
        if not np.isin(mask, (0, 1)).all():
            raise ValueError("mask entries must be 0 or 1")
        if len(self.col_idx) != self.rank or len(self.row_idx) != self.rank:
            raise ValueError("index lists must have length rank")
        _require_count("iters", self.iters, 1)


def sample_cur_indices(m: int, n: int, r: int, seed: int):
    """Uniform sampling with replacement for row/column index lists."""
    rng = QuatRNG(seed)
    rows = rng.integers(0, m, r).tolist()
    cols = rng.integers(0, n, r).tolist()
    return rows, cols


def cur_reconstruct(Afilled: QMatrix, I: Sequence[int], J: Sequence[int],
                    mode: str, pinv_fn: PinvFn) -> QMatrix:
    """C U R with C = A[:, J], R = A[I, :]; U per mode."""
    C = Afilled.take_cols(J)
    R = Afilled.take_rows(I)
    if mode == MODE_U_OPT:
        U = pinv_fn(C) @ Afilled @ pinv_fn(R)
    elif mode == MODE_W_PINV:
        W = R.take_cols(J)
        U = pinv_fn(W)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return C @ U @ R


def complete(problem: CompletionProblem, pinv_fn: PinvFn,
             mode: str = MODE_U_OPT):
    """Run the impute-reconstruct rounds.

    Returns (X, history) where history[k] is the observed-entry residual
    ||mask*(X - M)||_F after round k. Observed entries of the next
    fill-in are restored bitwise from M each round.
    """
    mask = np.asarray(problem.mask, dtype=np.float64)
    observed = problem.M.mask(mask)
    unobserved = 1.0 - mask
    C = problem.M.copy()
    X = C
    history = []
    for _ in range(problem.iters):
        X = cur_reconstruct(C, problem.row_idx, problem.col_idx, mode, pinv_fn)
        history.append((X - problem.M).mask(mask).fro_norm())
        C = observed + X.mask(unobserved)
    return X, history
