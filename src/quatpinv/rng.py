"""Seedable random number generation.

Uniform bits come from numpy's PCG64; standard normals are produced by an
explicit Box-Muller transform on those uniforms so the generation algorithm
is pinned here and reproducible across platforms and numpy versions. A block
of draws takes its uniforms in one call and is bitwise the draws made one
at a time.
"""

from __future__ import annotations

import math

import numpy as np


class QuatRNG:
    """PCG64-backed generator with Box-Muller normals."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def normals(self, shape, count: int | None = None) -> np.ndarray:
        """Standard normal array of the given shape via Box-Muller. With
        count, a (count, *shape) block from one uniform draw: item i is
        bitwise the i-th of count successive normals(shape) calls, and the
        generator ends where they leave it."""
        n = math.prod(shape)
        pairs = (n + 1) // 2
        u = self._gen.random((1 if count is None else count, 2, pairs))
        # guard against log(0)
        r = np.sqrt(-2.0 * np.log(1.0 - u[:, 0]))
        t = 2.0 * np.pi * u[:, 1]
        # each draw's normals, r cos t then r sin t, overwrite its uniforms
        np.multiply(r, np.cos(t), out=u[:, 0])
        np.multiply(r, np.sin(t), out=u[:, 1])
        z = u.reshape(len(u), -1)[:, :n]
        return z.reshape(shape if count is None else (count, *shape))

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return self._gen.integers(low, high, size=size)
