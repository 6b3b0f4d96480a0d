"""Seedable random number generation.

Uniform bits come from numpy's PCG64; standard normals are produced by an
explicit Box-Muller transform on those uniforms so the generation algorithm
is pinned here and reproducible across platforms and numpy versions.
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

    def normals(self, shape) -> np.ndarray:
        """Standard normal array of the given shape via Box-Muller."""
        n = math.prod(shape)
        pairs = (n + 1) // 2
        # guard against log(0)
        u1 = 1.0 - self._gen.random(pairs)
        u2 = self._gen.random(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2),
                            r * np.sin(2.0 * np.pi * u2)])
        return z[:n].reshape(shape)

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        return self._gen.integers(low, high, size=size)
