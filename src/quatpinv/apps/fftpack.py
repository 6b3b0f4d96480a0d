"""Power-of-two FFTs over numpy.fft.

Transforms are unnormalized forward; the inverse divides by the length,
so round trips are exact up to rounding and Parseval reads
||x||^2 = ||fft(x)||^2 / N. Every transformed length must be a power of
two, as the deblurring pipeline requires.
"""

from __future__ import annotations

import numpy as np

from ..qmatrix import require_pow2


def _checked(x, axes) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    for axis in axes:
        require_pow2(x.shape[axis])
    return x


def fft1(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """1-D FFT along the given axis."""
    return np.fft.fft(_checked(x, (axis,)), axis=axis)


def ifft1(x: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.fft.ifft(_checked(x, (axis,)), axis=axis)


def fft2(x: np.ndarray) -> np.ndarray:
    """2-D FFT of an (H, W) array; both dims must be powers of two."""
    return np.fft.fft2(_checked(x, (0, 1)), axes=(0, 1))


def ifft2(x: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(_checked(x, (0, 1)), axes=(0, 1))
