"""Power-of-two 2-D FFTs over numpy.fft.

Transforms are unnormalized forward; the inverse divides by H * W, so
round trips are exact up to rounding and Parseval reads
||x||^2 = ||fft2(x)||^2 / (H * W). Both transformed lengths must be powers
of two, as the deblurring pipeline requires.
"""

from __future__ import annotations

import numpy as np

from ..qmatrix import require_pow2


def _checked(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    for axis in (0, 1):
        require_pow2(x.shape[axis])
    return x


def fft2(x: np.ndarray) -> np.ndarray:
    """2-D FFT of an (H, W) array; both dims must be powers of two."""
    return np.fft.fft2(_checked(x), axes=(0, 1))


def ifft2(x: np.ndarray) -> np.ndarray:
    return np.fft.ifft2(_checked(x), axes=(0, 1))
