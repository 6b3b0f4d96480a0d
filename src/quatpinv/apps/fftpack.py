"""Power-of-two 2-D FFTs over numpy.fft.

Transforms run over the first two axes of an (H, W) array or of an
(H, W, C) stack of channels, all channels in one call. Forward transforms
are unnormalized; the inverse divides by H * W, so round trips are exact
up to rounding and Parseval reads ||x||^2 = ||fft2(x)||^2 / (H * W). Both
transformed lengths must be powers of two, as the deblurring pipeline
requires.

rfft2 and irfft2 are the real-data pair: rfft2 keeps the W // 2 + 1
nonnegative frequencies of the second axis, the rest being their complex
conjugates, and irfft2 takes the frame's (H, W), since numpy's default
width, 2 (columns - 1), is wrong for W = 1.
"""

from __future__ import annotations

import numpy as np

from ..qmatrix import require_pow2


def _checked(x, h: int, w: int, dtype) -> np.ndarray:
    require_pow2(h)
    require_pow2(w)
    return np.asarray(x, dtype=dtype)


def fft2(x: np.ndarray) -> np.ndarray:
    """2-D FFT of an (H, W) array; both dims must be powers of two."""
    x = _checked(x, *np.shape(x)[:2], np.complex128)
    return np.fft.fft2(x, axes=(0, 1))


def ifft2(x: np.ndarray) -> np.ndarray:
    x = _checked(x, *np.shape(x)[:2], np.complex128)
    return np.fft.ifft2(x, axes=(0, 1))


def rfft2(x: np.ndarray) -> np.ndarray:
    """Half spectrum, (H, W // 2 + 1[, C]), of a real (H, W[, C]) array."""
    x = _checked(x, *np.shape(x)[:2], np.float64)
    return np.fft.rfft2(x, axes=(0, 1))


def irfft2(x: np.ndarray, s: tuple[int, int]) -> np.ndarray:
    """The real (H, W[, C]) array, s = (H, W), whose half spectrum is x."""
    h, w = s
    if np.shape(x)[:2] != (h, w // 2 + 1):
        raise ValueError(f"the half spectrum of a frame of shape {s} has "
                         f"shape {(h, w // 2 + 1)}, not {np.shape(x)[:2]}")
    x = _checked(x, h, w, np.complex128)
    return np.fft.irfft2(x, s=s, axes=(0, 1))
