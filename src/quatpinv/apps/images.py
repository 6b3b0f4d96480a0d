"""Quaternion color images, a PPM writer and PSNR.

A color image lives on the imaginary axes of an H x W quaternion field:
red on i, green on j, blue on k, real part zero. Pixel values are in
[0, 1] unless stated otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DimensionMismatch
from ..qmatrix import QMatrix

PSNR_CAP_DB = 200.0


def image_to_qmat(rgb: np.ndarray) -> QMatrix:
    """(H, W, 3) real array -> quaternion field with channels on i, j, k."""
    h, w, _ = rgb.shape
    d = np.zeros((h, w, 4))
    d[..., 1:] = rgb
    return QMatrix(d)


def qmat_to_image(A: QMatrix) -> np.ndarray:
    return A.data[..., 1:].copy()


def psnr(ref: np.ndarray, test: np.ndarray) -> float:
    """10*log10(1/MSE) at dynamic range 1.0 of two (H, W, 3) arrays;
    identical images cap at 200 dB."""
    ref = np.asarray(ref, dtype=np.float64)
    test = np.asarray(test, dtype=np.float64)
    if ref.shape != test.shape:
        raise DimensionMismatch(f"{ref.shape} vs {test.shape}")
    mse = float(np.mean((ref - test) ** 2))
    if mse <= 0.0:
        return PSNR_CAP_DB
    return min(10.0 * math.log10(1.0 / mse), PSNR_CAP_DB)


# ---------------------------------------------------------------------------
# PPM (P6) files
# ---------------------------------------------------------------------------

def write_ppm(path, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) array in [0, 1] as a binary P6 file."""
    h, w, _ = rgb.shape
    data = np.clip(np.round(rgb * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(data.tobytes())


def synthetic_image(n: int, seed: int = 0) -> np.ndarray:
    """Deterministic piecewise-smooth (n, n, 3) test image in [0, 1].

    Smooth color gradients plus a few hard-edged shapes, so blurring and
    completion experiments have both low-frequency and edge content.
    """
    y, x = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    u = x / max(n - 1, 1)
    v = y / max(n - 1, 1)
    r = 0.5 + 0.4 * np.sin(2 * np.pi * (u + 0.3 * v) + seed)
    g = 0.5 + 0.4 * np.cos(2 * np.pi * (v - 0.2 * u) + 0.7 * seed)
    b = 0.5 + 0.35 * np.sin(2 * np.pi * u * v + 1.3 * seed)
    img = np.stack([r, g, b], axis=-1)
    cx, cy, rad = 0.3 * n, 0.6 * n, 0.18 * n
    disk = (x - cx) ** 2 + (y - cy) ** 2 < rad ** 2
    img[disk] = [0.9, 0.2, 0.15]
    box = (x > 0.55 * n) & (x < 0.8 * n) & (y > 0.15 * n) & (y < 0.35 * n)
    img[box] = [0.1, 0.75, 0.9]
    return np.clip(img, 0.0, 1.0)
