"""Nonblind color deblurring with Tikhonov regularization in the FFT basis.

Under circular boundary conditions the blur operator diagonalizes in the
2-D FFT, so the regularized normal equations reduce to one real scalar
T = |h_hat|^2 + lambda per frequency. That scalar is inverted pointwise
by the Newton-Schulz recursion y <- y (2 - T y), and the restored
spectrum is y * conj(h_hat) * B_hat; the closed-form division
conj(h_hat)*B_hat / T is kept as the parity oracle.

Every image here is real, so every spectrum is the half spectrum of the
real FFT pair (fftpack.rfft2 / irfft2), the three color channels in one
call: the PSF spectrum, the blur, and both restorations. T is symmetric,
T(-f) = T(f), so the half spectrum holds every value of T and the
reciprocal takes the iterations it takes on the whole one.

The blur, the noise and both restorations run on channel-major (3, H, W)
planes, copied once from the image's i, j, k parts, so that every
transformed row is contiguous: on (H, W, 3) arrays the rows are strided
by the channel axis, and a 128 x 128 x 3 forward transform took 397 us
instead of 222 us (2-core VM, one BLAS thread), with the same bits. The
observation and the closed-form restoration are handed out as (H, W, 3)
transposed views, and the PSNRs and norms sum in that order, so every
result keeps the bits of the channel-last pipeline. The planes live only
through the blur, and the spectrum of the restorations only until both
are formed: the fewer arrays a call holds at once, the fewer fresh
pages it faults in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .._loop import _drive, _require_count
from ..qmatrix import QMatrix, require_pow2
from ..rng import QuatRNG
from .fftpack import irfft2, rfft2
from .images import image_to_qmat, psnr


@dataclass
class DeblurProblem:
    image: QMatrix            # H x W quaternion field, channels on i, j, k
    psf_radius: int = 4
    psf_sigma: float = 1.0
    snr_db: float = 30.0
    lam: float = 0.05
    tol: float = 1e-6
    maxit: int = 200
    seed: int = 0

    def __post_init__(self):
        h, w = self.image.shape
        require_pow2(h)
        require_pow2(w)
        _require_count("psf_radius", self.psf_radius, 0)
        _require_count("maxit", self.maxit, 0)
        # each test is written so that NaN fails it
        if not self.psf_sigma > 0:
            raise ValueError("psf_sigma must be > 0")
        size = 2 * self.psf_radius + 1
        if size > min(h, w):
            raise ValueError(f"the {size}x{size} PSF does not fit the "
                             f"{h}x{w} frame")
        if not 0.0 < self.lam < math.inf:
            raise ValueError("lambda must be a finite float > 0")
        # blur_and_noise divides by 10^(snr_db / 10), which must be a
        # float > 0 and finite: about -3236 < snr_db < 3082, or inf for no
        # noise
        if self.snr_db != math.inf:
            try:
                ratio = 10.0 ** (self.snr_db / 10.0)
            except OverflowError:
                ratio = math.inf
            if not 0.0 < ratio < math.inf:
                raise ValueError("snr_db must be a float whose 10^(snr_db/10)"
                                 " is > 0 and finite (inf: no noise)")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError("tol must be a finite float >= 0")


def gaussian_psf(radius: int, sigma: float) -> np.ndarray:
    """(2r+1)^2 Gaussian kernel, symmetric, normalized to sum 1."""
    _require_count("radius", radius, 0)
    if not sigma > 0:
        raise ValueError("sigma > 0 required")
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-0.5 * (t / sigma) ** 2)
    k = np.outer(g, g)
    return k / k.sum()


def psf_spectrum(psf: np.ndarray, h: int, w: int) -> np.ndarray:
    """Embed the PSF in an h x w frame with its peak circularly shifted to
    (0, 0) (centering before the FFT prevents phase ramps), then transform:
    the (h, w // 2 + 1) half spectrum."""
    kh, kw = psf.shape
    frame = np.zeros((h, w))
    frame[:kh, :kw] = psf
    frame = np.roll(frame, (-(kh // 2), -(kw // 2)), axis=(0, 1))
    return rfft2(frame)


def blur_and_noise(planes: np.ndarray, h_hat: np.ndarray, snr_db: float,
                   seed: int) -> np.ndarray:
    """Circular convolution of every plane of a (3, H, W) stack by the PSF
    of half spectrum h_hat, in one transform pair, plus Gaussian noise at
    snr_db, drawn plane by plane: the (3, H, W) observation."""
    rng = QuatRNG(seed)
    _, h, w = planes.shape
    spec = rfft2(planes)
    spec *= h_hat
    out = irfft2(spec, (h, w))
    for c, blurred in enumerate(out):
        p_sig = float(np.mean(blurred ** 2))
        sigma_n = math.sqrt(p_sig / (10.0 ** (snr_db / 10.0)))
        if not math.isfinite(sigma_n):
            # the quotient overflows for snr_db near the bottom of the
            # range DeblurProblem accepts, which depends on the image
            raise ValueError(
                f"snr_db = {snr_db} sets the noise level of channel {c}, "
                f"sqrt({p_sig:.3e} / 10^(snr_db/10)), beyond float range")
        blurred += sigma_n * rng.normals((h, w))
    return out


def scalar_ns_reciprocal(T: np.ndarray, tol: float, maxit: int):
    """Pointwise Newton-Schulz reciprocal of a positive array.

    y0 is the scalar 2/(min T + max T); iterates until
    max |1 - T y| <= tol. Returns (y, iterations)."""
    y0 = np.full_like(T, 2.0 / (float(T.min()) + float(T.max())))

    def measure(y):
        Ty = T * y
        return float(np.max(np.abs(1.0 - Ty))), Ty

    y, _, report = _drive("ns-scalar", y0, lambda y, Ty: y * (2.0 - Ty),
                          measure, tol, maxit)
    return y, report.iterations


def deblur_fft_ns(problem: DeblurProblem):
    """Synthesize the blurred/noisy observation, then restore it twice:
    by the per-frequency Newton-Schulz route and by closed-form division.

    Returns (restored QMatrix, metrics dict); metrics include PSNR of
    both routes, their relative Frobenius gap, and the (H, W, 3)
    observation and closed-form restoration."""
    h, w = problem.image.shape
    psf = gaussian_psf(problem.psf_radius, problem.psf_sigma)
    h_hat = psf_spectrum(psf, h, w)
    # the image's i, j, k parts as (3, H, W) planes, one copy, held only
    # while the blur needs them
    observed = blur_and_noise(problem.image.data.transpose(2, 0, 1)[1:].copy(),
                              h_hat, problem.snr_db, problem.seed)

    t0 = time.perf_counter()
    T = np.abs(h_hat) ** 2 + problem.lam
    y, iters = scalar_ns_reciprocal(T, problem.tol, problem.maxit)
    num = rfft2(observed)
    num *= np.conj(h_hat)
    restored = irfft2(y * num, (h, w))
    num /= T
    closed = irfft2(num, (h, w))
    del num  # the spectrum is not held through the metrics
    wall = time.perf_counter() - t0

    rgb = problem.image.data[..., 1:]
    observed, restored, closed = (
        x.transpose(1, 2, 0) for x in (observed, restored, closed))
    denom = max(np.linalg.norm(np.ascontiguousarray(closed)), 1e-300)
    gap = np.linalg.norm(np.subtract(restored, closed, order="C"))
    metrics = {
        "psnr_ns": psnr(rgb, restored),
        "psnr_closed": psnr(rgb, closed),
        "psnr_observed": psnr(rgb, observed),
        "rel_gap": float(gap) / denom,
        "iterations": iters,
        "wall_time": wall,
        "observed": observed,
        "closed": closed,
    }
    return image_to_qmat(restored), metrics
