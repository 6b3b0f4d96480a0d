import functools
import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from quatpinv.errors import DimensionMismatch, NonFinite, NonPowerOfTwo
from quatpinv.factor import pinv_normal_eq
from quatpinv.qmatrix import QMatrix, randn_qmat
from quatpinv.rng import QuatRNG
from quatpinv.apps.completion import (MODE_U_OPT, MODE_W_PINV,
                                      CompletionProblem, complete,
                                      cur_reconstruct, sample_cur_indices)
from quatpinv.apps import deblur
from quatpinv.apps.deblur import (DeblurProblem, blur_and_noise, deblur_fft_ns,
                                  gaussian_psf, psf_spectrum,
                                  scalar_ns_reciprocal)
from quatpinv.apps.fftpack import fft2, ifft2, irfft2, rfft2
from quatpinv.apps.images import (PSNR_CAP_DB, image_to_qmat, psnr,
                                  qmat_to_image, synthetic_image, write_ppm)
from quatpinv.apps.lorenz import (LorenzProblem, lorenz_build, lorenz_rk4,
                                  lorenz_solve_ns)


# ---------------------------------------------------------------------------
# FFT
# ---------------------------------------------------------------------------

def test_fft_delta_flat_spectrum():
    x = np.zeros((8, 16))
    x[0, 0] = 1.0
    assert np.allclose(fft2(x), np.ones((8, 16)), atol=1e-14)


def test_fft_matches_numpy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 64)) + 1j * rng.normal(size=(4, 64))
    assert np.abs(fft2(x) - np.fft.fft2(x)).max() <= 1e-12


def test_fft_roundtrip_and_parseval():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, 16))
    X = fft2(x)
    assert np.abs(ifft2(X) - x).max() <= 1e-12
    assert abs(np.sum(np.abs(x) ** 2) - np.sum(np.abs(X) ** 2) / 128) <= 1e-10


def test_fft2_matches_numpy():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(16, 32))
    assert np.abs(fft2(x) - np.fft.fft2(x)).max() <= 1e-11
    assert np.abs(ifft2(fft2(x)) - x).max() <= 1e-12


def test_fft_rejects_non_pow2():
    for shape in ((12, 16), (16, 12)):
        with pytest.raises(NonPowerOfTwo):
            fft2(np.zeros(shape))
        with pytest.raises(NonPowerOfTwo):
            ifft2(np.zeros(shape))


@pytest.mark.parametrize("shape", [(8, 16), (16, 8, 3), (8, 2, 3), (8, 1),
                                   (1, 4, 2)])
def test_rfft2_is_the_half_of_fft2(shape):
    # each channel of an (H, W, C) stack is transformed on its own
    x = np.random.default_rng(3).normal(size=shape)
    half = rfft2(x)
    w = shape[1]
    assert half.shape == (shape[0], w // 2 + 1) + shape[2:]
    assert np.abs(half - fft2(x)[:, :w // 2 + 1]).max() <= 1e-12
    assert np.abs(irfft2(half, shape[:2]) - x).max() <= 1e-12


def test_rfft2_rejects_non_pow2_and_mismatched_spectra():
    for shape in ((12, 16), (16, 12, 3)):
        with pytest.raises(NonPowerOfTwo):
            rfft2(np.zeros(shape))
        with pytest.raises(NonPowerOfTwo):
            irfft2(np.zeros((shape[0], shape[1] // 2 + 1), complex),
                   shape[:2])
    half = rfft2(np.zeros((8, 4)))
    for s in ((8, 8), (4, 4), (16, 4)):
        with pytest.raises(ValueError):
            irfft2(half, s)


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------

def test_image_qmat_roundtrip():
    img = synthetic_image(16, seed=0)
    A = image_to_qmat(img)
    assert np.all(A.data[..., 0] == 0.0)
    assert np.array_equal(qmat_to_image(A), img)


def test_psnr_values():
    a = np.zeros((4, 4, 3))
    assert psnr(a, a) == PSNR_CAP_DB
    b = np.full((4, 4, 3), 0.5)
    # MSE = 0.25 -> 10*log10(4) ~ 6.0206 dB
    assert psnr(a, b) == pytest.approx(6.0206, abs=1e-3)


def test_ppm_roundtrip(tmp_path):
    img = synthetic_image(9, seed=2)[:, :7]
    path = tmp_path / "img.ppm"
    write_ppm(path, img)
    raw = path.read_bytes()
    header = b"P6\n7 9\n255\n"
    assert raw.startswith(header)
    body = np.frombuffer(raw[len(header):], dtype=np.uint8)
    assert body.size == 9 * 7 * 3
    assert np.abs(body.reshape(9, 7, 3) / 255.0 - img).max() <= \
        0.5 / 255 + 1e-12


# ---------------------------------------------------------------------------
# CUR completion
# ---------------------------------------------------------------------------

def rank5(n, seed):
    return randn_qmat(n, 5, seed) @ randn_qmat(n, 5, seed + 1000).adjoint()


def test_cur_exact_on_low_rank():
    A = rank5(60, 0)
    I, J = sample_cur_indices(60, 60, 5, 2)
    for mode in (MODE_U_OPT, MODE_W_PINV):
        X = cur_reconstruct(A, I, J, mode, pinv_normal_eq)
        assert (X - A).fro_norm() <= 1e-8 * A.fro_norm()


def test_sample_cur_indices_deterministic():
    assert sample_cur_indices(60, 60, 5, 3) == sample_cur_indices(60, 60, 5, 3)
    I, J = sample_cur_indices(60, 60, 5, 3)
    assert len(I) == len(J) == 5
    assert all(0 <= i < 60 for i in I + J)


def test_complete_mask_all_ones():
    A = rank5(20, 1)
    mask = np.ones((20, 20))
    I, J = [0, 4, 8, 12, 16], [1, 5, 9, 13, 17]
    prob = CompletionProblem(M=A, mask=mask, rank=5, iters=3,
                             col_idx=J, row_idx=I)
    X, history = complete(prob, pinv_normal_eq)
    assert (X - A).fro_norm() <= 1e-8 * A.fro_norm()
    assert history[0] <= 1e-8 * A.fro_norm()


def test_complete_restores_observed_bitwise():
    A = rank5(20, 3)
    mask = (QuatRNG(4).uniform((20, 20)) > 0.5).astype(float)
    I, J = [0, 4, 8, 12, 16], [1, 5, 9, 13, 17]
    prob = CompletionProblem(M=A.mask(mask), mask=mask, rank=5, iters=2,
                             col_idx=J, row_idx=I)
    X, _ = complete(prob, pinv_normal_eq)
    # replay one round to observe the imputation input
    C = prob.M.mask(mask) + X.mask(1.0 - mask)
    assert np.array_equal(C.mask(mask).data, prob.M.mask(mask).data)


def test_completion_problem_validation():
    A = rank5(10, 7)
    with pytest.raises(ValueError):
        CompletionProblem(M=A, mask=np.ones((9, 10)), rank=5, iters=1,
                          col_idx=[0] * 5, row_idx=[0] * 5)
    with pytest.raises(ValueError):
        CompletionProblem(M=A, mask=np.full((10, 10), 0.5), rank=5, iters=1,
                          col_idx=[0] * 5, row_idx=[0] * 5)
    with pytest.raises(ValueError):
        CompletionProblem(M=A, mask=np.ones((10, 10)), rank=5, iters=1,
                          col_idx=[0, 1], row_idx=[0] * 5)
    # iters 0 or -1 once returned an empty history, and cur-complete wrote
    # a header-only CSV
    for iters in (0, -1):
        with pytest.raises(ValueError):
            CompletionProblem(M=A, mask=np.ones((10, 10)), rank=5,
                              iters=iters, col_idx=[0] * 5, row_idx=[0] * 5)


@pytest.mark.parametrize("bad", [-1, 8])
def test_cur_index_out_of_range_is_rejected(bad):
    # on 8 x 8, column -1 once ran as column 7, and column 8 reached
    # numpy's IndexError
    A = rank5(8, 9)
    prob = CompletionProblem(M=A, mask=np.ones((8, 8)), rank=3, iters=1,
                             col_idx=[0, 1, bad], row_idx=[0, 1, 2])
    with pytest.raises(DimensionMismatch):
        complete(prob, pinv_normal_eq)
    for I, J in (([0, 1, 2], [0, 1, bad]), ([0, 1, bad], [0, 1, 2])):
        for mode in (MODE_U_OPT, MODE_W_PINV):
            with pytest.raises(DimensionMismatch):
                cur_reconstruct(A, I, J, mode, pinv_normal_eq)


# ---------------------------------------------------------------------------
# Lorenz
# ---------------------------------------------------------------------------

def test_lorenz_rk4_order():
    prob = LorenzProblem(T_end=1.0)
    coarse = lorenz_rk4(prob, 101)[-1]
    fine = lorenz_rk4(prob, 201)[-1]
    finer = lorenz_rk4(prob, 401)[-1]
    e1 = np.linalg.norm(coarse - finer)
    e2 = np.linalg.norm(fine - finer)
    # halving dt should shrink the error by roughly 2^4
    assert e2 < e1 / 8.0


def _lorenz_rk4_vector(p, samples):
    """RK4 on numpy 3-vectors, the form lorenz_rk4 must match bitwise."""
    dt = p.T_end / (samples - 1)

    def f(s):
        x, y, z = s
        return np.array([p.sigma_l * (y - x),
                         x * (p.rho_l - z) - y,
                         x * y - p.beta_l * z])

    out = np.empty((samples, 3))
    s = np.array([p.x0, p.y0, p.z0], dtype=np.float64)
    out[0] = s
    for k in range(1, samples):
        k1 = f(s)
        k2 = f(s + 0.5 * dt * k1)
        k3 = f(s + 0.5 * dt * k2)
        k4 = f(s + dt * k3)
        s = s + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k] = s
    return out


@pytest.mark.parametrize("prob,samples", [
    (LorenzProblem(), 100),
    (LorenzProblem(), 2),
    (LorenzProblem(T_end=1.0), 401),
    (LorenzProblem(T_end=3.0, sigma_l=9.5, beta_l=2.5, rho_l=30.0, x0=-2.0,
                   y0=0.5, z0=20.0), 257),
], ids=["default", "two-samples", "short", "other-parameters"])
def test_lorenz_rk4_bitwise_equal_vector_form(prob, samples):
    assert (lorenz_rk4(prob, samples).tobytes()
            == _lorenz_rk4_vector(prob, samples).tobytes())


def test_lorenz_trajectory_bounded():
    traj = lorenz_rk4(LorenzProblem(), 200)
    assert np.abs(traj).max() < 100.0


def test_lorenz_build_toeplitz():
    X, Y, truth = lorenz_build(LorenzProblem(N=8, T_end=1.0))
    assert X.shape == (8, 8) and Y.shape == (8, 1)
    assert np.all(X.data[..., 0] == 0.0) and np.all(Y.data[..., 0] == 0.0)
    d = X.data
    for p in range(1, 8):
        for q in range(1, 8):
            assert np.array_equal(d[p, q], d[p - 1, q - 1])


@pytest.mark.parametrize("N", [2, 50])
def test_lorenz_build_matches_loop(N):
    # the Toeplitz block is bitwise the entry-by-entry loop over the
    # returned input signal
    X, _, sig = lorenz_build(LorenzProblem(N=N, T_end=0.1 * N, seed=3))
    ref = np.zeros((N, N, 4))
    for p in range(N):
        for q in range(N):
            ref[p, q, 1:] = sig["x"][N - 1 + p - q]
    assert X.data.tobytes() == ref.tobytes()


@pytest.mark.parametrize("N", [2, 10, 30])
def test_lorenz_build_unstable_rk4_step_raises(N):
    # at T_end = 10 the RK4 step 10 / (2N - 1) is too large for every
    # N <= 30, and the build once returned a NaN X without an error
    with pytest.raises(NonFinite, match=f"RK4 step {10 / (2 * N - 1):.4g} "):
        lorenz_build(LorenzProblem(N=N))


def test_lorenz_build_n50_bits():
    # the finiteness check leaves the system the CLI and the benchmark
    # build bitwise as it was
    X, Y, _ = lorenz_build(LorenzProblem(N=50))
    digest = hashlib.sha256(X.data.tobytes() + Y.data.tobytes()).hexdigest()
    assert digest[:16] == "8ae2ff56156b5c8e"


def test_lorenz_solve():
    X, Y, _ = lorenz_build(LorenzProblem(N=20, T_end=2.0))
    w, rep = lorenz_solve_ns(X, Y, tol=1e-8, maxit=60)
    assert rep.converged
    assert (X @ w - Y).fro_norm() / Y.fro_norm() <= 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_lorenz_solve_scaled_iterations(seed):
    # scaled steps take 21-23 iterations here, unscaled ones took 33-35
    X, Y, _ = lorenz_build(LorenzProblem(N=50, seed=seed))
    w, rep = lorenz_solve_ns(X, Y, tol=1e-6, maxit=80)
    assert rep.converged and rep.iterations <= 24
    assert (X @ w - Y).fro_norm() / Y.fro_norm() <= 1e-6


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_lorenz_solve_probe_overflow_raises_non_finite(scale):
    # X^H X overflows in the Lanczos run, where numpy's eigvalsh once
    # raised its own LinAlgError
    X, Y, _ = lorenz_build(LorenzProblem(N=20, T_end=2.0))
    with np.errstate(all="ignore"), pytest.raises(NonFinite):
        lorenz_solve_ns(X.scale(scale), Y)


def test_lorenz_problem_validation():
    with pytest.raises(ValueError):
        LorenzProblem(N=1)


# a non-integral count once raised an untyped TypeError from range, or ran:
# N = 10.5 was accepted and psf_radius = 1.5 gave a 4x4, off-centre PSF;
# numpy's integers are counts too
def test_lorenz_n_must_be_integral():
    with pytest.raises(ValueError, match="N must be an integer >= 2"):
        LorenzProblem(N=10.5)
    assert LorenzProblem(N=np.int64(10)).N == 10


def test_lorenz_solve_maxit_must_be_integral():
    X, Y, _ = lorenz_build(LorenzProblem(N=20, T_end=2.0))
    with pytest.raises(ValueError, match="maxit must be an integer >= 0"):
        lorenz_solve_ns(X, Y, maxit=3.5)
    assert lorenz_solve_ns(X, Y, maxit=np.int32(3))[1].iterations <= 3


def test_deblur_maxit_must_be_integral():
    img = image_to_qmat(synthetic_image(16, seed=0))
    with pytest.raises(ValueError, match="maxit must be an integer >= 0"):
        DeblurProblem(image=img, maxit=2.5)
    assert DeblurProblem(image=img, maxit=np.int64(2)).maxit == 2


def test_deblur_psf_radius_must_be_integral():
    img = image_to_qmat(synthetic_image(16, seed=0))
    with pytest.raises(ValueError, match="psf_radius must be an integer"):
        DeblurProblem(image=img, psf_radius=1.5)
    with pytest.raises(ValueError, match="radius must be an integer"):
        gaussian_psf(1.5, 1.0)


def test_completion_iters_must_be_integral():
    A = rank5(10, 7)
    with pytest.raises(ValueError, match="iters must be an integer >= 1"):
        CompletionProblem(M=A, mask=np.ones((10, 10)), rank=5, iters=2.5,
                          col_idx=[0] * 5, row_idx=[0] * 5)


# ---------------------------------------------------------------------------
# deblurring
# ---------------------------------------------------------------------------

def test_gaussian_psf_basics():
    assert np.array_equal(gaussian_psf(0, 1.0), np.array([[1.0]]))
    k = gaussian_psf(4, 1.0)
    assert k.shape == (9, 9)
    assert k.sum() == pytest.approx(1.0)
    assert np.array_equal(k, k[::-1, ::-1])
    assert k[4, 4] == k.max()


def test_psf_spectrum_identity_kernel():
    h = psf_spectrum(np.array([[1.0]]), 8, 8)
    assert np.abs(h - 1.0).max() <= 1e-14


def test_scalar_ns_reciprocal_hand_case():
    # T = {1, 3}: y0 = 0.5, one step -> y = y(2 - Ty) = {0.75, 0.25}
    T = np.array([1.0, 3.0])
    y, iters = scalar_ns_reciprocal(T, tol=1e-12, maxit=0)
    assert np.allclose(y, 0.5)
    y, _ = scalar_ns_reciprocal(T, tol=0.26, maxit=1)
    assert np.allclose(y, [0.75, 0.25])
    y, iters = scalar_ns_reciprocal(T, tol=1e-13, maxit=60)
    assert np.abs(T * y - 1.0).max() <= 1e-13


def test_deblur_parity_and_improvement():
    img = image_to_qmat(synthetic_image(32, seed=1))
    prob = DeblurProblem(image=img, lam=0.05, seed=0, tol=1e-13)
    restored, metrics = deblur_fft_ns(prob)
    assert metrics["rel_gap"] <= 1e-10
    assert abs(metrics["psnr_ns"] - metrics["psnr_closed"]) <= 0.01
    assert metrics["psnr_ns"] > 0.0
    assert restored.shape == (32, 32)


def test_deblur_identity_psf_high_snr():
    img = image_to_qmat(synthetic_image(16, seed=2))
    prob = DeblurProblem(image=img, psf_radius=0, psf_sigma=1.0,
                         snr_db=300.0, lam=1e-8, seed=0, tol=1e-13,
                         maxit=300)
    restored, metrics = deblur_fft_ns(prob)
    assert (restored - img).fro_norm() <= 1e-5 * img.fro_norm()


def test_deblur_large_lambda_shrinks():
    img = image_to_qmat(synthetic_image(16, seed=3))
    prob = DeblurProblem(image=img, lam=1e6, seed=0)
    restored, _ = deblur_fft_ns(prob)
    # T ~ lambda, so the restored spectrum is damped by ~1/lambda
    assert restored.fro_norm() <= 1e-4 * img.fro_norm()


@functools.cache
def _perfbench_closed_form():
    """perfbench's independent numpy closed form of the restoration, loaded
    by path (perfbench is not a package) under a name of its own, which its
    dataclasses need to find in sys.modules."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod._numpy_closed_form


@pytest.mark.parametrize("h, w", [(32, 16), (16, 32), (8, 2), (8, 1)])
def test_deblur_non_square_frames_match_numpy_closed_form(h, w):
    # the widest PSF that fits the frame: radius 4, or 0 on the thin ones
    rgb = np.random.default_rng(h + w).uniform(size=(h, w, 3))
    prob = DeblurProblem(image=image_to_qmat(rgb),
                         psf_radius=min(4, (min(h, w) - 1) // 2), lam=0.05,
                         seed=1, tol=1e-13)
    restored, metrics = deblur_fft_ns(prob)
    assert restored.shape == (h, w)
    assert metrics["observed"].shape == (h, w, 3)
    closed = _perfbench_closed_form()(prob, metrics["observed"])
    gap = np.linalg.norm(qmat_to_image(restored) - closed)
    assert gap <= 1e-10 * np.linalg.norm(closed)
    assert metrics["rel_gap"] <= 1e-10


def test_deblur_transform_counts(monkeypatch):
    # one batched transform pair for the blur; one forward and two inverse
    # transforms for both restorations, after the PSF's forward one
    calls = []
    for name in ("rfft2", "irfft2"):
        def counting(x, *args, _name=name, _fn=getattr(deblur, name)):
            calls.append((_name, np.shape(x)[2:]))
            return _fn(x, *args)
        monkeypatch.setattr(deblur, name, counting)
    img = image_to_qmat(synthetic_image(16, seed=2))
    rgb = qmat_to_image(img)
    blur_and_noise(rgb, psf_spectrum(gaussian_psf(1, 1.0), 16, 16), 30.0, 0)
    assert calls == [("rfft2", ()), ("rfft2", (3,)), ("irfft2", (3,))]
    calls.clear()
    deblur_fft_ns(DeblurProblem(image=img, psf_radius=1))
    assert calls == [("rfft2", ()), ("rfft2", (3,)), ("irfft2", (3,)),
                     ("rfft2", (3,)), ("irfft2", (3,)), ("irfft2", (3,))]


def test_deblur_validation():
    img = image_to_qmat(synthetic_image(16, seed=0))
    with pytest.raises(ValueError):
        DeblurProblem(image=img, lam=0.0)
    with pytest.raises(NonPowerOfTwo):
        DeblurProblem(image=image_to_qmat(synthetic_image(12, seed=0)))
    # a 9x9 PSF on an 8x8 frame once failed in numpy's broadcast
    with pytest.raises(ValueError, match="9x9 PSF does not fit the 8x8 frame"):
        DeblurProblem(image=image_to_qmat(synthetic_image(8, seed=0)),
                      psf_radius=4)
    with pytest.raises(ValueError, match="3x3 PSF does not fit the 8x2 frame"):
        DeblurProblem(image=QMatrix.zeros(8, 2), psf_radius=1)


@pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
def test_deblur_snr_db_must_be_a_number(snr_db):
    # a NaN snr_db once ran and reported a NaN PSNR and residual
    img = image_to_qmat(synthetic_image(16, seed=0))
    with pytest.raises(ValueError, match="snr_db"):
        DeblurProblem(image=img, psf_radius=2, snr_db=snr_db)
    assert DeblurProblem(image=img, psf_radius=2, snr_db=math.inf)


@pytest.mark.parametrize("snr_db", [-4000.0, 4000.0])
def test_deblur_snr_db_outside_the_noise_ratio_range(snr_db):
    # 10^(snr_db/10) underflows to 0 at -4000, where blur_and_noise once
    # raised ZeroDivisionError, and overflows at 4000 (OverflowError)
    img = image_to_qmat(synthetic_image(16, seed=0))
    with pytest.raises(ValueError, match="snr_db"):
        DeblurProblem(image=img, psf_radius=2, snr_db=snr_db)
    assert DeblurProblem(image=img, psf_radius=2, snr_db=snr_db / 2)


def test_deblur_noise_level_beyond_float_range():
    # at -3200 dB DeblurProblem accepts 10^(snr_db/10) = 1e-320, but the
    # noise level sqrt(p_sig / 1e-320) overflows; the CLI once exited with
    # only "math domain error"
    img = image_to_qmat(synthetic_image(16, seed=0))
    prob = DeblurProblem(image=img, psf_radius=2, snr_db=-3200.0)
    h_hat = psf_spectrum(gaussian_psf(2, 1.0), 16, 16)
    with pytest.raises(ValueError, match="snr_db = -3200.0 sets the noise"):
        blur_and_noise(qmat_to_image(img), h_hat, prob.snr_db, 0)
    with pytest.raises(ValueError, match="snr_db"):
        deblur_fft_ns(prob)


@pytest.mark.parametrize("psf_sigma", [0.0, -1.0, math.nan])
def test_deblur_psf_sigma_must_be_positive(psf_sigma):
    img = image_to_qmat(synthetic_image(16, seed=0))
    with pytest.raises(ValueError, match="psf_sigma"):
        DeblurProblem(image=img, psf_radius=2, psf_sigma=psf_sigma)
    with pytest.raises(ValueError, match="sigma"):
        gaussian_psf(2, psf_sigma)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
def test_deblur_lambda_must_be_finite_and_positive(lam):
    # a NaN or infinite lambda once ran into "residual nan at iteration 0"
    img = image_to_qmat(synthetic_image(16, seed=0))
    with pytest.raises(ValueError, match="lambda"):
        DeblurProblem(image=img, psf_radius=2, lam=lam)
