"""Benchmark command line: solver grids, recurrence checks, and the three
application pipelines, all emitting deterministic CSV (wall_s excepted).

Subcommands
    pinv-bench       solver grid over (n+20) x n random instances
    rsp-bench        sketch-and-project grid with sketch flags
    recurrence-check per-iteration deviation from the exact residual recurrences
    cur-complete     impute-reconstruct completion on seeded rank-5 data
    lorenz           Toeplitz filter identification via the square NS solver
    deblur           FFT deblurring parity run, writes PPM triplets

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .errors import QuatpinvError
from .factor import pinv_normal_eq, pinv_qsvd
from .qmatrix import QMatrix, randn_qmat
from .rng import QuatRNG
from .solvers import (SCHEDULES, SketchConfig, SolverConfig, cgne_q,
                      hybrid_rsp_ns, ns_damped, ns_hyperpower,
                      penrose_residuals, recurrence_deviations, rsp_column,
                      rsp_row)

SOLVER_HEADER = "method,m,n,seed,iters,wall_s,e1,e2,e3,e4,final_residual"
APP_HEADER = "app,param-set,iters,wall_s,psnr_db,residual"
RECURRENCE_HEADER = "variant,param,iter,deviation"


def _solver_row(method, A, seed, iters, wall, penrose=(np.nan,) * 4,
                final=np.nan):
    """One SOLVER_HEADER row; a failed run's row has iters -1, the seconds
    it ran for and nan residuals."""
    return (f"{method},{A.rows},{A.cols},{seed},{iters},{wall:.6f},"
            + ",".join(f"{e:.17g}" for e in (*penrose, final)))


PINV_METHODS = ("ns", "hyperpower", "cgne", "rsp", "hybrid",
                "qsvd-baseline", "normal-eq")

GNUPLOT_TEMPLATE = """\
# gnuplot script template for {csv}
set datafile separator ","
set key autotitle columnhead
set logscale y
set xlabel "n"
set ylabel "final residual"
plot "{csv}" using 3:11 with points
"""


def _csv_list(text, cast):
    try:
        return [cast(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _write_lines(path, lines):
    if path is None or path == "-":
        sys.stdout.write("\n".join(lines) + "\n")
        return
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _solver_cfg(args):
    return SolverConfig(gamma=args.gamma, order=args.order,
                        schedule=args.schedule, tol=args.tol,
                        maxit=args.maxit)


def _timed_baseline(name, fn, A, seed):
    t0 = time.perf_counter()
    X = fn(A)
    wall = time.perf_counter() - t0
    e = penrose_residuals(A, X)
    return _solver_row(name, A, seed, 0, wall, e, max(e))


def _run_method(method, A, args, seed):
    cfg = _solver_cfg(args)
    sk = SketchConfig(block_r=args.block_r, test_s=args.test_s,
                      cycle_T=args.cycle_T, seed=seed)
    if method == "ns":
        _, rep = ns_damped(A, cfg)
    elif method == "hyperpower":
        _, rep = ns_hyperpower(A, cfg)
    elif method == "cgne":
        _, rep = cgne_q(A, cfg)
    elif method == "rsp":
        if A.rows >= A.cols:
            _, rep = rsp_column(A, cfg, sk)
        else:
            _, rep = rsp_row(A, cfg, sk)
    elif method == "hybrid":
        _, rep = hybrid_rsp_ns(A, cfg, sk)
    elif method == "qsvd-baseline":
        return _timed_baseline("qsvd-baseline", pinv_qsvd, A, seed)
    elif method == "normal-eq":
        return _timed_baseline("normal-eq", pinv_normal_eq, A, seed)
    else:
        raise QuatpinvError(f"unknown method {method!r}")
    return _solver_row(rep.method, A, seed, rep.iterations, rep.wall_time,
                       rep.penrose, rep.final_residual)


def cmd_pinv_bench(args):
    lines = [SOLVER_HEADER]
    methods = PINV_METHODS if args.method == "all" else [args.method]
    for n in args.sizes:
        for seed in args.seeds:
            A = randn_qmat(n + 20, n, seed)
            for method in methods:
                t0 = time.perf_counter()
                try:
                    lines.append(_run_method(method, A, args, seed))
                except QuatpinvError:
                    # failed run: sentinel row, grid continues
                    lines.append(_solver_row(method, A, seed, -1,
                                             time.perf_counter() - t0))
    _write_lines(args.out, lines)
    if args.out and args.out != "-":
        with open(args.out + ".gp", "w") as fh:
            fh.write(GNUPLOT_TEMPLATE.format(csv=os.path.basename(args.out)))
    return 0


def cmd_recurrence_check(args):
    if len(args.seeds) > 1:
        raise ValueError("recurrence-check runs one seed; its CSV has no "
                         "seed column")
    lines = [RECURRENCE_HEADER]
    seed = args.seeds[0]
    A = randn_qmat(10, 6, seed)
    for gamma in (0.5, 1.0):
        cfg = SolverConfig(gamma=gamma)
        for k, dev in recurrence_deviations(A, cfg, "ns", steps=args.maxit):
            lines.append(f"ns,{gamma:g},{k},{dev:.17g}")
    for p in (2, 3, 4, 8):
        cfg = SolverConfig(order=p)
        for k, dev in recurrence_deviations(A, cfg, "hyperpower", steps=6):
            lines.append(f"hyperpower,{p},{k},{dev:.17g}")
    _write_lines(args.out, lines)
    return 0


def _qmat_to_unit_rgb(A: QMatrix) -> np.ndarray:
    rgb = A.data[..., 1:]
    lo, hi = rgb.min(), rgb.max()
    return (rgb - lo) / (hi - lo) if hi > lo else np.zeros_like(rgb)


def cmd_cur_complete(args):
    from .apps.completion import (MODE_U_OPT, MODE_W_PINV, CompletionProblem,
                                  complete, sample_cur_indices)
    from .apps.images import write_ppm

    mode = MODE_W_PINV if args.method == "w-pinv" else MODE_U_OPT
    lines = [APP_HEADER]
    for n in args.sizes:
        for seed in args.seeds:
            G = randn_qmat(n, 5, seed)
            H = randn_qmat(n, 5, seed + 1000)
            A = G @ H.adjoint()
            row_idx, col_idx = sample_cur_indices(n, n, 5, 2)
            mask = (QuatRNG(5).uniform((n, n)) > 0.7).astype(float)
            prob = CompletionProblem(M=A.mask(mask), mask=mask, rank=5,
                                     iters=args.maxit, col_idx=col_idx,
                                     row_idx=row_idx)
            t0 = time.perf_counter()
            X, history = complete(prob, pinv_normal_eq, mode)
            wall = time.perf_counter() - t0
            tag = f"n={n};seed={seed};mode={mode};missing=0.7;rank=5"
            for k, res in enumerate(history):
                lines.append(f"cur-complete,{tag},{k},{wall:.6f},nan,"
                             f"{res:.17g}")
            if args.out and args.out != "-":
                stem = os.path.splitext(args.out)[0] + f"_n{n}_s{seed}"
                write_ppm(stem + "_original.ppm", _qmat_to_unit_rgb(A))
                write_ppm(stem + "_masked.ppm",
                          _qmat_to_unit_rgb(A.mask(mask)))
                write_ppm(stem + "_completed.ppm", _qmat_to_unit_rgb(X))
    _write_lines(args.out, lines)
    return 0


def cmd_lorenz(args):
    from .apps.lorenz import LorenzProblem, lorenz_build, lorenz_solve_ns

    lines = [APP_HEADER]
    for N in args.sizes:
        for seed in args.seeds:
            prob = LorenzProblem(N=N, seed=seed)
            X, Y, _ = lorenz_build(prob)
            w, rep = lorenz_solve_ns(X, Y, tol=args.tol, maxit=args.maxit)
            tag = f"N={N};seed={seed};tol={args.tol:g}"
            lines.append(f"lorenz,{tag},{rep.iterations},"
                         f"{rep.wall_time:.6f},nan,"
                         f"{rep.final_residual:.17g}")
    _write_lines(args.out, lines)
    return 0


def cmd_deblur(args):
    from .apps.deblur import DeblurProblem, deblur_fft_ns
    from .apps.images import image_to_qmat, qmat_to_image, synthetic_image, write_ppm

    lines = [APP_HEADER]
    for N in args.sizes:
        for seed in args.seeds:
            img = image_to_qmat(synthetic_image(N, seed=1))
            prob = DeblurProblem(image=img, psf_radius=args.psf_radius,
                                 psf_sigma=args.psf_sigma, snr_db=args.snr_db,
                                 lam=args.lam, tol=args.tol,
                                 maxit=args.maxit, seed=seed)
            restored, metrics = deblur_fft_ns(prob)
            tag = (f"N={N};seed={seed};lambda={args.lam:g};"
                   f"psf_radius={args.psf_radius};psf_sigma={args.psf_sigma:g};"
                   f"snr_db={args.snr_db:g}")
            lines.append(f"deblur,{tag},{metrics['iterations']},"
                         f"{metrics['wall_time']:.6f},"
                         f"{metrics['psnr_ns']:.17g},"
                         f"{metrics['rel_gap']:.17g}")
            if args.out and args.out != "-":
                stem = os.path.splitext(args.out)[0] + f"_N{N}_s{seed}"
                write_ppm(stem + "_original.ppm", qmat_to_image(img))
                write_ppm(stem + "_blurred.ppm",
                          np.clip(metrics["observed"], 0.0, 1.0))
                write_ppm(stem + "_restored.ppm",
                          np.clip(qmat_to_image(restored), 0.0, 1.0))
    _write_lines(args.out, lines)
    return 0


def _add_flags(p, maxit, sizes=None, tol=None, solver=False):
    """The flags a command reads: --seeds, --maxit and --out always,
    --sizes and --tol where it has a default, and the solver flags
    with solver."""
    if sizes is not None:
        p.add_argument("--sizes", type=lambda s: _csv_list(s, int),
                       default=sizes)
    p.add_argument("--seeds", type=lambda s: _csv_list(s, int), default=[0])
    if solver:
        p.add_argument("--gamma", type=float, default=1.0)
        p.add_argument("--order", type=int, default=2)
        p.add_argument("--schedule", choices=SCHEDULES, default="naive")
        p.add_argument("--block-r", type=int, default=8)
        p.add_argument("--test-s", type=int, default=5)
        p.add_argument("--cycle-T", type=int, default=5)
    if tol is not None:
        p.add_argument("--tol", type=float, default=tol)
    p.add_argument("--maxit", type=int, default=maxit)
    p.add_argument("--out", default="-")


def build_parser():
    parser = argparse.ArgumentParser(prog="quatpinv",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pinv-bench", help="solver grid benchmark")
    _add_flags(p, 100, [20, 50, 100, 150, 200], 1e-8, solver=True)
    p.add_argument("--method", choices=PINV_METHODS + ("all",), default="ns")
    p.set_defaults(fn=cmd_pinv_bench)

    p = sub.add_parser("rsp-bench", help="sketch-and-project benchmark")
    _add_flags(p, 500, [20, 50], 1e-8, solver=True)
    p.set_defaults(fn=cmd_pinv_bench, method="rsp")

    p = sub.add_parser("recurrence-check", help="residual recurrence check")
    _add_flags(p, 12)
    p.set_defaults(fn=cmd_recurrence_check)

    p = sub.add_parser("cur-complete", help="CUR completion pipeline")
    _add_flags(p, 25, [60])
    p.add_argument("--method", choices=["u-opt", "w-pinv"], default="u-opt")
    p.set_defaults(fn=cmd_cur_complete, seeds=[4])

    p = sub.add_parser("lorenz", help="Lorenz filter pipeline")
    _add_flags(p, 80, [50], 1e-6)
    p.set_defaults(fn=cmd_lorenz)

    p = sub.add_parser("deblur", help="FFT deblurring pipeline")
    _add_flags(p, 200, [64], 1e-13)
    p.add_argument("--lambda", dest="lam", type=float, default=0.05)
    p.add_argument("--psf-radius", type=int, default=4)
    p.add_argument("--psf-sigma", type=float, default=1.0)
    p.add_argument("--snr-db", type=float, default=30.0)
    p.set_defaults(fn=cmd_deblur)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sizes", None) == []:
        parser.error("--sizes must name at least one size")
    if not args.seeds:
        parser.error("--seeds must name at least one seed")
    try:
        return args.fn(args)
    except ValueError as exc:
        # a parameter value the command, the solvers or the app problems
        # reject
        parser.error(str(exc))
    except QuatpinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
