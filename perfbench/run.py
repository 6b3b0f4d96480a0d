"""quatpinv benchmark: one single-threaded caller in a closed loop.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 26 --trace 0

The caller issues the next public library call only after the previous one
returns, times each call, then checks its result outside the timed window.
Calls run in rounds (one call per input and method, see workloads.py); a
run makes the number of rounds that takes ``--seconds`` at the workload's
nominal round time, so every run of a workload makes the same calls.

Every call's wall time is scaled to the nominal host speed by a speed
probe timed around it (``SpeedProbe``); the timing metrics are reported
at that speed, with the wall-clock figures beside them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced pass over each round and reports the per-layer split
from the traced pass (spans.py) and the tracing overhead. Both print every
metric with its unit, write a record with the environment, sample counts
and every failed call to ``perfbench/out/``, and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

``correct`` is false when a call raised something other than a
``QuatpinvError`` or presented a result as good that failed its check.
Calls that raised a ``QuatpinvError`` or reported no convergence and failed
their check are counted in ``failed``; they are the library's known
failures, not the benchmark's.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = "1"             # declared BLAS thread count (QUATPINV_THREADS)
SETUP_REPEATS = 5         # fresh processes timed for setup_s
TAIL_ABOVE = 10           # samples required above the reported tail
THREAD_VARS = ("QUATPINV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# the real (m, k, n) products behind the dense workload's quaternion products
REF_SHAPES = ((200, 220, 200), (200, 200, 220), (220, 200, 220),
              (220, 220, 200), (200, 200, 200), (220, 220, 220))
# the host-speed probe's median time on a 2-core x86 VM with one BLAS thread
PROBE_NOMINAL_S = 4.0e-3
PROBE_WINDOW = 2          # probes on each side of a call that scale its time


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("dense", "sketch", "apps", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(HERE / "out"),
                   help="directory for the record and the span file")
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the monotonic clock, exit "
                        "(used to time setup_s in a fresh process)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas():
    """The OpenBLAS numpy loaded, found in this process's memory map."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_threads_and_config():
    lib = _openblas()
    threads = config = None
    if lib is not None:
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if fn is not None and threads is None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                if cfg is not None and config is None:
                    cfg.restype = ctypes.c_char_p
                    config = cfg().decode()
    return threads, config


def _git_sha():
    if not (ROOT / ".git").exists():
        return None  # not a git checkout; do not report an enclosing repo
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(np, seed):
    threads, config = _blas_threads_and_config()
    env_vars = {v: os.environ.get(v) for v in THREAD_VARS}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_runtime_config": config,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "seed": seed,
        "declared_threads": int(THREADS),
        "effective_blas_threads": threads,
        "thread_vars_after_import": env_vars,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def dgemm_reference(np):
    """Real float64 GEMM rate at the dense workload's product shapes,
    median of 7 timings per shape; flops computed as 2mkn."""
    rng = np.random.default_rng(0)
    rows = []
    for m, k, n in REF_SHAPES:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            np.dot(a, b)
            times.append(time.perf_counter() - t0)
        gflops = 2.0 * m * k * n / statistics.median(times) / 1e9
        rows.append({"m": m, "k": k, "n": n, "gflops": gflops})
    return {"shapes": rows,
            "gflops": statistics.median(r["gflops"] for r in rows),
            "flops": "computed, 2*m*k*n per real product"}


class SpeedProbe:
    """A fixed slice of benchmark-owned work, timed between library calls.

    On a shared host a core's speed can change from second to second
    (Python-bound code by up to 2x on a shared 2-core x86 VM), which moves
    every timing with it. The probe mixes what the library's calls are
    made of -- Python bytecode, numpy calls on small and mid-sized arrays,
    a GEMM -- and touches no library code, so no change to the library
    moves it. ``to_nominal`` scales a call's time by the probe times
    around it to the nominal host speed, where the probe takes
    ``PROBE_NOMINAL_S``."""

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((8, 8))
        self.mid = rng.standard_normal((64, 64))
        self.big = rng.standard_normal((128, 128))
        self.np = np

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(12000):
            acc += i * i
        x = self.small
        for _ in range(200):
            x = (x @ self.small) * 0.125 + self.small
        for _ in range(8):
            self.big @ self.big
        y = self.mid
        for _ in range(60):
            y = self.np.sqrt(self.np.abs(y * 1.0001 + self.mid))
        return time.perf_counter() - t0


def to_nominal(wall_s, probes, sensitivity):
    """``wall_s`` at the nominal host speed, from the probe times around
    it: code that follows the probe at ``sensitivity`` (an exponent; BLAS-
    bound code follows it less than Python-bound code) is scaled by
    (nominal / probe) ** sensitivity."""
    return wall_s * (PROBE_NOMINAL_S
                     / statistics.median(probes)) ** sensitivity


def scale_to_nominal(records, probes, sensitivity) -> None:
    """Give each record ``s``, its ``wall_s`` at the nominal host speed.
    ``probes[i]`` ran just before call i, ``probes[-1]`` after the last;
    each call is scaled by the ``PROBE_WINDOW`` probes on each side."""
    for i, rec in enumerate(records):
        window = probes[max(0, i + 1 - PROBE_WINDOW): i + 1 + PROBE_WINDOW]
        rec["s"] = to_nominal(rec["wall_s"], window, sensitivity)


def set_up(name, seed, np, workloads):
    """Input generation, the kernel reference row and one warm-up call."""
    wl = workloads.Workload(name, seed)
    ref = dgemm_reference(np)
    try:
        wl.round(0)[0].run()
    except workloads.QuatpinvError:
        pass  # the timed calls count failures; the warm-up only warms
    return wl, ref


def time_setups(args, probe, sensitivity):
    """setup_s: median over fresh processes, from spawn to set-up done,
    each scaled to the nominal host speed by probes taken around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = [probe() for _ in range(PROBE_WINDOW)]
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             timeout=120)
        wall.append(float(out.stdout.split()[-1]) - t0)
        after = [probe() for _ in range(PROBE_WINDOW)]
        scaled.append(to_nominal(wall[-1], before + after, sensitivity))
    return statistics.median(scaled), statistics.median(wall), {
        "wall_s": wall, "s": scaled}


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def timed_call(call, workloads, tracer=None, call_id=0):
    """Run one call inside the timed window, then check it outside."""
    result = error = None
    unexpected = False
    if tracer is not None:
        tracer.begin_call(call_id)
    t0 = time.perf_counter()
    try:
        result = call.run()
    except workloads.QuatpinvError as exc:
        error = type(exc).__name__
    except Exception as exc:  # a crash is recorded, and the run goes on
        error = type(exc).__name__
        unexpected = True
        traceback.print_exc(file=sys.stderr)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_call(error is None)
    rec = {"input": call.input, "method": call.method, "wall_s": elapsed,
           "ok": False, "wrong": False, "detail": error, "error": error,
           "iterations": None, "unexpected": unexpected}
    if error is None:
        try:
            out = call.check(result, elapsed)
        except Exception:  # the check could not judge the result
            traceback.print_exc(file=sys.stderr)
            rec.update(unexpected=True, detail="check raised")
        else:
            rec.update(ok=out.ok, wrong=out.wrong, detail=out.detail,
                       iterations=out.iterations)
    return rec


def run_loop(wl, seconds, workloads, probe, tracer=None):
    """The rounds that fill ``seconds``, with a speed probe before each
    call and after the last. With a tracer, each round runs untraced, then
    again traced on the same inputs, in half as many rounds."""
    records, probes = [], []
    for r in range(wl.rounds(seconds if tracer is None else seconds / 2)):
        passes = (False,) if tracer is None else (False, True)
        for traced in passes:
            if traced:
                tracer.install()
            try:
                for call in wl.round(r):
                    probes.append(probe())
                    rec = timed_call(call, workloads,
                                     tracer if traced else None, len(records))
                    rec.update(round=r, traced=traced)
                    records.append(rec)
            finally:
                if traced:
                    tracer.uninstall()
    probes.append(probe())
    scale_to_nominal(records, probes, wl.host_sensitivity)
    return records, probes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(records, setup_s, key="s"):
    """End-to-end metrics over the calls' ``key`` times: ``s`` at the
    nominal host speed (the reported metrics), ``wall_s`` as measured."""
    times = sorted(rec[key] for rec in records)
    n = len(times)
    k = max(n - TAIL_ABOVE - 1, 0)
    m = {} if setup_s is None else {"setup_s": (setup_s, "s")}
    return {
        **m,
        "call_s.p50": (statistics.median(times), "s"),
        "call_s.tail": (times[k], "s"),
        "calls_per_s": (n / sum(times), "1/s"),
        "ok_ratio": (sum(rec["ok"] for rec in records) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }, {"samples": n, "tail_percentile": round(100.0 * (k + 1) / n, 2),
        "tail_samples_above": n - k - 1}


def per_layer(t, names, records, ref_gflops, solver_methods):
    """Per-layer metrics from the span table ``t`` of the traced pass."""
    traced = [rec for rec in records if rec["traced"]]
    plain = [rec for rec in records if not rec["traced"]]
    n = len(traced)
    idx = {name: i for i, name in enumerate(names)}

    def agg(name):
        sel = t["name"] == idx[name]
        return (int(sel.sum()), float(t["dur"][sel].sum()),
                float(t["self"][sel].sum()), int(t["ok"][sel].sum()),
                float(t["flops"][sel].sum()), float(t["bytes"][sel].sum()))

    def mean_iters(methods):
        its = [rec["iterations"] for rec in traced
               if rec["method"] in methods and rec["iterations"] is not None]
        return sum(its) / len(its) if its else 0.0

    m = {}
    calls, _, self_s, _, flops, nbytes = agg("_qops.qmatmul")
    gflops = flops / self_s / 1e9 if self_s > 0 else 0.0
    # metric names must start with a letter: _qops is reported as qops
    m["qops.qmatmul.calls"] = (calls / n, "1/call")
    m["qops.qmatmul.self_s"] = (self_s / n, "s/call")
    m["qops.qmatmul.mean_us"] = (self_s / calls * 1e6 if calls else 0.0, "us")
    m["qops.qmatmul.gflops"] = (gflops, "GF/s")
    m["qops.qmatmul.efficiency"] = (gflops / ref_gflops, "ratio")
    m["qops.qmatmul.flops"] = (flops / n, "flop/call")
    m["qops.qmatmul.bytes"] = (nbytes / n, "B/call")
    for name, kinds in (
            ("solvers.auto_alpha", ("s",)),
            ("solvers.penrose_residuals", ("s",)),
            ("solvers.eval_neumann_poly", ("calls", "self_s")),
            ("factor.thin_qr", ("calls", "self_s", "ok_ratio")),
            ("factor.solve_upper_triangular", ("self_s",)),
            ("factor.hpd_solve", ("calls", "self_s", "ok_ratio")),
            ("factor.pinv_normal_eq", ("s",)),
            ("qmatrix.op_norm_est", ("self_s",)),
            ("apps.fftpack.fft2", ("calls", "self_s")),
            ("apps.fftpack.ifft2", ("calls", "self_s")),
            ("apps.lorenz.lorenz_build", ("s",)),
            ("apps.lorenz.lorenz_solve_ns", ("s",)),
            ("apps.deblur.scalar_ns_reciprocal", ("s",)),
            ("apps.deblur.blur_and_noise", ("s",)),
            ("apps.completion.cur_reconstruct", ("calls", "self_s"))):
        c, incl, self_t, ok, _, _ = agg(name)
        values = {"calls": (c / n, "1/call"), "s": (incl / n, "s/call"),
                  "self_s": (self_t / n, "s/call"),
                  "ok_ratio": (ok / c if c else 1.0, "ratio")}
        for kind in kinds:
            m[f"{name}.{kind}"] = values[kind]
    m["solvers.iterations"] = (mean_iters(solver_methods), "1/solve")
    m["apps.lorenz.lorenz_solve_ns.iterations"] = (mean_iters(("lorenz",)),
                                                   "1/solve")
    untraced_p50 = statistics.median(rec["s"] for rec in plain)
    traced_p50 = statistics.median(rec["s"] for rec in traced)
    m["trace.overhead"] = (traced_p50 / untraced_p50, "ratio")
    return m


def self_time_split(t, names, records):
    """Share of traced call time spent in each span's own code, for the
    whole workload and per method."""
    method_of = {i: rec["method"] for i, rec in enumerate(records)
                 if rec["traced"]}
    total = {}
    by_method = {}
    for name_i, call, self_t in zip(t["name"], t["call"], t["self"]):
        name = names[name_i]
        method = method_of[int(call)]
        total[name] = total.get(name, 0.0) + self_t
        bucket = by_method.setdefault(method, {})
        bucket[name] = bucket.get(name, 0.0) + self_t

    def shares(d):
        s = sum(d.values())
        return dict(sorted(((k, v / s) for k, v in d.items()),
                           key=lambda kv: -kv[1]))
    return {"all": shares(total),
            "by_method": {k: shares(v) for k, v in sorted(by_method.items())}}


def count_products(t, names, records) -> None:
    """Store in each traced record the qmatmul calls made inside it."""
    q = t["name"] == names.index("_qops.qmatmul")
    for rec in records:
        if rec["traced"]:
            rec["qmatmul_calls"] = 0
    for call in t["call"][q]:
        records[int(call)]["qmatmul_calls"] += 1


def as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    os.environ["QUATPINV_THREADS"] = THREADS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        # quatpinv first: it sets the BLAS thread variables, which OpenBLAS
        # reads only once, when numpy loads it
        import quatpinv
        import numpy as np
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the library from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(quatpinv.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: quatpinv was imported from {quatpinv.__file__}, not "
              f"from this checkout's {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment(np, args.seed)
    if env["effective_blas_threads"] is None:
        print("error: cannot read the thread count of the loaded BLAS, so "
              f"the declared QUATPINV_THREADS={THREADS} cannot be checked; "
              f"thread variables: {env['thread_vars_after_import']}",
              file=sys.stderr)
        return 3
    if env["effective_blas_threads"] != int(THREADS):
        print(f"error: BLAS runs {env['effective_blas_threads']} threads but "
              f"the benchmark declares QUATPINV_THREADS={THREADS}; an "
              f"inherited thread variable overrides it: "
              f"{env['thread_vars_after_import']}", file=sys.stderr)
        return 3

    wl, ref = set_up(args.workload, args.seed, np, workloads)
    if args.setup_only:
        print(f"{time.monotonic():.9f}")
        return 0

    probe = SpeedProbe(np)
    setup_s = setup_wall_s = setup_samples = None
    if not args.trace:
        setup_s, setup_wall_s, setup_samples = time_setups(
            args, probe, wl.host_sensitivity)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    t_loop = time.perf_counter()
    records, probes = run_loop(wl, args.seconds, workloads, probe, tracer)
    loop_s = time.perf_counter() - t_loop

    plain = [rec for rec in records if not rec["traced"]]
    e2e, e2e_meta = end_to_end(plain, setup_s)
    e2e_wall, _ = end_to_end(plain, setup_wall_s, "wall_s")
    metrics, split = e2e, None
    if args.trace:
        table = tracer.table()
        metrics = per_layer(table, tracer.names, records, ref["gflops"],
                            workloads.SOLVER_METHODS)
        split = self_time_split(table, tracer.names, records)
        count_products(table, tracer.names, records)

    failures = [{"workload": args.workload, "input": rec["input"],
                 "method": rec["method"], "error_or_residual": rec["detail"],
                 "traced": rec["traced"]}
                for rec in records if not rec["ok"]]
    wrong = [rec for rec in records if rec["unexpected"] or rec["wrong"]]
    correct = not wrong

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "loop": "closed, 1 caller", "loop_s": loop_s,
        "rounds": records[-1]["round"] + 1, "environment": env,
        "kernel_reference": ref,
        "end_to_end": as_json(e2e),
        "end_to_end_wall": as_json(e2e_wall),
        "end_to_end_meta": {**e2e_meta, "setup_samples": setup_samples},
        "speed_probe": {"nominal_s": PROBE_NOMINAL_S,
                        "sensitivity": wl.host_sensitivity,
                        "median_s": statistics.median(probes),
                        "samples_s": probes},
        "per_layer": as_json(metrics) if args.trace else None,
        "self_time_split": split,
        "correct": correct, "attempted": len(records),
        "failed": len(failures), "failures": failures,
        "wrong_answers": wrong, "calls": records,
    }
    if args.trace:
        tracer.save(f"{stem}-spans.npz")
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"env: python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']}, nproc {env['nproc']}, BLAS threads "
          f"{env['effective_blas_threads']}, git {env['git_sha']}, "
          f"seed {args.seed}")
    print(f"kernel reference: dgemm {ref['gflops']:.2f} GF/s at the dense "
          f"shapes (flops computed)")
    print(f"end to end ({e2e_meta['samples']} untraced calls; tail is "
          f"p{e2e_meta['tail_percentile']} with "
          f"{e2e_meta['tail_samples_above']} above"
          + (f"; setup_s is the median of {SETUP_REPEATS} fresh "
             "processes):" if setup_s is not None else "):"))
    print(f"  {'':40s} {'nominal':>14s} {'wall':>14s}  (host speed probe: "
          f"median {statistics.median(probes) * 1e3:.3f} ms, nominal "
          f"{PROBE_NOMINAL_S * 1e3:.3f} ms, sensitivity "
          f"{wl.host_sensitivity})")
    for name, (value, unit) in e2e.items():
        print(f"  {name:40s} {value:14.6g} {e2e_wall[name][0]:14.6g} {unit}")
    if args.trace:
        print(f"per layer ({sum(r['traced'] for r in records)} traced calls):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"failed {len(failures)} of {len(records)} calls; "
          f"wrong answers {len(wrong)}")
    groups = {}
    for rec in records:
        if not rec["ok"]:
            key = (rec["input"].split("#")[0], rec["method"],
                   rec["error"] or "check failed")
            groups.setdefault(key, []).append(rec["detail"])
    for (inp, method, kind), details in sorted(groups.items()):
        print(f"  {args.workload} {inp} {method}: {kind} x{len(details)} "
              f"(first: {details[0]})")
    print(f"record: {stem}.json")
    print(json.dumps({
        "correct": correct, "attempted": len(records),
        "failed": len(failures),
        "metrics": as_json(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
