"""Wall time, minor page faults and peak RSS of every benchmark call.

    python3 tools/churn.py --seed 1 > new.txt
    python3 tools/churn.py --seed 1 --tree ../other-checkout > old.txt
    python3 tools/churn.py --seed 1 --workload dense
    python3 tools/churn.py --seed 1 --workload sketch --method cgne-nystrom

Runs every call of the ``dense``, ``sketch`` and ``apps`` pools of
``perfbench/workloads.py`` (each pool instance once, as round i of a
benchmark run uses instance i; ``--workload`` picks pools and ``--method``
the calls of the named methods) and prints one line per call: the
workload, input and method, the call's wall time, the minor page faults
the process took during it and the process's peak resident set size
after it (``resource.getrusage``; ``maxrss_mb`` is ``ru_maxrss`` in MB,
as perfbench's ``peak_rss_mb`` reads it, so the call after which it first
reaches its final value is the one that sets ``peak_rss_mb``). A minor
fault is the kernel mapping a page the process touches for the first
time, as it does each time the allocator hands back memory that was
returned to the system; many faults per call mean the call keeps
allocating and freeing large arrays. After the calls one ``median`` line
per workload and method, and one per workload for all its calls (method
``all``), gives the median of wall time and faults and the raw
``calls_per_s``, n / (sum of wall times): perfbench's figure before its
host-speed scaling.

A call's fault count depends on the calls that ran before it in the same
process: the allocator keeps memory that earlier calls freed and hands it
back without a fault, or returns it to the system, so that the next call
faults on it again. ``--method`` or ``--workload`` alone can therefore
show many more faults per call than the benchmark's order of calls does:
while the sketch stream drew its sketches one call each, ``--seed 1
--workload sketch --method rsp-column`` took about 5700 faults a call,
and the same calls in benchmark order about 300. Compare fault counts
only between runs of the same calls.

Faults follow the allocator's thresholds, which move with what was freed
before, so a change can move them in calls it does not touch. Two
results from copies of the code with one change each, in benchmark order
(seed 7):

* Putting ``_qops._right_batched``'s stacked scratch (the slabs and the
  four products of a stack) into the thread workspace made
  ``rsp-column`` take 42 ms a call instead of 35, and 2931 minor faults a
  call instead of 196. The likely cause, not verified: a large workspace
  that is never freed keeps glibc's dynamic mmap threshold at 128 KB, so
  that other temporaries of 128 KB to 1 MB fault on every allocation.
  Do not retry it.
* The sketch stream's slab buffer (``solvers._SketchStream``, 0.98 MB
  per solve at 30 x 20 and 120 x 100) first cost ``rsp-column`` and
  ``rsp-row`` about 540 faults a call each, and ``cgne-nystrom``, which
  runs after them, 45, while the stream kept its fresh Y and Y^+ beside
  their slabs. Keeping them only as slab 0 of their slabs took all three
  to 0, and running the stream's Y = A Omega of a 120 x 100 input in two
  batched calls instead of one (``_qops._STACK_MAX``) took ``hybrid``
  from about 2650 to 825 (perfbench's order, with its speed probe
  between calls). This tool, without the probe, reads ``hybrid`` 997
  and ``rsp-column`` 450 for the same code (1971 and 303 at the parent).

``--tree`` selects the checkout whose ``src/`` and ``perfbench/`` are
imported (default: the one holding this file), as in ``tools/parity.py``;
neither is modified. Faults are counted for the whole process, so run
nothing else in it.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("dense", "sketch", "apps")


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tree", default=str(Path(__file__).resolve().parents[1]),
                   help="checkout whose src/ and perfbench/ are imported")
    p.add_argument("--workload", choices=WORKLOADS, action="append",
                   help="pool to run (repeatable; default: all three)")
    p.add_argument("--method", action="append",
                   help="run only this method's calls, e.g. cgne-nystrom "
                        "(repeatable; default: every method)")
    args = p.parse_args(argv)
    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import quatpinv  # noqa: F401  (caps the BLAS threads before numpy loads)
    import workloads

    samples: dict[tuple[str, str], list[tuple[float, int]]] = {}
    for name in args.workload or WORKLOADS:
        wl = workloads.Workload(name, args.seed)
        for i in range(len(wl.pool)):
            for call in wl.round(i):
                if args.method and call.method not in args.method:
                    continue
                f0 = _usage().ru_minflt
                t0 = time.perf_counter()
                try:
                    call.run()
                except workloads.QuatpinvError:
                    pass  # a failed call's cost counts like any other's
                wall = time.perf_counter() - t0
                after = _usage()
                faults = after.ru_minflt - f0
                samples.setdefault((name, call.method), []).append(
                    (wall, faults))
                print(name, call.input, call.method, f"wall_s={wall:.4f}",
                      f"minflt={faults}",
                      f"maxrss_mb={after.ru_maxrss / 1024:.1f}", flush=True)
    for name in args.workload or WORKLOADS:
        runs = [run for (wl, _), rs in samples.items() if wl == name
                for run in rs]
        if runs:
            samples[name, "all"] = runs
    for (name, method), runs in samples.items():
        walls, faults = zip(*runs)
        print("median", name, method, f"calls={len(runs)}",
              f"wall_s={statistics.median(walls):.4f}",
              f"minflt={statistics.median(faults):.0f}",
              f"calls_per_s={len(runs) / sum(walls):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
