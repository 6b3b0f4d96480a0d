"""Time of the 8-product form over the Hamilton form's, by shape and dtype.

    python3 tools/eight_table.py
    python3 tools/eight_table.py --rounds 21 --shapes 64x64x64 100x120x100

For each m x k x n shape, in float64 and float32, times
``_qops._eight_product`` and ``_qops._slab_product`` (the Hamilton slab
path) on the same Gaussian operands in alternating rounds, the form that
runs first flipping each round, and prints one line per shape: the
median [quartiles] over the rounds of the ratio of the two times, in
each dtype, and the Hamilton form's median time per product. A round
times each form on enough products to take about 20 ms. ``_EIGHT_MIN``
is read from this table (README, performance notes); run it with one
BLAS thread (``QUATPINV_THREADS=1``, the default) and nothing else on
the machine.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from quatpinv import _qops  # noqa: E402  (caps the BLAS threads first)

import numpy as np  # noqa: E402

# the shapes of the README's table: every slab-path product of the dense
# and sketch pools, the cubes from 56 to 176 and a few between
SHAPES = ["200x220x200", "200x200x220", "220x200x220", "220x220x200",
          "200x200x200", "220x200x200", "176x176x176", "160x180x160",
          "150x150x150", "128x150x128", "128x128x128", "120x120x120",
          "120x120x100", "120x100x120", "112x120x112", "112x112x112",
          "104x104x104", "100x100x120", "100x120x100", "96x96x96",
          "88x88x88", "80x80x80", "72x72x72", "100x8x120", "70x70x50",
          "70x50x70", "64x64x64", "56x56x56", "50x70x50", "50x50x70",
          "50x8x70"]


def _per_product(form, x, y, count: int) -> float:
    t0 = time.perf_counter()
    for _ in range(count):
        form(x, y)
    return (time.perf_counter() - t0) / count


def ratios(m: int, k: int, n: int, dtype, rounds: int):
    """(ratios of the 8-product time over the Hamilton time, one a round,
    and the Hamilton times per product) on one pair of operands."""
    rng = np.random.default_rng(m * 65536 + k * 256 + n)
    x = rng.standard_normal((m, k, 4)).astype(dtype)
    y = rng.standard_normal((k, n, 4)).astype(dtype)
    forms = [_qops._slab_product, _qops._eight_product]
    once = _per_product(forms[0], x, y, 3)
    count = max(1, int(0.02 / once))
    out, hamilton = [], []
    for r in range(rounds):
        t = {}
        for form in forms[::(-1) ** r]:
            t[form] = _per_product(form, x, y, count)
        out.append(t[forms[1]] / t[forms[0]])
        hamilton.append(t[forms[0]])
    return out, hamilton


def _summary(values) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.2f} [{q1:.2f}-{q3:.2f}]"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--rounds", type=int, default=21)
    p.add_argument("--shapes", nargs="+", default=SHAPES,
                   help="m x k x n shapes, written like 100x120x100")
    args = p.parse_args(argv)
    print("| m × k × n | float64 | float32 | Hamilton float64, µs |")
    print("|---|---|---|---|")
    for shape in args.shapes:
        m, k, n = (int(v) for v in shape.split("x"))
        (r64, h64), (r32, _) = (ratios(m, k, n, dtype, args.rounds)
                                for dtype in (np.float64, np.float32))
        print(f"| {m}×{k}×{n} | {_summary(r64)} | {_summary(r32)} | "
              f"{statistics.median(h64) * 1e6:.0f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
