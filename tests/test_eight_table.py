"""``tools/eight_table.py``, the table ``_qops._EIGHT_MIN`` is read from,
run end to end as a subprocess on two shapes and two rounds."""

import subprocess
import sys
from pathlib import Path

EIGHT_TABLE = Path(__file__).resolve().parents[1] / "tools" / "eight_table.py"


def test_eight_table_prints_one_row_per_shape():
    shapes = ["80x80x80", "100x8x120"]
    out = subprocess.run(
        [sys.executable, str(EIGHT_TABLE), "--rounds", "2", "--shapes",
         *shapes], capture_output=True, text=True, check=True,
        timeout=120).stdout.splitlines()
    # the header and its rule, then a row per shape: the shape, the median
    # [quartiles] of the ratio in each dtype and the Hamilton time
    assert out[0].startswith("| m × k × n | float64 | float32 |")
    assert len(out) == 2 + len(shapes)
    for shape, row in zip(shapes, out[2:]):
        cells = row.strip("| ").split(" | ")
        assert cells[0] == shape.replace("x", "×") and len(cells) == 4
        for ratio in cells[1:3]:
            median, quartiles = ratio.split(" ")
            assert float(median) > 0 and quartiles.startswith("[")
        assert float(cells[3]) > 0
