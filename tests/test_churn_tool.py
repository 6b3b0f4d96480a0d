"""``tools/churn.py``: the calls run in perfbench's order, with its speed
probe before each call and the call's check after it, and print one line
per call and the medians, and a closed output pipe ends it quietly. The
tool runs in a subprocess and is not modified."""

import subprocess
import sys
from pathlib import Path

CHURN = Path(__file__).resolve().parents[1] / "tools" / "churn.py"


def test_churn_runs_in_a_subprocess():
    # the apps pool's deblur calls: 108 pool instances, one call each
    out = subprocess.run([sys.executable, str(CHURN), "--seed", "1",
                          "--workload", "apps", "--method", "deblur"],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.splitlines()
    calls = [line for line in lines if not line.startswith("median ")]
    assert len(calls) == 108
    assert all(line.startswith("apps N128#") and " deblur wall_s=" in line
               and " minflt=" in line and " maxrss_mb=" in line
               for line in calls)
    medians = [line.split()[:4] for line in lines
               if line.startswith("median ")]
    assert medians == [["median", "apps", "deblur", "calls=108"],
                       ["median", "apps", "all", "calls=108"]]


def test_a_closed_output_pipe_ends_quietly():
    # as ``churn.py ... | head -1`` closes it; a traceback was printed
    p = subprocess.Popen([sys.executable, str(CHURN), "--seed", "1",
                          "--workload", "apps", "--method", "deblur"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    assert p.stdout.readline().startswith("apps N128#")
    p.stdout.close()
    assert p.wait(timeout=120) == 1
    assert p.stderr.read() == ""
