import time

import numpy as np
import pytest

from quatpinv import cli
from quatpinv.cli import APP_HEADER, RECURRENCE_HEADER, SOLVER_HEADER, main
from quatpinv.errors import SketchFailure


def rows(path):
    return path.read_text().strip().split("\n")


def test_usage_empty_sizes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pinv-bench", "--sizes", ""])
    assert exc.value.code == 2


def test_usage_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["pinv-bench", "--schedule", "bogus"])
    assert exc.value.code == 2


def test_usage_no_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["pinv-bench", "--sizes", "5", "--method", "rsp"],
    ["pinv-bench", "--sizes", "5", "--gamma", "0"],
    ["pinv-bench", "--sizes", "5", "--maxit", "-1"],
    ["lorenz", "--sizes", "1"],
    ["deblur", "--sizes", "16", "--lambda", "0"],
    ["pinv-bench", "--sizes", "10", "--method", "hybrid", "--block-r", "2",
     "--cycle-T", "-1"],
    # flags a command once accepted and ignored
    ["lorenz", "--gamma", "0.5"],
    ["deblur", "--block-r", "3"],
    ["cur-complete", "--tol", "1e-3"],
    ["recurrence-check", "--sizes", "50"],
    # its CSV has no seed column, so a second seed would go unreported
    ["recurrence-check", "--seeds", "0,1"],
    # a --maxit <= 0 once exited 0 and silently dropped rows: the ns rows of
    # recurrence-check, every row of cur-complete
    ["recurrence-check", "--maxit", "0"],
    ["recurrence-check", "--maxit", "-1"],
    ["cur-complete", "--maxit", "0"],
    ["cur-complete", "--maxit", "-1"],
    # a tol that is NaN or negative once ran every iteration and exited 0,
    # and an infinite one stopped at once
    ["lorenz", "--tol", "nan"],
    ["lorenz", "--tol", "-1"],
    ["lorenz", "--tol", "inf"],
    ["deblur", "--sizes", "16", "--tol", "nan"],
    ["deblur", "--sizes", "16", "--tol", "-1"],
    # a NaN snr_db once exited 0 with NaN PSNR and residual; a NaN sigma
    # or a NaN or infinite lambda exited 1 on a NaN residual
    ["deblur", "--sizes", "16", "--psf-radius", "2", "--snr-db", "nan"],
    ["deblur", "--sizes", "16", "--psf-radius", "2", "--psf-sigma", "nan"],
    ["deblur", "--sizes", "16", "--psf-radius", "2", "--lambda", "nan"],
    ["deblur", "--sizes", "16", "--psf-radius", "2", "--lambda", "inf"],
    # an snr_db whose 10^(snr_db/10) underflows to 0 once ended in a
    # ZeroDivisionError traceback
    ["deblur", "--sizes", "16", "--psf-radius", "2", "--snr-db", "-4000"],
])
def test_usage_bad_parameter_value(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_deblur_noise_level_beyond_float_range_exits_2(capsys):
    # the noise level overflows at -3200 dB: the CLI once exited 2 with only
    # "math domain error"
    with pytest.raises(SystemExit) as exc:
        main(["deblur", "--sizes", "16", "--psf-radius", "2",
              "--snr-db", "-3200"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: snr_db = -3200.0 sets the noise level" in err
    assert "Traceback" not in err


def test_lorenz_unstable_rk4_step_exits_1(capsys):
    assert main(["lorenz", "--sizes", "30"]) == 1
    err = capsys.readouterr().err
    assert "RK4 step 0.1695" in err and "Traceback" not in err


def test_deblur_psf_larger_than_frame_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deblur", "--sizes", "8"])
    assert exc.value.code == 2
    assert "the 9x9 PSF does not fit the 8x8 frame" in \
        capsys.readouterr().err


def test_pinv_bench_qsvd_baseline_has_no_failure_rows(tmp_path):
    out = tmp_path / "qsvd.csv"
    assert main(["pinv-bench", "--sizes", "5,30", "--method", "qsvd-baseline",
                 "--out", str(out)]) == 0
    lines = rows(out)
    assert len(lines) == 3
    for line in lines[1:]:
        cols = line.split(",")
        assert cols[4] != "-1" and max(float(c) for c in cols[6:10]) <= 1e-9


def test_pinv_bench_csv_schema(tmp_path):
    out = tmp_path / "pinv.csv"
    rc = main(["pinv-bench", "--sizes", "20", "--seeds", "0,1",
               "--method", "ns", "--maxit", "35", "--tol", "0",
               "--out", str(out)])
    assert rc == 0
    lines = rows(out)
    assert lines[0] == SOLVER_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        cols = line.split(",")
        assert len(cols) == 11
        assert cols[0] == "ns" and (cols[1], cols[2]) == ("40", "20")
        assert int(cols[4]) == 35
        assert all(float(c) <= 1e-8 for c in cols[6:10])
    assert (tmp_path / "pinv.csv.gp").exists()


def test_pinv_bench_deterministic_apart_from_wall(tmp_path):
    argv = ["pinv-bench", "--sizes", "20", "--seeds", "3", "--method", "ns",
            "--maxit", "35", "--tol", "0"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    for ra, rb in zip(rows(a), rows(b)):
        ca, cb = ra.split(","), rb.split(",")
        assert ca[:5] == cb[:5] and ca[6:] == cb[6:]


def test_recurrence_check(tmp_path):
    out = tmp_path / "rec.csv"
    assert main(["recurrence-check", "--out", str(out)]) == 0
    lines = rows(out)
    assert lines[0] == RECURRENCE_HEADER
    for line in lines[1:]:
        variant, param, it, dev = line.split(",")
        assert variant in ("ns", "hyperpower")
        assert float(dev) <= 1e-11


def test_lorenz_cmd(tmp_path):
    out = tmp_path / "lor.csv"
    assert main(["lorenz", "--out", str(out)]) == 0
    lines = rows(out)
    assert lines[0] == APP_HEADER
    cols = lines[1].split(",")
    assert cols[0] == "lorenz"
    assert int(cols[2]) <= 80
    assert float(cols[5]) <= 1e-6


def test_deblur_cmd_writes_ppm_triplet(tmp_path):
    out = tmp_path / "deb.csv"
    assert main(["deblur", "--sizes", "32", "--out", str(out)]) == 0
    cols = rows(out)[1].split(",")
    assert cols[0] == "deblur"
    assert float(cols[5]) <= 1e-10      # NS vs closed-form parity
    for tag in ("original", "blurred", "restored"):
        assert (tmp_path / f"deb_N32_s0_{tag}.ppm").exists()


def test_cur_complete_cmd(tmp_path):
    out = tmp_path / "cur.csv"
    assert main(["cur-complete", "--out", str(out)]) == 0
    lines = rows(out)
    assert lines[0] == APP_HEADER
    res = [float(line.split(",")[5]) for line in lines[1:]]
    assert len(res) == 25
    assert res[-1] <= res[0]
    tail = res[-10:]
    assert all(b <= a for a, b in zip(tail, tail[1:]))
    for tag in ("original", "masked", "completed"):
        assert (tmp_path / f"cur_n60_s4_{tag}.ppm").exists()


def test_cur_complete_explicit_seed_zero(tmp_path):
    argv = ["cur-complete", "--sizes", "30", "--maxit", "3"]
    out = tmp_path / "zero.csv"
    assert main(argv + ["--seeds", "0", "--out", str(out)]) == 0
    assert all(";seed=0;" in line for line in rows(out)[1:])
    assert (tmp_path / "zero_n30_s0_completed.ppm").exists()
    out = tmp_path / "dflt.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert all(";seed=4;" in line for line in rows(out)[1:])
    for tag in ("original", "masked", "completed"):
        assert (tmp_path / f"dflt_n30_s4_{tag}.ppm").exists()


def test_rsp_bench_rows(tmp_path):
    out = tmp_path / "rsp.csv"
    assert main(["rsp-bench", "--sizes", "6", "--seeds", "0,1", "--maxit", "3",
                 "--block-r", "3", "--out", str(out)]) == 0
    lines = rows(out)
    assert lines[0] == SOLVER_HEADER
    assert [line.split(",")[:4] for line in lines[1:]] == \
        [["rsp", "26", "6", "0"], ["rsp", "26", "6", "1"]]


def test_pinv_bench_failure_row_records_elapsed_time(tmp_path, monkeypatch):
    def fail_after_a_while(A, cfg):
        time.sleep(0.05)
        raise SketchFailure("no usable sketch")
    monkeypatch.setattr(cli, "ns_damped", fail_after_a_while)
    out = tmp_path / "fail.csv"
    assert main(["pinv-bench", "--sizes", "5", "--method", "ns",
                 "--out", str(out)]) == 0
    cols = rows(out)[1].split(",")
    assert cols[:5] == ["ns", "25", "5", "0", "-1"]
    assert 0.05 <= float(cols[5]) < 5.0
    assert cols[6:] == ["nan"] * 5
