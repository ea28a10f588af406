"""Smoke tests of the experiment scripts that read a design's results."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_fir_degree_sweep_prints_the_mesh_row(capsys):
    load_script("sweep_fir_degree").sweep(2, 0.25)
    assert capsys.readouterr().out.splitlines() == [
        "  q  free dims      objective  sum offdiag gamma_u",
        "  2         33     118.291569            16.743037",
    ]


def test_bound_slack_study_prints_every_slack(capsys):
    load_script("bound_slack_study").study()
    assert capsys.readouterr().out.splitlines() == [
        "   slack        |x|      objective  worst offdiag gamma_u",
        "     0.0     0.0000     118.357222               1.340932",
        "     0.1     0.1353     118.291569               1.355367",
        "    0.25     0.1353     118.291569               1.355367",
        "     0.5     0.1353     118.291569               1.355367",
        "     inf     0.1353     118.291569               1.355367",
    ]


def test_bench_scale_child_records_every_figure():
    # one child run of the scaling benchmark on the 8-node ring
    proc = subprocess.run([sys.executable, str(SCRIPTS / "bench_scale.py"), "--child", "8"],
                          capture_output=True, text=True, check=True, timeout=600)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(record) == {
        "N", "design_s", "verify_s", "peak_rss_mb", "surrogate_build_s", "search_s", "certify_s",
        "moving_blocks", "surrogate_held_mb", "lambda_share", "lines_formed", "surrogate_evals",
        "refine_steps_max", "refine_steps_median", "structural_zeros", "objective", "numpy"}
    assert record["N"] == 8 and record["surrogate_evals"] == 49 and record["structural_zeros"] == 48
    assert record["moving_blocks"] == 80 and record["lines_formed"] == 0
