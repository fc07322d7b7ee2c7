import json
import math
import os
from pathlib import Path

import pytest

from wsdist.cli import EXIT_ERROR, main

DATA = Path(__file__).parent / "data"


def _run(capsys, argv, env=None):
    old = {}
    if env:
        for k, v in env.items():
            old[k] = os.environ.get(k)
            os.environ[k] = v
    try:
        code = main(argv)
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    out = capsys.readouterr()
    return code, out.out, out.err


def test_density_golden_regression(tmp_path, capsys):
    target = tmp_path / "density.csv"
    code, _, _ = _run(
        capsys,
        [
            "density", "--mu", "0", "--nu", "1", "--prop", "1",
            "--s-min", "0.25", "--s-max", "3.0", "--s-steps", "12",
            "--output", str(target),
        ],
    )
    assert code == 0
    golden = (DATA / "density_prop1_mu0_nu1.csv").read_bytes()
    assert target.read_bytes() == golden


def test_density_idempotent(capsys):
    argv = ["density", "--mu", "0.5", "--nu", "1.5", "--s-steps", "9"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_density_grid_with_s_equal_one_reports_unit_density(capsys):
    code, out, _ = _run(
        capsys,
        ["density", "--mu", "0", "--nu", "1", "--s-min", "0.5", "--s-max", "1.5",
         "--s-steps", "3"],
    )
    assert code == 0
    row = [ln for ln in out.splitlines() if ln.startswith("1,")]
    assert row and row[0].split(",")[1] == "1" and row[0].split(",")[2] == "0"


def test_density_prop2_equal_orders_reduction(capsys):
    code, out, _ = _run(
        capsys,
        ["density", "--mu", "1", "--nu", "1", "--prop", "2", "--s-min", "0.5",
         "--s-max", "1.0", "--s-steps", "5"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "s,m0,h"
    for ln in lines[1:]:
        s, m0, _ = (float(p) for p in ln.split(","))
        assert m0 == 1.0  # s^(mu-1) with mu = 1 on s <= 1


def test_density_order_violation_exit_2(capsys):
    code, _, err = _run(capsys, ["density", "--mu", "5", "--nu", "1"])
    assert code == 2
    assert "nu + 2 > |mu|" in err


def test_pair_delta_case(capsys):
    code, out, _ = _run(
        capsys,
        ["pair", "--mu", "1", "--nu", "1", "--prop", "2", "--bump", "1.0,0.5,1.0"],
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["value"]["re"] - math.exp(-1.0)) <= 1e-12
    assert doc["value"]["im"] == 0.0


def test_pair_measures_related_by_substitution(capsys):
    # the ds/s pairing of g equals the ds pairing with g(s)/s; for a bump
    # far from 1 both are plain integrals and differ by the 1/s weight
    argv = ["pair", "--mu", "0", "--nu", "1", "--bump", "2.5,0.4,1.0"]
    code, out_l, _ = _run(capsys, argv + ["--measure", "lebesgue"])
    assert code == 0
    code, out_h, _ = _run(capsys, argv + ["--measure", "haar"])
    assert code == 0
    vl = json.loads(out_l)["value"]
    vh = json.loads(out_h)["value"]
    assert vh["re"] != vl["re"]  # weights differ
    assert abs(vh["re"]) < abs(vl["re"])  # 1/s < 1 on [2.1, 2.9]


def test_pair_ws_tol_env(capsys):
    code, out, _ = _run(
        capsys,
        ["pair", "--mu", "1", "--nu", "1", "--prop", "2"],
        env={"WS_TOL": "1e-7"},
    )
    assert code == 0
    assert json.loads(out)["tol"] == 1e-7


def test_pair_tolerance_exit_3(capsys):
    code, _, err = _run(
        capsys,
        ["pair", "--mu", "0", "--nu", "1", "--bump", "1.0,0.5,1.0", "--tol", "1e-18"],
    )
    assert code == 3
    assert "converge" in err


@pytest.mark.parametrize(
    "argv, error",
    [
        (["pair", "--mu", "0", "--nu", "1", "--bump", "0.3,0.5"], "SupportError"),
        (["density", "--mu", "0", "--nu", "1", "--s-min", "0"], "DomainError"),
        (["density", "--mu", "0", "--nu", "1", "--s-steps", "0"], "DomainError"),
        (["density", "--mu", "-1", "--nu", "0", "--prop", "2"], "PoleError"),
        (["pair", "--mu", "0", "--nu", "-1"], "PoleError"),
    ],
)
def test_typed_errors_exit_5_with_one_line(capsys, argv, error):
    code, out, err = _run(capsys, argv)
    assert code == EXIT_ERROR == 5
    assert out == ""
    assert err.startswith(error + ": ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.slow
def test_oracle_exit_codes(capsys):
    # a three-point schedule leaves ~1e-3 extrapolation residue, so pin
    # tolerances on both sides of it to drive the two exit paths
    argv = [
        "oracle", "--mu", "1", "--nu", "1", "--prop", "2",
        "--bump", "1.0,0.5,1.0", "--eps-schedule", "0.2,0.1,0.05",
    ]
    code, out, _ = _run(capsys, argv + ["--tol", "5e-3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["rel_deviation"] <= 5e-3
    assert {"re", "im"} == set(doc["report"]["closed_form"])

    code, out, _ = _run(capsys, argv + ["--tol", "1e-12"])
    assert code == 4


def test_selftest_full_pass(capsys):
    code, out, _ = _run(capsys, ["selftest"])
    assert code == 0
    assert "FAIL" not in out


def test_selftest_subset_and_forced_failure(capsys):
    code, out, _ = _run(capsys, ["selftest", "--only", "quadrature"])
    assert code == 0
    assert all("quadrature." in ln for ln in out.splitlines())
    code, out, _ = _run(
        capsys, ["selftest", "--only", "quadrature", "--tol", "1e-30"]
    )
    assert code != 0
    assert "FAIL" in out
