import json
import math
from pathlib import Path

import numpy as np
import pytest

from wsdist import oracle, selftest
from wsdist.cli import EXIT_ERROR, main
from wsdist.weber_schafheitlin import OrderPair, prop1_distribution

DATA = Path(__file__).parent / "data"


def _run(capsys, argv):
    code = main(argv)
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


GOLDEN_GRID = ["--s-min", "0.25", "--s-max", "3.0", "--s-steps", "12"]


def _negative_zeros(rows):
    return [v for row in rows for v in row if v == 0.0 and math.copysign(1.0, v) < 0]


def test_density_json_rows_are_the_golden_csv_rows(capsys):
    code, out, _ = _run(
        capsys, ["density", "--mu", "0", "--nu", "1", "--format", "json"] + GOLDEN_GRID
    )
    assert code == 0
    doc = json.loads(out)
    lines = (DATA / "density_prop1_mu0_nu1.csv").read_text().splitlines()
    assert doc["columns"] == lines[0].split(",")
    assert doc["rows"] == [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    assert not _negative_zeros(doc["rows"])


def test_density_normalizes_negative_zero_in_csv_and_json(capsys):
    # at mu = nu the imaginary part of h is -0.0 at some s > 1
    argv = ["density", "--mu", "1", "--nu", "1"] + GOLDEN_GRID
    grid = 0.25 + 2.75 * np.arange(12) / 11
    assert _negative_zeros([prop1_distribution(OrderPair(1.0, 1.0)).h(grid).imag])
    code, csv, _ = _run(capsys, argv)
    assert code == 0
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    csv_rows = [[float(v) for v in ln.split(",")] for ln in csv.splitlines()[1:]]
    rows = json.loads(out)["rows"]
    assert rows == csv_rows
    assert not _negative_zeros(rows) and not _negative_zeros(csv_rows)


def test_density_grid_is_s_min_plus_i_steps(capsys):
    # part of the byte contract: np.linspace rounds 16 of these 56 points differently
    code, out, _ = _run(capsys, ["density", "--mu", "0", "--nu", "1"])
    assert code == 0
    s = [float(ln.split(",")[0]) for ln in out.splitlines()[1:]]
    assert s == [0.25 + (3.0 - 0.25) * i / 55 for i in range(56)]


@pytest.mark.parametrize("prop", ["1", "2"])
def test_density_single_step_is_the_first_row_of_the_grid(capsys, prop):
    # --s-steps 1 evaluates s-min alone
    base = ["density", "--mu", "0.5", "--nu", "1.5", "--prop", prop]
    code, full, _ = _run(capsys, base)
    assert code == 0
    code, one, _ = _run(capsys, base + ["--s-steps", "1"])
    assert code == 0
    assert one.splitlines() == full.splitlines()[:2]


PAIR_GOLDEN = json.loads((DATA / "pair_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", PAIR_GOLDEN, ids=[" ".join(c["argv"][1:]) for c in PAIR_GOLDEN]
)
def test_pair_golden_regression(capsys, case):
    # the 17-digit pairing output is a contract: byte-exact, like density
    code, out, _ = _run(capsys, case["argv"])
    assert code == 0
    assert out == case["stdout"]


DENSITY_GOLDEN = json.loads((DATA / "density_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", DENSITY_GOLDEN, ids=[" ".join(c["argv"][1:]) for c in DENSITY_GOLDEN]
)
def test_density_golden_default_grid(capsys, case):
    # both propositions on the default grid, which holds s = 1 and the
    # edges 0.8 and 1.2 of the split band
    code, out, _ = _run(capsys, case["argv"])
    assert code == 0
    assert out == case["stdout"]


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


def test_pair_prop2_alpha_invariance(capsys):
    # criterion 11 for the J-kernel result: the alpha-split needs only
    # F = 1 + (s-1) h, so --alpha reaches prop 2 and moves only rounding
    argv = ["pair", "--mu", "0.5", "--nu", "1.5", "--prop", "2"]
    docs = []
    for alpha in ("0", "1"):
        code, out, _ = _run(capsys, argv + ["--alpha", alpha])
        assert code == 0
        docs.append(json.loads(out))
    assert [d["alpha"] for d in docs] == [0.0, 1.0]
    v0, v1 = (complex(d["value"]["re"], d["value"]["im"]) for d in docs)
    assert v1 != v0  # the split was applied, not ignored
    assert abs(v1 - v0) <= 1e-8 * max(1.0, abs(v0))


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--mu", "0", "--nu", "1", "--tol", "1e-30"],
        ["density", "--mu", "0", "--nu", "1", "--alpha", "5"],
        ["oracle", "--mu", "0", "--nu", "1", "--alpha", "5"],
    ],
)
def test_flags_only_on_commands_that_read_them(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


BAD_NUMBERS = [
    (["pair", "--tol", "0"], 2, "argument --tol: must be positive"),
    (["pair", "--tol", "-1"], 2, "argument --tol: must be positive"),
    (["pair", "--tol", "nan"], 2, "argument --tol: must be finite"),
    (["oracle", "--tol", "inf"], 2, "argument --tol: must be finite"),
    (["pair", "--alpha", "nan"], 2, "argument --alpha: must be finite"),
    (["oracle", "--eps-schedule", "0.2,0.1,nan"], 2, "must be positive and finite"),
    (["pair", "--bump", "inf,1"], 5, "DomainError: "),
    (["pair", "--bump", "1,0.5,nan"], 5, "DomainError: "),
    (["oracle", "--bump", "1,nan"], 5, "DomainError: "),
    (["density", "--s-max", "inf"], 2, "argument --s-max: must be finite"),
    (["density", "--s-min", "nan"], 2, "argument --s-min: must be finite"),
    (["density", "--nu", "inf"], 2, "argument --nu: must be finite"),
    (["pair", "--tol", "abc"], 2, "argument --tol: could not convert string to float"),
    (["pair", "--bump", "abc"], 2, "argument --bump: could not convert string to float"),
    # --prop 1 last: prop 1 is the path where these orders and this bump
    # ended in an OverflowError traceback or in numpy overflow warnings
    (["density", "--mu", "0", "--nu", "200", "--prop", "1"], 2, "leave |mu| <= 10, |nu| <= 50"),
    (["pair", "--nu", "1e300", "--prop", "1"], 2, "leave |mu| <= 10, |nu| <= 50"),
    (["density", "--mu", "12", "--nu", "30", "--prop", "1"], 2, "leave |mu| <= 10, |nu| <= 50"),
    (["pair", "--bump", "1,0.5,1e308", "--prop", "1"], 5, "DomainError: pairing is not finite"),
    # a power of a tiny s overflows inside the density kernel
    (["density", "--mu", "0", "--nu", "1", "--prop", "1", "--s-min", "1e-200", "--s-max", "1e-199",
      "--s-steps", "2"], 5, "outside the double range"),
    (["pair", "--mu", "0", "--nu", "50", "--prop", "1", "--bump", "1e-7,9e-8"], 5,
     "outside the double range"),
    (["density", "--mu", "-1.5", "--nu", "-0.4", "--s-min", "1e-130", "--s-max", "2e-130",
      "--s-steps", "2"], 5, "outside the double range"),
    # center +- halfwidth rounds to one point
    (["pair", "--mu", "0", "--bump", "1e17,1", "--prop", "1"], 5, "SupportError: "),
    (["pair", "--mu", "0", "--bump", "1e16,1"], 5, "SupportError: "),
    (["pair", "--mu", "0", "--bump", "1,1e-300", "--prop", "1"], 5, "SupportError: "),
]


@pytest.mark.filterwarnings("error")  # warning text on stderr is a second error line
@pytest.mark.parametrize(
    "argv, code, reason", BAD_NUMBERS, ids=[" ".join(c[0]) for c in BAD_NUMBERS]
)
def test_bad_numeric_flags_exit_2_or_5_with_one_error_line(capsys, monkeypatch, argv, code, reason):
    def spent(*args, **kwargs):
        raise AssertionError("a pairing ran for an invalid command line")

    monkeypatch.setattr(oracle, "_pairing_at_eps", spent)
    try:
        got = main([argv[0], "--mu", "1", "--nu", "1", "--prop", "2"] + argv[1:])
    except SystemExit as exc:  # argparse: usage lines, then one error line
        got = exc.code
    out, err = capsys.readouterr()
    assert got == code
    assert out == "" and "Traceback" not in err
    errors = [ln for ln in err.splitlines() if not ln.startswith(("usage:", " "))]
    assert len(errors) == 1 and reason in errors[0] and "_parse" not in errors[0]


def test_oracle_schedule_reason_on_the_usage_line(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--mu", "0", "--nu", "1", "--eps-schedule", "0.2,0.15,0.05"])
    assert exc.value.code == 2
    assert "must decrease by at least a factor 2" in capsys.readouterr().err


def test_oracle_short_schedule_exit_5_before_any_pairing(capsys, monkeypatch):
    def spent(*args, **kwargs):
        raise AssertionError("a pairing ran for a schedule that cannot extrapolate")

    monkeypatch.setattr(oracle, "_pairing_at_eps", spent)
    code, out, err = _run(
        capsys,
        ["oracle", "--mu", "1", "--nu", "1", "--prop", "2", "--eps-schedule", "0.2,0.1"],
    )
    assert code == EXIT_ERROR
    assert out == ""
    assert err.startswith("InsufficientDataError: ")


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


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["--only", "bogus"], "argument --only: invalid choice: 'bogus'"),
        (["--tol", "nan"], "argument --tol: must be finite"),
    ],
)
def test_selftest_bad_flags_exit_2_before_any_check(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        main(["selftest"] + argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and reason in err


def test_selftest_check_fails_on_a_nan_sample(monkeypatch):
    # the NaN comes after a finite sample, where max() would drop it
    devs = iter([0.0, math.nan] + [0.0] * 10)
    monkeypatch.setattr(selftest, "reflection_check", lambda orders, s: next(devs))
    assert not selftest.reflection_identity() <= 1e-12
