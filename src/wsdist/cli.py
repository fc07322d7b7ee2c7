"""Command-line front end.

Four subcommands: `density` tabulates the closed-form densities on an
s-grid as CSV, `pair` evaluates one distributional pairing as JSON,
`oracle` runs the epsilon-extrapolated direct-quadrature comparison and
emits an OracleReport as JSON, `selftest` runs the built-in invariant
bundle.  All numeric output carries 17 significant digits so a
round-trip through text is exact in double precision; complex numbers
are {re, im} objects in JSON and paired columns in CSV.

`density`, `pair` and `oracle` take --mu, --nu, --prop and --output;
`pair` and `oracle` also take --bump and --tol (default 1e-9 for `pair`,
the quadrature tolerance, and 1e-4 for `oracle`, the largest accepted
relative deviation); only `pair` takes --alpha.  `selftest` takes
--only, the name of one check module, and a --tol that overrides every
check's tolerance.

Exit codes: 0 success, 2 order-constraint violation (including orders
outside |mu| <= 10, |nu| <= 50) or usage error (an unknown flag or
--only module, a number that does not parse, a non-finite --mu, --nu,
--s-min, --s-max or --alpha, a --tol that is not finite and positive,
or an --eps-schedule that is not finite and positive or does not at
least halve, with the reason on the usage line), 3 quadrature
non-convergence, 4 oracle deviation beyond tolerance, 5 any other typed
error (a DomainError such as a non-finite --bump, a pairing that is
not finite or a grid point s <= 0, SupportError, PoleError, ParamError,
InsufficientDataError, ...), reported as one line on stderr.
"""

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from .distributions import Measure, TestFunction, pair
from .errors import (
    DomainError,
    NonConvergenceError,
    OrderError,
    ToleranceError,
    WsdistError,
)
from .oracle import jj_pairing_oracle, pairing_oracle
from .quadrature import DEFAULT_EPS_SCHEDULE, EpsSchedule
from .selftest import CHECKS, run_selftest
from .weber_schafheitlin import OrderPair, prop1_distribution, prop2_distribution

EXIT_OK = 0
EXIT_ORDER = 2
EXIT_NONCONV = 3
EXIT_DEVIATION = 4
EXIT_ERROR = 5


def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _float(text):
    try:
        return float(text)
    except ValueError as exc:  # argparse would report only the type's name
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_bump(spec):
    parts = [_float(p) for p in spec.split(",")]
    if len(parts) == 2:
        parts.append(1.0)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            "bump must be 'center,halfwidth[,amplitude]'"
        )
    return TestFunction(*parts)


def _parse_finite(text):
    value = _float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _parse_tol(text):
    value = _parse_finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _parse_schedule(spec):
    try:
        return EpsSchedule(tuple(float(p) for p in spec.split(",")))
    except ValueError as exc:  # argparse would report only the type's name
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _distribution(args):
    orders = OrderPair(args.mu, args.nu)
    if args.prop == 1:
        return prop1_distribution(orders)
    return prop2_distribution(orders)


def cmd_density(args):
    dist = _distribution(args)
    n = args.s_steps
    if n < 1:
        raise DomainError("--s-steps must be at least 1")
    if n == 1:
        grid = np.array([args.s_min])
    else:
        grid = args.s_min + (args.s_max - args.s_min) * np.arange(n) / (n - 1)
    F, h = dist.F(grid), dist.h(grid)
    if args.prop == 1:
        columns = {"s": grid, "F_re": F.real, "F_im": F.imag,
                   "h_re": h.real, "h_im": h.imag}
    else:
        columns = {"s": grid, "m0": F, "h": h}
    rows = (np.column_stack(list(columns.values())) + 0.0).tolist()  # -0.0 -> 0.0
    if args.format == "json":
        text = json.dumps({"columns": list(columns), "rows": rows}, indent=1) + "\n"
    else:
        lines = [",".join(columns)] + [",".join(f"{v:.17g}" for v in r) for r in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_pair(args):
    # the alpha-split needs only F = 1 + (s-1) h, so it serves both propositions
    dist = replace(_distribution(args), alpha=args.alpha)
    value = pair(dist, args.bump, measure=Measure(args.measure), tol=args.tol)
    doc = {
        "command": "pair",
        "proposition": args.prop,
        "mu": args.mu,
        "nu": args.nu,
        "alpha": args.alpha,
        "measure": args.measure,
        "bump": {
            "center": args.bump.center,
            "halfwidth": args.bump.halfwidth,
            "amplitude": args.bump.amplitude,
        },
        "tol": args.tol,
        "value": {"re": value.real, "im": value.imag},
    }
    _emit(json.dumps(doc, indent=1) + "\n", args.output)
    return EXIT_OK


def cmd_oracle(args):
    orders = OrderPair(args.mu, args.nu)
    oracle = pairing_oracle if args.prop == 1 else jj_pairing_oracle
    report = oracle(orders, args.bump, args.eps_schedule)
    doc = {
        "command": "oracle",
        "proposition": args.prop,
        "mu": args.mu,
        "nu": args.nu,
        "tol": args.tol,
        "eps_schedule": list(args.eps_schedule.values),
        "report": report.to_json_dict(),
    }
    _emit(json.dumps(doc, indent=1) + "\n", args.output)
    return EXIT_OK if report.rel_deviation <= args.tol else EXIT_DEVIATION


def cmd_selftest(args):
    ok = run_selftest(only=args.only, tol_override=args.tol)
    return EXIT_OK if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wsdist",
        description=(
            "Critical-exponent Weber-Schafheitlin integrals as distributions: "
            "densities, pairings, and direct-quadrature validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bump_default=None):
        p.add_argument("--mu", type=_parse_finite, required=True,
                       help="order of the s-scaled kernel")
        p.add_argument("--nu", type=_parse_finite, required=True,
                       help="order of the unit-argument Bessel factor")
        p.add_argument("--prop", type=int, choices=(1, 2), default=1,
                       help="1: Hankel-Bessel result, 2: Bessel-Bessel result")
        p.add_argument("--output", default=None, help="write to this path instead of stdout")
        if bump_default is not None:
            p.add_argument("--bump", type=_parse_bump, default=_parse_bump(bump_default),
                           help="test function 'center,halfwidth[,amplitude]'")

    p = sub.add_parser("density", help="tabulate the closed-form density on an s-grid (CSV)")
    common(p)
    p.add_argument("--s-min", type=_parse_finite, default=0.25)
    p.add_argument("--s-max", type=_parse_finite, default=3.0)
    p.add_argument("--s-steps", type=int, default=56)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("pair", help="pair the distribution with a bump test function (JSON)")
    common(p, bump_default="1.0,0.5,1.0")
    p.add_argument("--alpha", type=_parse_finite, default=0.0,
                   help="decomposition parameter of the PV split")
    p.add_argument("--tol", type=_parse_tol, default=1e-9,
                   help="quadrature tolerance of the pairing")
    p.add_argument("--measure", choices=("lebesgue", "haar"), default="lebesgue")
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("oracle", help="epsilon-extrapolated direct quadrature vs closed form (JSON)")
    common(p, bump_default="1.0,0.5,1.0")
    p.add_argument("--tol", type=_parse_tol, default=1e-4,
                   help="largest accepted relative deviation (exit 4 above it)")
    p.add_argument("--eps-schedule", type=_parse_schedule, default=DEFAULT_EPS_SCHEDULE,
                   help="comma-separated decreasing regularization parameters")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("selftest", help="run the built-in invariant checks")
    p.add_argument("--only", choices=tuple(dict.fromkeys(m for m, _, _ in CHECKS)),
                   default=None, help="restrict to the checks of one module")
    p.add_argument("--tol", type=_parse_tol, default=None,
                   help="override every check tolerance (1e-30 forces failure)")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None):
    try:
        # argument parsing is inside: --bump builds a TestFunction
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except OrderError as exc:
        print(f"order constraint violated: {exc}", file=sys.stderr)
        return EXIT_ORDER
    except (ToleranceError, NonConvergenceError) as exc:
        print(f"quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONV
    except WsdistError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
