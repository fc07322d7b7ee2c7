"""Oracle cost, counted and timed, for the four acceptance oracle cases.

    python scripts/bench_oracle.py --parent DIR --output BENCH.json

Runs the cases (prop 1 at orders (0, 1) and (0.5, 1.5), prop 2 at (1, 1)
and (0, 1), bump 1,0.5, the default eps schedule) in-process, once on the
package of this checkout and once on the package under DIR/src (a
checkout of the commit to compare with, e.g. made by `git archive`), each
in its own interpreter.  Per case and per eps it records the
`_direct_rows` calls and rows, the semi-infinite quadrature
evaluations (the integrand's, on the panels), and per case the E_n
values of the closed-form Hankel tail (`tail_expn_points`, the entries
that `oracle.expn` returns; 0 in a tree without it) and how many of
them were computed directly (`tail_expn_direct`: the points of
`specfun.expint`'s `_series` and `_continued_fraction`; the rest come
from the recurrence), and the points of K's base pair per route (each
`_k_pair_*` function of `specfun.besselk`: Temme's series, the Taylor
lattice, CF2 and Horner, or whatever routes the tree has; here CF2 counts
only the Taylor nodes it seeds, and at half-integer order every point
counts under Horner), the points of `bessel_j`, in all, on distinct k
(`j_distinct_k`; the rest, `j_repeated_points`, are J values computed
again at a k already met in the case) and per route
(`J_ROUTES`: `specfun.besselj`'s ascending series `_j_series` on
x^2/4 <= |nu| + 1, the Hankel asymptotic series `_jy_asymptotic` on the
bands past x = 15 that it serves, and Miller's recurrence `_miller` on
the rest); none of these depend on the machine.  The cases run in that order in one
process, and a tree that keeps K's CF2 base pairs per order for the
process (`besselk._lattice_pairs`) seeds a node once for all of them, so
a case's CF2 count depends on the cases run before it: (0.5, 1.5)
reaches no CF2 (its half-integer order takes Horner everywhere), and the
later cases with K at mu0 = 0, prop 2 (1, 1) and (0, 1), count only the
nodes that prop 1 (0, 1) did not meet.  It also records the wall time
of each pairing, which does.  The eps_trace digest of each case shows
whether the two trees agree bit for bit, and its largest absolute
difference how far apart they are when they do not.

    python scripts/bench_oracle.py --tree DIR

prints the measurement of the package under DIR/src as one JSON object.
CI runs it on the checkout itself (`--tree .`): a rename of a name it
wraps (`oracle._direct_rows`, `oracle._pairing_at_eps`,
`oracle.integrate_semiinfinite_damped`, `oracle.bessel_j`) fails there,
and so does a case in which no `besselk._k_pair_*` route is called, or,
on this checkout, a case in which J reaches no point on one of `J_ROUTES`,
computes J twice at the same k, no row adds a Hankel tail, or the tail
computes more than one E_n directly per row and sign.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CASES = [(1, 0.0, 1.0), (1, 0.5, 1.5), (2, 1.0, 1.0), (2, 0.0, 1.0)]
BUMP = (1.0, 0.5, 1.0)
# J's routes, by the name of the function of specfun.besselj that serves each
J_ROUTES = {"series": "_j_series", "asymptotic": "_jy_asymptotic", "miller": "_miller"}
# the functions of specfun.expint that compute an E_n directly
EXPN_ROUTES = ("_series", "_continued_fraction")


def measure(tree):
    """The four cases on the package under tree/src, counted per eps."""
    sys.path.insert(0, str(Path(tree) / "src"))
    from wsdist import oracle
    from wsdist.specfun import besselj, besselk
    from wsdist.distributions import TestFunction
    from wsdist.quadrature import DEFAULT_EPS_SCHEDULE
    from wsdist.weber_schafheitlin import OrderPair

    direct_rows, engine, pairing = (
        oracle._direct_rows, oracle.integrate_semiinfinite_damped, oracle._pairing_at_eps
    )
    steps = []
    points = {}

    def counted(key, fn):
        """fn, adding the size of its second argument to points[key]."""
        def wrapper(*args):
            points[key] = points.get(key, 0) + args[1].size
            return fn(*args)
        return wrapper

    for name in [n for n in vars(besselk) if n.startswith("_k_pair_")]:
        setattr(besselk, name, counted("k_" + name[len("_k_pair_"):], getattr(besselk, name)))
    j_nodes = []  # every k at which the oracle computes J, per case
    bessel_j = oracle.bessel_j

    def recorded_j(nu, k):
        j_nodes.append(np.ravel(k).copy())
        return bessel_j(nu, k)

    oracle.bessel_j = counted("j", recorded_j)
    for route, name in J_ROUTES.items():
        setattr(besselj, name, counted("j_" + route, getattr(besselj, name)))
    expint = sys.modules.get("wsdist.specfun.expint")  # None in a tree before the tail
    for name in EXPN_ROUTES:
        if hasattr(expint, name):
            setattr(expint, name, counted("expn_direct", getattr(expint, name)))
    if hasattr(oracle, "expn"):
        expn = oracle.expn

        def counted_expn(*args):
            """expn, adding the E_n values it returns to points["expn"]."""
            out = expn(*args)
            points["expn"] = points.get("expn", 0) + out.size
            return out

        oracle.expn = counted_expn

    def counted_rows(*args):  # (orders, s, eps, ...)
        steps[-1]["direct_rows_calls"] += 1
        steps[-1]["rows"] += len(args[1])
        return direct_rows(*args)

    def counted_engine(*args, **kwargs):
        res = engine(*args, **kwargs)
        steps[-1]["semiinfinite_evaluations"] += res.evaluations
        return res

    def timed_pairing(*args):  # (orders, g, eps, ...)
        steps.append({"eps": args[2], "direct_rows_calls": 0, "rows": 0,
                      "semiinfinite_evaluations": 0})
        t0 = time.perf_counter()
        val = pairing(*args)
        steps[-1]["wall_s"] = round(time.perf_counter() - t0, 4)
        return val

    oracle._direct_rows = counted_rows
    oracle.integrate_semiinfinite_damped = counted_engine
    oracle._pairing_at_eps = timed_pairing
    cases = []
    for prop, mu, nu in CASES:
        run = oracle.pairing_oracle if prop == 1 else oracle.jj_pairing_oracle
        steps.clear()
        points.clear()
        j_nodes.clear()
        t0 = time.perf_counter()
        report = run(OrderPair(mu, nu), TestFunction(*BUMP), DEFAULT_EPS_SCHEDULE)
        wall = time.perf_counter() - t0
        if not any(k.startswith("k_") for k in points):
            sys.exit(f"case prop {prop} ({mu}, {nu}): no besselk._k_pair_* route was called")
        this_checkout = Path(tree).resolve() == ROOT
        for route, name in J_ROUTES.items():
            # an older tree may predate a route: its Miller served no oracle point
            if this_checkout and not points.get("j_" + route):
                sys.exit(f"case prop {prop} ({mu}, {nu}): J never reached besselj.{name}")
        distinct_k = np.unique(np.concatenate(j_nodes)).size if j_nodes else 0
        repeated = points.get("j", 0) - distinct_k
        # an older tree may compute J again on the k-nodes rows share
        if this_checkout and repeated:
            sys.exit(f"case prop {prop} ({mu}, {nu}): J computed {repeated} times "
                     "at a k already met")
        if this_checkout and not points.get("expn"):
            sys.exit(f"case prop {prop} ({mu}, {nu}): no row added a Hankel tail")
        per_eps = [dict(s) for s in steps]
        rows = sum(s["rows"] for s in per_eps)
        direct = points.get("expn_direct", 0)
        if this_checkout and direct > 2 * rows:
            sys.exit(f"case prop {prop} ({mu}, {nu}): {direct} direct E_n evaluations, "
                     f"more than one per row and sign ({2 * rows})")
        cases.append({
            "prop": prop, "mu": mu, "nu": nu,
            "direct_rows_calls": sum(s["direct_rows_calls"] for s in per_eps),
            "rows": rows,
            "semiinfinite_evaluations": sum(s["semiinfinite_evaluations"] for s in per_eps),
            "tail_expn_points": points.get("expn", 0),
            "tail_expn_direct": direct,
            "k_points": {k[2:]: v for k, v in sorted(points.items()) if k.startswith("k_")},
            "j_points": points.get("j", 0),
            "j_distinct_k": distinct_k,
            "j_repeated_points": repeated,
            "j_route_points": {r: points.get("j_" + r, 0) for r in J_ROUTES},
            "wall_s": round(wall, 4),
            "rel_deviation": report.rel_deviation,
            "eps_trace_sha256": hashlib.sha256(repr(report.eps_trace).encode()).hexdigest(),
            "eps_trace": [[e, complex(v).real, complex(v).imag] for e, v in report.eps_trace],
            "per_eps": per_eps,
        })
    return cases


def run_tree(tree):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--tree", str(tree)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", help="measure the package under TREE/src and print it")
    parser.add_argument("--parent", help="the checkout to compare this one with")
    parser.add_argument("--output", help="where to write the comparison (JSON)")
    args = parser.parse_args()
    if args.tree:
        print(json.dumps(measure(args.tree)))
        return
    if not (args.parent and args.output):
        parser.error("give --tree, or --parent and --output")
    parent, change = run_tree(Path(args.parent).resolve()), run_tree(ROOT)
    summary = []
    for p, c in zip(parent, change):
        summary.append({
            "case": f"prop {p['prop']} ({p['mu']}, {p['nu']})",
            "direct_rows_calls": [p["direct_rows_calls"], c["direct_rows_calls"]],
            "rows": [p["rows"], c["rows"]],
            "semiinfinite_evaluations": [p["semiinfinite_evaluations"],
                                         c["semiinfinite_evaluations"]],
            "tail_expn_points": [p.get("tail_expn_points", 0), c["tail_expn_points"]],
            "tail_expn_direct": [p.get("tail_expn_direct", 0), c["tail_expn_direct"]],
            "k_points": [p["k_points"], c["k_points"]],
            "j_points": [p["j_points"], c["j_points"]],
            "j_distinct_k": [p["j_distinct_k"], c["j_distinct_k"]],
            "j_repeated_points": [p["j_repeated_points"], c["j_repeated_points"]],
            "j_route_points": [p["j_route_points"], c["j_route_points"]],
            "wall_s": [p["wall_s"], c["wall_s"]],
            "eps_trace_identical": p["eps_trace_sha256"] == c["eps_trace_sha256"],
            "eps_trace_max_abs_diff": max(
                abs(complex(*a[1:]) - complex(*b[1:]))
                for a, b in zip(p["eps_trace"], c["eps_trace"])
            ),
            "rel_deviation": [p["rel_deviation"], c["rel_deviation"]],
        })
    doc = {
        "script": "scripts/bench_oracle.py",
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "pairs_are": "[parent, change]",
        "summary": summary,
        "parent": parent,
        "change": change,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for row in summary:
        print(json.dumps(row))


if __name__ == "__main__":
    main()
