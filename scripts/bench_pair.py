"""Pairing cost, counted and timed, for every pair-golden case.

    python scripts/bench_pair.py --parent DIR --output BENCH.json

Runs each case of tests/data/pair_golden.json (`wsdist pair` with its
argv) in-process through `wsdist.cli.main`, once on the package of this
checkout and once on the package under DIR/src (a checkout of the commit
to compare with, e.g. made by `git archive`), each in its own
interpreter, on a freshly imported package per run, so every run starts
with empty parameter caches as a first pairing does.  Per case it
records:

* nodes: the points at which the remainder quadrature asks for its
  integrand, taken from `distributions._q_alpha`, which the remainder
  calls on every node; zero_weight_nodes: those where the test function
  (the weight `distributions._pair_weighted` gets) is 0;
  distinct_live_nodes: per remainder call, the distinct nodes of nonzero
  weight, summed: the kernel evaluations of a tree that evaluates h once
  per distinct node where the weight is nonzero;
* kernel_evaluations: calls of `weber_schafheitlin._kernel_at`, one per
  scalar density kernel evaluation;
* series_terms: the terms the 2F1 series add to their sums, counted as
  the executions of the lines of specfun/hyp.py that begin with
  `acc += term`, by a line tracer in a run of its own;
  float_series_terms: those added to a float sum (`acc` a float, where
  a series runs in float on a real argument), the rest to a complex one;
* wall_s: the best of three untraced runs, each on a fresh import;
* stdout_sha256 and matches_golden: the case's output and whether it is
  the golden's byte for byte.

None but wall_s depends on the machine.

    python scripts/bench_pair.py --tree DIR

prints the measurement of the package under DIR/src as one JSON object.
CI runs it on the checkout itself (`--tree .`): a rename of a name it
wraps fails there, and so does a case that reaches no density kernel or
no series term, or, on this checkout, sums no series term in float: the
densities' arguments are real, so such a case has fallen back to complex
arithmetic.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "pair_golden.json"
TIMED_RUNS = 3
COUNTS = ("nodes", "zero_weight_nodes", "distinct_live_nodes", "kernel_evaluations")


def _fresh():
    """cli, distributions, weber_schafheitlin and specfun.hyp of a new import
    of the package."""
    for name in [n for n in sys.modules if n == "wsdist" or n.startswith("wsdist.")]:
        del sys.modules[name]
    return [importlib.import_module("wsdist." + name)
            for name in ("cli", "distributions", "weber_schafheitlin", "specfun.hyp")]


def _run(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _counted(argv):
    """The node and kernel counts of one run of argv."""
    cli, distributions, ws, _ = _fresh()
    counts = dict.fromkeys(COUNTS, 0)
    weights = []
    pair_weighted, q_alpha, kernel_at = (
        distributions._pair_weighted, distributions._q_alpha, ws._kernel_at
    )

    def spy_pair_weighted(dist, weight, support, tol):
        weights.append(weight)
        return pair_weighted(dist, weight, support, tol)

    def spy_q_alpha(alpha, s):
        s = np.asarray(s, dtype=float)
        live = weights[-1](s) != 0.0
        counts["nodes"] += s.size
        counts["zero_weight_nodes"] += s.size - int(np.count_nonzero(live))
        counts["distinct_live_nodes"] += len(set(s[live].tolist()))
        return q_alpha(alpha, s)

    def spy_kernel_at(*args):
        counts["kernel_evaluations"] += 1
        return kernel_at(*args)

    distributions._pair_weighted = spy_pair_weighted
    distributions._q_alpha = spy_q_alpha
    ws._kernel_at = spy_kernel_at
    _run(cli, argv)
    return counts


def _series_terms(argv):
    """The `acc += term` lines of specfun/hyp.py executed in one run of
    argv: all of them, and those where `acc` is a float."""
    cli, _, _, hyp = _fresh()
    path = hyp.__file__
    lines = {
        i for i, text in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1)
        if text.strip().startswith("acc += term")
    }
    terms = {"series_terms": 0, "float_series_terms": 0}

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            terms["series_terms"] += 1
            terms["float_series_terms"] += type(frame.f_locals["acc"]) is float
        return local

    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == path else None)
    try:
        _run(cli, argv)
    finally:
        sys.settrace(None)
    return terms


def _wall(argv):
    best = float("inf")
    for _ in range(TIMED_RUNS):
        cli = _fresh()[0]
        t0 = time.perf_counter()
        code, out = _run(cli, argv)
        best = min(best, time.perf_counter() - t0)
    return best, code, out


def measure(tree):
    """Every pair-golden case on the package under tree/src."""
    sys.path.insert(0, str(Path(tree) / "src"))
    this_checkout = Path(tree).resolve() == ROOT
    cases = []
    for golden in json.loads(GOLDEN.read_text(encoding="utf-8")):
        argv = golden["argv"]
        wall, code, out = _wall(argv)
        row = {"argv": argv, "exit_code": code, **_counted(argv),
               **_series_terms(argv), "wall_s": round(wall, 5),
               "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
               "matches_golden": out == golden["stdout"]}
        if not row["kernel_evaluations"]:
            sys.exit(f"{' '.join(argv)}: no weber_schafheitlin._kernel_at call")
        if not row["series_terms"]:
            sys.exit(f"{' '.join(argv)}: no `acc += term` line of specfun/hyp.py ran")
        if this_checkout and not row["float_series_terms"]:
            sys.exit(f"{' '.join(argv)}: no 2F1 series term was summed in float")
        cases.append(row)
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
    keys = (*COUNTS, "series_terms", "float_series_terms", "wall_s")
    summary = [
        {"case": " ".join(p["argv"][1:]),
         **{k: [p[k], c[k]] for k in keys},
         "stdout_identical": p["stdout_sha256"] == c["stdout_sha256"],
         "matches_golden": [p["matches_golden"], c["matches_golden"]]}
        for p, c in zip(parent, change)
    ]
    totals = {k: [round(sum(r[k] for r in tree), 5) for tree in (parent, change)] for k in keys}
    doc = {
        "script": "scripts/bench_pair.py",
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "pairs_are": "[parent, change]",
        "totals": totals,
        "summary": summary,
        "parent": parent,
        "change": change,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"totals": totals}))
    for row in summary:
        print(json.dumps(row))


if __name__ == "__main__":
    main()
