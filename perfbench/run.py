"""wsdist benchmark: closed-loop CLI workloads, timed end to end.

    python3 perfbench/run.py --workload {pair,density,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One client calls `wsdist.cli.main(argv)`
in this process and starts the next call only when the previous one
has returned; each call writes its output to a file under .perfbench/,
which is read back after the call and checked after the timed loop.
The seed fixes a run's list of ops; the run repeats them in passes for
about S seconds, and a speed probe scales every time to a reference
machine speed (speed.py).  --trace 0 prints the end-to-end metrics;
--trace 1 runs the same loop, replays the seeded ops once with the
layer wrappers installed and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metric definitions.
"""

import os

# single-threaded numerics; must precede the first numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
# each command's own default tolerance, whatever the caller's environment
os.environ.pop("WS_TOL", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 4  # per set-up; a run sets up before each pass and after the last
EPS = 2.0 ** -52
# one density grid and one pairing: the first calls users pay for
WARMUP = (["density", "--mu", "0", "--nu", "1", "--s-steps", "4"],
          ["pair", "--mu", "0", "--nu", "1"])


@dataclass
class Result:
    code: int
    text: str
    seconds: float
    error: str = ""


def _fresh_cli():
    for name in [m for m in sys.modules if m == "wsdist" or m.startswith("wsdist.")]:
        del sys.modules[name]
    return importlib.import_module("wsdist.cli")


def setup(out_path, clock=perf_counter):
    """SETUP_REPS fresh package imports, each followed by the warm-up
    calls.  Returns their times and the last import's `cli`."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        cli = _fresh_cli()
        for argv in WARMUP:
            if cli.main(argv + ["--output", str(out_path)]) != 0:
                raise RuntimeError(f"warm-up call {argv} failed")
        times.append(clock() - t0)
    return times, cli


def call(entry, argv, out_path, clock=perf_counter):
    out_path.unlink(missing_ok=True)
    error = ""
    t0 = clock()
    try:
        code = entry(argv + ["--output", str(out_path)])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an uncaught package error is a failed op, recorded by type
        code, error = 1, type(exc).__name__
    seconds = clock() - t0
    # oracle writes its report before exiting 4, so read whatever was written
    text = out_path.read_text(encoding="utf-8") if out_path.exists() else ""
    return Result(code, text, seconds, error)


@dataclass
class Run:
    ops: list
    results: list  # of the first pass, which the checks read
    op_times: list  # per seeded op, its mean scaled time over the passes
    pass_seconds: list  # per pass, the raw time of its seeded ops
    scales: list  # per pass with its set-up, the speed probe's scale
    round_sizes: list  # seeded ops per round
    setup_times: list  # scaled
    mismatched: list  # seeded ops whose output changed between passes
    cli: object  # the last import, on which a traced replay installs its wrappers


def run_passes(rounds, seconds, min_passes, out_path):
    """Closed loop over a fixed list of ops: the anchor round, then the
    seeded rounds.  After a set-up, the first pass runs every op; each
    further pass, after a set-up of its own, runs the seeded ops again,
    up to min_passes passes and beyond as long as a pass can be expected
    to end within `seconds` of the start, not counting the anchors.  A
    last set-up follows the last pass, so the set-up times span the run.
    A speed probe runs throughout; the times of a pass and of the set-up
    before it are scaled by the probe's scale over that stretch (see
    speed.py)."""
    ops = [op for batch in rounds for op in batch]
    seeded = [i for i, op in enumerate(ops) if not op.anchor]
    times = [[] for _ in seeded]
    results, setup_times, pass_seconds, scales, mismatched = None, [], [], [], []
    with speed.SpeedProbe() as probe:
        start = probe.now()
        while True:
            mark, pass_start = len(probe.samples), probe.now()
            raw_setup, cli = setup(out_path, probe.now)
            if results is None:
                results = [call(cli.main, op.argv, out_path, probe.now) for op in ops]
                done = [results[i] for i in seeded]
                anchor_s = sum(r.seconds for op, r in zip(ops, results) if op.anchor)
                start += anchor_s
            else:
                done = [call(cli.main, ops[i].argv, out_path, probe.now) for i in seeded]
                mismatched += [" ".join(ops[i].argv) for i, res in zip(seeded, done)
                               if (res.code, res.text) != (results[i].code, results[i].text)]
            scales.append(probe.scale(mark))
            setup_times += [scales[-1] * t for t in raw_setup]
            for op_times, res in zip(times, done):
                op_times.append(scales[-1] * res.seconds)
            pass_seconds.append(sum(res.seconds for res in done))
            last_pass = probe.now() - pass_start - anchor_s * (len(pass_seconds) == 1)
            if len(pass_seconds) >= min_passes and probe.now() - start + last_pass > seconds:
                break
        mark = len(probe.samples)
        raw_setup, cli = setup(out_path, probe.now)
        setup_times += [probe.scale(mark) * t for t in raw_setup]
    return Run(ops, results, [statistics.fmean(t) for t in times], pass_seconds, scales,
               [len(batch) for batch in rounds[1:]], setup_times, mismatched, cli)


def check(workload, ops, results):
    """Per-op (point, relative error) pairs, then the failed ops split
    into known defects and unexpected ones."""
    if workload == "pair":
        errors = wl.check_pair(ops, results)
    else:
        errors = {}
        for i, (op, res) in enumerate(zip(ops, results)):
            if res.text:
                errors[i] = (wl.check_density(op, res.text) if workload == "density"
                             else wl.check_oracle(res.text))
    tol = {"pair": wl.PAIR_TOL, "density": wl.DENSITY_TOL, "oracle": wl.ORACLE_TOL}[workload]
    known, unexpected = {}, []
    for i, (op, res) in enumerate(zip(ops, results)):
        bad = [(s, e) for s, e in errors.get(i, []) if not (math.isfinite(e) and e <= tol)]
        if res.code == 0 and not bad:
            continue
        label = wl.known_failure(op, res, bad)
        if label is None:
            where = " ".join(f"s={s!r} err {e:.3e}" if s is not None else f"err {e:.3e}"
                             for s, e in bad)
            unexpected.append(f"exit {res.code} {res.error} {where}: {' '.join(op.argv)}")
        else:
            known[label] = known.get(label, 0) + 1
    all_errors = [e for errs in errors.values() for _, e in errs]
    return all_errors, known, unexpected


def end_to_end(run, peak_rss_mb, all_errors, n_failed):
    """Timings cover the seeded ops, each at its mean scaled time over
    the passes; a round's time is the sum of its ops'.  The anchors count in
    pass_ratio and digits_lost only.  A relative error above 1 counts as
    1: no correct digit is as wrong as an output gets."""
    times_ms = [1e3 * t for t in run.op_times]
    ends = list(itertools.accumulate(run.round_sizes))
    round_times = [sum(run.op_times[i:j]) for i, j in zip([0] + ends, ends)]
    worst = min(max(all_errors, default=EPS), 1.0)
    return {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "wall_s": (statistics.median(round_times), "s"),
        "ops_per_s": (len(run.op_times) / sum(run.op_times), "1/s"),
        "op_ms_p50": (_quantile(times_ms, 0.5), "ms"),
        "op_ms_p90": (_quantile(times_ms, 0.9), "ms"),
        "pass_ratio": (1.0 - n_failed / len(run.ops), "ratio"),
        "digits_lost": (math.log10(max(worst, EPS) / EPS), "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the mass of Beta(p(n+1), (1-p)(n+1)) over
    ((i-1)/n, i/n).  It moves less than one or two order statistics do
    when the values form clusters, as the op times of a fixed design do:
    over five pair runs it cut the spread of op_ms_p90 from 0.085 to 0.055."""
    v = np.sort(values)
    n = len(v)
    if n == 1:
        return float(v[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    x = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.concatenate([[0.0], x]), cdf / cdf[-1]))
    return float(weights @ v)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wsdist" / "cli.py").is_file():
        print(f"wsdist sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"output-{args.workload}.txt"
    rounds = list(itertools.islice(wl.WORKLOADS[args.workload](args.seed),
                                   1 + wl.ROUNDS[args.workload]))
    run = run_passes(rounds, args.seconds, wl.MIN_PASSES[args.workload], out_path)
    # before the checks, whose mpmath references are not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops, results = run.ops, run.results

    all_errors, known, unexpected = check(args.workload, ops, results)
    unexpected += [f"output differs between passes: {m}" for m in run.mismatched]
    n_failed = sum(known.values()) + len(unexpected)
    metrics = end_to_end(run, peak_rss_mb, all_errors, n_failed)
    correct = not unexpected

    if args.trace:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, sys.modules["wsdist"])
        traced_entry = tracer.wrap("cli", run.cli.main)
        seeded = [(op, res) for op, res in zip(ops, results) if not op.anchor]
        traced = [call(traced_entry, op.argv, out_path) for op, _ in seeded]
        restore()
        changed = [" ".join(op.argv) for (op, a), b in zip(seeded, traced)
                   if (a.code, a.text) != (b.code, b.text)]
        if changed:
            correct = False
            unexpected += [f"traced output differs: {c}" for c in changed]
        tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
        layer = tracing.layer_metrics(tracer)
        layer["trace.overhead_ratio"] = {
            "value": sum(r.seconds for r in traced) / statistics.median(run.pass_seconds),
            "unit": "ratio"}
        report = layer
    else:
        report = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}

    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  "
          f"seeded rounds {len(run.round_sizes)}  passes "
          + " ".join(f"{t:.2f}" for t in run.pass_seconds) + " s raw, speed scale "
          + " ".join(f"{x:.3f}" for x in run.scales))
    for name, m in report.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for label, n in sorted(known.items()):
        reason = wl.KNOWN_ANCHORS.get(label) or wl.KNOWN_REGIONS[label]
        print(f"  known failure x{n}: {label}: {reason}")
    for line in unexpected:
        print(f"  UNEXPECTED FAILURE: {line}")
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": n_failed,
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
