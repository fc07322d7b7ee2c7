"""Span tracing at the package's layer boundaries, from outside the package.

`install(tracer, wsdist)` replaces the public functions each wsdist
module has bound from the next one (for example
`wsdist.oracle.hankel1_complex` or `wsdist.distributions.tanh_sinh`)
with wrappers that record one span per call; it returns a function that puts the originals back.  Nothing
inside the package is edited, and an untraced run installs nothing.

Spans live in memory as flat arrays (name, parent, start, end) and are
written out once, at the end of the run.  Self time is accumulated as
the spans close: a span's duration minus the summed durations of its
direct children, which is the part of its interval the children cover
because calls in the closed loop nest strictly.
"""

import dataclasses
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_s = {}
        self.counts = {}  # (span name, counter) -> total
        self._stack = []  # [span index, covered-by-children seconds]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = 0.0
        return self._ids[name]

    def count(self, name, counter, amount=1):
        key = (name, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, counters=None):
        """fn wrapped in a span called `name`; counters(args, result)
        returns {counter: amount} to add for the call."""
        nid = self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.start.append(t0)
            self.end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.end[idx] = t1
                self.self_s[name] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                self.count(name, "calls")
            if counters is not None:
                for counter, amount in counters(args, result).items():
                    self.count(name, counter, amount)
            return result

        return traced

    def durations(self, name):
        """Durations in seconds of every span called `name`."""
        if name not in self._ids:
            return np.empty(0)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        mask = ids == self._ids[name]
        return (np.frombuffer(self.end)[mask] - np.frombuffer(self.start)[mask])

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _points(args, result):
    return {"points": int(np.size(args[1]))}


def _quadrature(args, result):
    return {"evaluations": result.evaluations, "nonconverged": int(not result.converged)}


def _wrap_expansion(tracer, name, make):
    """Wrap a distribution factory so the F and h point evaluations of
    every DistributionExpansion it returns are spans called `name`."""

    def factory(*args, **kwargs):
        dist = make(*args, **kwargs)
        return dataclasses.replace(
            dist, F=tracer.wrap(name, dist.F), h=tracer.wrap(name, dist.h)
        )

    return factory


def install(tracer, wsdist):
    """Install the boundary wrappers on the imported `wsdist` package;
    returns the function that undoes it."""
    m = wsdist
    plan = [
        # cli -> distributions, oracle
        (m.cli, "pair", "distributions.pair", None),
        (m.cli, "pairing_oracle", "oracle.report", None),
        (m.cli, "jj_pairing_oracle", "oracle.report", None),
        # oracle -> its own per-eps pairing and point integrals
        (m.oracle, "_pairing_at_eps", "oracle.pairing", None),
        (m.oracle, "I_direct", "oracle.I_direct", None),
        (m.oracle, "pair", "distributions.pair", None),
        # oracle, distributions -> quadrature
        (m.oracle, "integrate_semiinfinite_damped", "quadrature.semiinfinite", _quadrature),
        (m.oracle, "richardson", "quadrature.richardson", None),
        (m.distributions, "integrate_pv", "quadrature.pv", _quadrature),
        (m.distributions, "integrate_finite", "quadrature.finite", _quadrature),
        (m.distributions, "tanh_sinh", "quadrature.tanh_sinh", _quadrature),
        # oracle, weber_schafheitlin -> specfun
        (m.oracle, "hankel1_complex", "specfun.hankel1", _points),
        (m.oracle, "bessel_j", "specfun.bessel_j", _points),
        (m.weber_schafheitlin, "hyp2f1", "specfun.hyp2f1", None),
        (m.weber_schafheitlin, "_boundary_below", "specfun.hyp2f1", None),
        (m.weber_schafheitlin, "_one_minus_z_log_parts", "specfun.hyp2f1", None),
        (m.weber_schafheitlin, "gamma", "specfun.gamma", None),
    ]
    saved = []
    for module, attr, name, counters in plan:
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(name, original, counters))
    # cli, oracle -> weber_schafheitlin: the densities of the returned expansions
    for module in (m.cli, m.oracle):
        for attr in ("prop1_distribution", "prop2_distribution"):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr,
                    _wrap_expansion(tracer, "weber_schafheitlin.density", original))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def _quantile(values, q):
    if len(values) == 0:
        return 0.0
    return float(np.quantile(values, q))


def layer_metrics(tracer):
    """Every per-layer metric of BENCHMARK.json except trace.overhead_ratio."""
    out = {}

    def put(key, value, unit):
        out[key] = {"value": float(value), "unit": unit}

    def calls(name):
        return tracer.counts.get((name, "calls"), 0)

    def self_s(name):
        return tracer.self_s.get(name, 0.0)

    put("cli.calls", calls("cli"), "count")
    put("cli.self_s", self_s("cli"), "s")

    put("weber_schafheitlin.density.calls", calls("weber_schafheitlin.density"), "count")
    put("weber_schafheitlin.density.self_s", self_s("weber_schafheitlin.density"), "s")
    put("weber_schafheitlin.density.us_p50",
        1e6 * _quantile(tracer.durations("weber_schafheitlin.density"), 0.5), "us")

    put("specfun.hyp2f1.calls", calls("specfun.hyp2f1"), "count")
    put("specfun.hyp2f1.self_s", self_s("specfun.hyp2f1"), "s")
    put("specfun.gamma.calls", calls("specfun.gamma"), "count")
    for short, name in (("hankel1", "specfun.hankel1"), ("bessel_j", "specfun.bessel_j")):
        points = tracer.counts.get((name, "points"), 0)
        put(f"specfun.{short}.points", points, "count")
        put(f"specfun.{short}.self_s", self_s(name), "s")
        put(f"specfun.{short}.ns_per_point",
            1e9 * self_s(name) / points if points else 0.0, "ns")

    for engine in ("semiinfinite", "pv", "tanh_sinh", "finite"):
        name = f"quadrature.{engine}"
        put(f"{name}.calls", calls(name), "count")
        put(f"{name}.evaluations", tracer.counts.get((name, "evaluations"), 0), "count")
        put(f"{name}.self_s", self_s(name), "s")
    put("quadrature.semiinfinite.nonconverged",
        tracer.counts.get(("quadrature.semiinfinite", "nonconverged"), 0), "count")
    put("quadrature.richardson.calls", calls("quadrature.richardson"), "count")

    put("distributions.pair.calls", calls("distributions.pair"), "count")
    put("distributions.pair.self_s", self_s("distributions.pair"), "s")
    put("distributions.pair.ms_p50",
        1e3 * _quantile(tracer.durations("distributions.pair"), 0.5), "ms")

    idirect = tracer.durations("oracle.I_direct")
    put("oracle.I_direct.calls", calls("oracle.I_direct"), "count")
    put("oracle.I_direct.ms_p50", 1e3 * _quantile(idirect, 0.5), "ms")
    put("oracle.I_direct.ms_p90", 1e3 * _quantile(idirect, 0.9), "ms")
    put("oracle.I_direct.self_s", self_s("oracle.I_direct"), "s")
    put("oracle.pairing.self_s", self_s("oracle.pairing"), "s")
    # 64 panels x (4 + 2) Gauss nodes = 384 I_direct calls per eps before refinement
    per_eps = calls("oracle.pairing")
    put("oracle.refine_ratio",
        calls("oracle.I_direct") / (384.0 * per_eps) if per_eps else 0.0, "ratio")
    return out

