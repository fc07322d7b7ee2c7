"""The benchmark's span tracer (perfbench/tracing.py) rebinds names the
package's modules import from each other.  Renaming or inlining one of
them breaks only a traced benchmark run, so this runs the tracer once
over a pairing and a density and checks that every layer it reports
recorded calls, and that uninstalling it restores each module."""

import importlib.util
from pathlib import Path

import wsdist
from wsdist import cli, distributions, oracle, weber_schafheitlin

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_every_layer_and_restores_the_modules(capsys):
    tracing = _load_tracing()
    modules = (cli, oracle, distributions, weber_schafheitlin)
    before = [dict(vars(m)) for m in modules]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer, wsdist)
    try:
        assert cli.main(["pair", "--mu", "0", "--nu", "1"]) == 0
        assert cli.main(["density", "--mu", "0.5", "--nu", "1.5", "--prop", "2"]) == 0
    finally:
        restore()
    capsys.readouterr()
    for name in ("distributions.pair", "weber_schafheitlin.density", "specfun.hyp2f1",
                 "quadrature.pv", "quadrature.tanh_sinh"):
        assert tracer.counts.get((name, "calls"), 0) > 0, name
    for module, names in zip(modules, before):
        restored = vars(module)
        assert all(restored[k] is v for k, v in names.items()), module.__name__
