"""numpy is the only runtime dependency of wsdist.

The probe runs `wsdist selftest` and a short `wsdist oracle` (every
specfun route the command line takes: gamma, J, K and H1, 2F1) in a
fresh interpreter, then checks that neither mpmath nor scipy, which the
tests use as references, was imported.  It also runs as a script, on
whichever wsdist the interpreter imports:

    python tests/test_runtime_dependencies.py
"""

import os
import subprocess
import sys
from pathlib import Path

PROBE = """
import contextlib, io, sys
from wsdist import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["selftest"]),
             cli.main(["oracle", "--mu", "0", "--nu", "1", "--tol", "1e-2",
                       "--eps-schedule", "0.2,0.1,0.05"])]
loaded = sorted({m.split(".")[0] for m in sys.modules} & {"mpmath", "scipy"})
sys.exit(f"exit codes {codes}" if any(codes) else
         f"imported at runtime: {loaded}" if loaded else 0)
"""


def test_selftest_and_oracle_import_neither_mpmath_nor_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


if __name__ == "__main__":
    sys.exit(subprocess.run([sys.executable, "-c", PROBE]).returncode)
