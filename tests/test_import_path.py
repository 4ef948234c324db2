"""The `riccikit check` path runs without scipy's integrate, interpolate,
linalg, special, optimize and sparse subpackages, and the spectral-gap
oracle loads no scipy module at all: riccikit needs only numpy.

The checks run in fresh interpreters: the test process has imported
scipy.integrate already (pyproject's `filterwarnings` names one of its
warnings).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.special",
         "scipy.optimize", "scipy.sparse")

_PROGRAM = """
import json, sys
import riccikit, riccikit.cli
from riccikit import engine

heavy = {heavy!r}
after_import = sorted(m for m in heavy if m in sys.modules)
code = riccikit.cli.main(["check", "--config", "paper-smoke", "--seed", "1",
                          "--format", "csv", "--out", {out!r}])
after_check = sorted(m for m in heavy if m in sys.modules)
gap, _ = engine.spectral_gap_1d(lambda t: 0.0, (0.0, {length!r}))
after_gap = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({{"after_import": after_import, "code": code,
                  "after_check": after_check, "gap": gap, "after_gap": after_gap}}))
"""

# `python -m riccikit spectrum ...` with every scipy import made to fail
_NO_SCIPY = """
import runpy, sys
sys.modules["scipy"] = None
sys.argv = ["riccikit", "spectrum", "--potential", '{{"kind": "uniform"}}',
            "--a", "0", "--b", {length!r}]
runpy.run_module("riccikit", run_name="__main__")
"""


def _run(program):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=600)


def test_check_path_leaves_scipy_subpackages_unloaded(tmp_path):
    length = 1.7
    program = _PROGRAM.format(heavy=HEAVY, out=str(tmp_path / "smoke.csv"), length=length)
    done = _run(program)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["after_import"] == []
    assert result["code"] == 0
    assert result["after_check"] == []
    assert (tmp_path / "smoke.csv").read_text().startswith("suite,inequality,")
    assert math.isclose(result["gap"], math.pi**2 / length**2, rel_tol=1e-8)
    assert result["after_gap"] == []


def test_spectrum_runs_without_scipy():
    length = 1.7
    done = _run(_NO_SCIPY.format(length=str(length)))
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert math.isclose(out["lambda_1"], math.pi**2 / length**2, rel_tol=1e-8)
