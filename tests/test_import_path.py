"""The `riccikit check` path runs without scipy's integrate, interpolate,
linalg, special, optimize and sparse subpackages; only the spectral-gap
oracle loads scipy.linalg, on its first call.

The check runs in a fresh interpreter: the test process has imported
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
print(json.dumps({{"after_import": after_import, "code": code,
                  "after_check": after_check, "gap": gap}}))
"""


def test_check_path_leaves_scipy_subpackages_unloaded(tmp_path):
    length = 1.7
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    program = _PROGRAM.format(heavy=HEAVY, out=str(tmp_path / "smoke.csv"), length=length)
    done = subprocess.run([sys.executable, "-c", program], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["after_import"] == []
    assert result["code"] == 0
    assert result["after_check"] == []
    assert (tmp_path / "smoke.csv").read_text().startswith("suite,inequality,")
    assert math.isclose(result["gap"], math.pi**2 / length**2, rel_tol=1e-8)
