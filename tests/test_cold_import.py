"""Importing gielab loads numpy and nothing heavier; scipy loads on first use.

Only ``symplectic._williamson_generic`` (``scipy.linalg.schur``) and
``verify.random_symplectic`` (``scipy.linalg.expm``) call scipy, and each
imports it when it runs.  No family's numeric path reaches either, so
``gie_numeric`` runs on numpy alone.  pytest's own process already holds
scipy (``tests/test_information.py`` imports it), so every check here runs
in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_LEAKED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

# Each snippet is a first call into scipy-backed code; it binds ``result``
# to nested lists of floats.  The Williamson input is a standard form turned
# by a local rotation on mode A, which the analytic route does not accept.
FIRST_CALLS = {
    "williamson generic route": (
        "import numpy as np\n"
        "from gielab.states import StdForm, std_form_cm\n"
        "from gielab.symplectic import rotation, williamson\n"
        "local = np.eye(4)\n"
        "local[:2, :2] = rotation(0.3)\n"
        "d = williamson(local @ std_form_cm(StdForm(2.0, 1.4, 0.6, 0.3)).mat @ local.T)\n"
        "result = [d.s.tolist(), list(d.nus)]\n"
    ),
    "verify.random_physical_cm": (
        "import numpy as np\n"
        "from gielab.verify import random_physical_cm\n"
        "result = random_physical_cm(np.random.default_rng(0), 0.35).tolist()\n"
    ),
}


def _fresh(code: str):
    """Run ``code`` in a new interpreter with ``PYTHONPATH=src`` and return its JSON report."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# Every family, a separable point (which skips the purification) and a CV GHZ
# state whose own kx is off the GLEMS surface (gie_numeric rebuilds it).
FAMILY_POINTS = (
    ("pure", {"a": 2.0}),
    ("sym_glems", {"a": 1.5, "kp": 0.5}),
    ("sym_sq_thermal", {"a": 1.2, "k": 0.5}),
    ("sym_sq_thermal", {"a": 3.0, "k": 1.0}),
    ("asym_glems", {"a": 2.0, "b": 1.5}),
    ("cv_ghz", {"r": 0.5}),
    ("cv_ghz", {"r": 4.5}),
)


def test_import_loads_no_scipy():
    report = _fresh(f"import json, sys, gielab, gielab.cli, gielab.verify\nprint(json.dumps({_LEAKED}))\n")
    assert report == []


def test_family_numeric_paths_load_no_scipy():
    report = _fresh(
        "import json, sys\n"
        "from gielab import GridConfig, gie_numeric, make_family\n"
        f"for tag, params in {FAMILY_POINTS!r}:\n"
        "    gie_numeric(make_family(tag, **params), GridConfig(5))\n"
        f"print(json.dumps({_LEAKED}))\n"
    )
    assert report == []


@pytest.mark.parametrize("name", sorted(FIRST_CALLS))
def test_first_call_loads_scipy_and_matches_in_process(name):
    snippet = FIRST_CALLS[name]
    report = _fresh(
        "import json, sys, gielab, gielab.cli, gielab.verify\n"
        f"before = {_LEAKED}\n"
        + snippet
        + "print(json.dumps({'before': before, 'result': result, 'after': 'scipy.linalg' in sys.modules}))\n"
    )
    ns = {}
    exec(snippet, ns)
    assert report["before"] == []
    assert report["after"]
    assert report["result"] == ns["result"]
