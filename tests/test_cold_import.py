"""Importing gielab loads numpy and nothing heavier.

gielab does not use scipy; this fresh-interpreter check is the guard that
keeps an import of it from coming back.  It runs in a new interpreter so
that nothing pytest or another test has imported counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import json, sys, gielab, gielab.cli, gielab.verify\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=False
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
