"""The examples run: each exits 0 and prints its detection line.

An example that imports a name the code no longer has breaks only for
the reader who runs it; this runs two of them as that reader would.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_example(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name, lines", [
    ("custom_plugin.py", (
        "100.1.0.1:5000  ->  MlFlowBoard job API exposed without authentication",
        "100.1.0.2:5000  ->  no MAV detected",
        "100.1.0.3:8080  ->  Zeppelin notebook API open to anonymous users",
    )),
    ("audit_localhost.py", (
        "!! VULNERABLE: Jupyter Notebook terminals exposed without authentication",
        "jupyter-notebook: no missing-authentication vulnerability",
    )),
])
def test_example_runs_and_detects(name, lines):
    out = run_example(name).splitlines()
    for line in lines:
        assert line in out
