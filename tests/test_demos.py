"""Every demo runs to completion in a fresh interpreter and prints its
report, so a demo that still calls a removed or renamed API fails here."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import filingswarm

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # the directory that holds the imported package, as in test_cli
    package_root = str(Path(filingswarm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
