"""The README's quick start and command-line walkthrough run as written, in a
fresh interpreter, so a README that still names a removed or renamed API or
flag fails here."""
from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import filingswarm

README = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")


def _blocks(section: str, language: str) -> list[str]:
    """The ``language`` code blocks of the README section titled ``section``."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", body, re.S)


def _run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    # the directory that holds the imported package, as in test_cli
    package_root = str(Path(filingswarm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_readme_quick_start_runs(tmp_path):
    (code,) = _blocks("Quick start", "python")
    run = _run(["-c", code], tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()


def test_readme_command_line_walkthrough_runs(tmp_path):
    (script,) = _blocks("Command line", "sh")
    commands = [shlex.split(line) for line in script.replace("\\\n", " ").splitlines()
                if line.startswith("filingswarm ")]
    assert len(commands) == 7
    for argv in commands:
        run = _run(["-m", "filingswarm.cli", *argv[1:]], tmp_path)
        assert run.returncode == 0, (argv, run.stderr)
    assert (tmp_path / "report.md").exists()
