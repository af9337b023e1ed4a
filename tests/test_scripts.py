"""Smoke test for scripts/: every experiment command listed in README.md
runs to exit 0 against the sources in src/, so a name removed from the
public API cannot break a script silently."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def readme_script_commands():
    """The `python3 scripts/...` lines of the README, comments cut."""
    commands = []
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("python3 scripts/"):
            commands.append(shlex.split(line.split("#", 1)[0])[1:])
    return commands


COMMANDS = readme_script_commands()


def test_readme_lists_every_script():
    listed = {Path(argv[0]).name for argv in COMMANDS}
    assert listed == {p.name for p in (ROOT / "scripts").glob("*.py")}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_script_runs(argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
