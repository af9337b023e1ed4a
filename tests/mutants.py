"""Re-run the mutant record, tests/mutants.json.

    python tests/mutants.py

Each mutant replaces one snippet of one `src/` file (its `old` text,
which occurs there exactly once) by its `new` text and names the tests
that should fail.  The runner copies `src/`, `tests/` and
`pyproject.toml` to a temporary directory, runs every named test once
unmutated and stops if any fails, then applies one mutant at a time and
runs its tests in one `pytest -x -q -p no:cacheprovider
--hypothesis-seed=0` subprocess.  A `conftest.py` written into the copy
loads a hypothesis profile without the example database (every run
starts from the same draws) and without shrinking (a killed mutant
fails at its first failing draw; shrinking that draw only makes the
report shorter).  A mutant whose tests fail, or do not finish within
MUTANT_TIMEOUT seconds, is killed.

It prints killed / survived / equivalent per id and exits 1 on a
survivor that is not marked `"equivalent"`.  Standard library only; it
lives under tests/ rather than scripts/ because every scripts/*.py is a
README command that the Tier-1 suite runs within 120 s.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().with_name("mutants.json")
MUTANT_TIMEOUT = 600

CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile(
    "mutants", database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
settings.load_profile("mutants")
"""


def load():
    return json.loads(RECORD.read_text())


def _pytest(work, tests):
    """Run `tests` in the copy at `work`; (passed, seconds, tail of the
    output)."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                              text=True, timeout=MUTANT_TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, time.monotonic() - start, "timed out"
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return proc.returncode == 0, time.monotonic() - start, " ".join(tail)


def main() -> int:
    mutants = load()
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="torushms-mutants-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        (work / "conftest.py").write_text(CONFTEST)
        named = sorted({t for m in mutants for t in m["tests"]})
        ok, secs, tail = _pytest(work, named)
        print(f"unmutated: {len(named)} tests {'pass' if ok else 'FAIL'} "
              f"({secs:.1f} s) {tail}", flush=True)
        if not ok:
            return 1
        survivors = []
        for m in mutants:
            path = work / m["file"]
            text = path.read_text()
            if text.count(m["old"]) != 1:
                print(f"{m['id']}: old snippet found {text.count(m['old'])} "
                      f"times in {m['file']}", flush=True)
                return 1
            path.write_text(text.replace(m["old"], m["new"]))
            try:
                ok, secs, tail = _pytest(work, m["tests"])
            finally:
                path.write_text(text)
            if not ok:
                verdict = "killed"
            elif "equivalent" in m:
                verdict = "equivalent"
            else:
                verdict = "SURVIVED"
                survivors.append(m["id"])
            print(f"{m['id']}: {verdict} ({secs:.1f} s)", flush=True)
    print(f"{len(mutants)} mutants, {len(survivors)} survivors not marked "
          f"equivalent, {time.monotonic() - t0:.0f} s", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
