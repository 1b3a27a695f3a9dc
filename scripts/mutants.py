#!/usr/bin/env python3
"""Mutation check: every mutant listed in ``tests/mutants.json`` must be killed.

Run from anywhere in a checkout::

    python3 scripts/mutants.py

Each entry names a ``file``, an exact ``text`` in it, its ``replacement``
and the ``tests`` (pytest node ids) that must fail. The tree is copied to
a temporary directory, where the listed tests must first pass unmutated.
Then each mutant in turn replaces its text, runs its tests and is killed
when every one of them fails or errors; the file is restored before the
next. Hypothesis runs with seed 0; tests still running after
``TIMEOUT`` seconds count as passing, as a hang proves no failure.
Exits 1 if any mutant survives. This is not part of tier-1, which only
checks that each text occurs once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIST = ROOT / "tests" / "mutants.json"
SKIP = shutil.ignore_patterns(".git", ".perfbench", ".hypothesis", ".pytest_cache",
                              "__pycache__", "runs", ".dins_cache")
TIMEOUT = 900     # seconds per pytest run


def failing(tree: Path, tests: list[str]) -> tuple[int | None, set[str]]:
    """pytest's exit code (None on time-out) and the ids among ``tests``
    that fail or error when run in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                              "no:cacheprovider", "--hypothesis-seed=0", *tests],
                             cwd=tree, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"  timed out after {TIMEOUT} s")
        return None, set()
    return run.returncode, {line.split()[1] for line in run.stdout.splitlines()
                            if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1}


def main() -> int:
    mutants = json.loads(LIST.read_text())
    survivors = []
    with tempfile.TemporaryDirectory(prefix="dins-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        every = sorted({t for m in mutants for t in m["tests"]})
        code, broken = failing(tree, every)
        if code != 0:
            print(f"unmutated tree: pytest exit {code}, failing {sorted(broken)}")
            return 1
        for m in mutants:
            path = tree / m["file"]
            source = path.read_text()
            if source.count(m["text"]) != 1:
                print(f"{m['name']}: text occurs {source.count(m['text'])} times")
                survivors.append(m["name"])
                continue
            path.write_text(source.replace(m["text"], m["replacement"]))
            try:
                failed = failing(tree, m["tests"])[1]
            finally:
                path.write_text(source)
            passed = sorted(set(m["tests"]) - failed)
            print(f"{m['name']}: {'survived, passed ' + str(passed) if passed else 'killed'}")
            if passed:
                survivors.append(m["name"])
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    if survivors:
        print("survived: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
