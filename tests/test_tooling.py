"""The test tooling itself: warning settings and the mutant list."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, deadline=None)
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    # reporting a failing example imports a module that warns on import;
    # with every warning an error that stopped pytest before the next test
    path = tmp_path / "test_two.py"
    path.write_text(TWO_TESTS)
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'tests'}{os.pathsep}{ROOT / 'src'}"}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "-p", "conftest", str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert "1 failed, 1 passed" in out.stdout, out.stdout + out.stderr
    assert "INTERNALERROR" not in out.stdout + out.stderr


def test_every_mutant_text_occurs_once():
    # scripts/mutants.py applies each mutant by replacing its text; a text
    # that is gone or repeated would mutate nothing, or the wrong place
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text())
    assert mutants
    for m in mutants:
        text = (ROOT / m["file"]).read_text()
        assert text.count(m["text"]) == 1, (m["name"], text.count(m["text"]))
        assert m["replacement"] != m["text"] and m["tests"], m["name"]
