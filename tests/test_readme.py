"""README's examples run as written.

The Quick start's commands run in a temporary directory, with
``python -m dins`` standing in for the installed ``dins`` command, and
then README's ``python`` blocks run there in order, in one namespace, on
the files the commands left. A change to the CLI or the API that the
README does not follow fails here.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else len(README)]


def quick_start_commands() -> list[list[str]]:
    """The argv of each command of the Quick start's ``bash`` block."""
    block = re.search(r"```bash\n(.*?)```", _section("Quick start"), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]


def _runnable(argv: list[str]) -> list[str]:
    program, *args = argv
    if program == "dins":
        return [sys.executable, "-m", "dins", *args]
    assert program == "python", f"README's quick start runs {program!r}"
    return [sys.executable, str(ROOT / args[0]), *args[1:]]


def test_readme_quick_start_and_python_blocks_run(tmp_path, monkeypatch):
    commands = quick_start_commands()
    assert commands
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    for argv in commands:
        done = subprocess.run(_runnable(argv), cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, (argv, done.stderr)
        assert done.stdout.strip(), argv
    assert (tmp_path / "runs" / "demo" / "summary.json").is_file()

    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["summary"]["splits"]
