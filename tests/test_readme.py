"""The README's Python examples run on their own and print what their closing comments say."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import netshare

SRC = str(Path(netshare.__file__).resolve().parents[1])
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SNIPPETS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def _promised_output(snippet):
    """The lines of the snippet's closing ``# ...`` comment, without the ``# ``."""
    lines = snippet.splitlines()
    promised = []
    while lines and lines[-1].startswith("# "):
        promised.insert(0, lines.pop()[2:])
    return promised


def test_readme_has_python_snippets_that_promise_output():
    assert len(SNIPPETS) >= 2
    assert all(_promised_output(snippet) for snippet in SNIPPETS)


@pytest.mark.parametrize("number", range(1, len(SNIPPETS) + 1))
def test_readme_snippet_prints_its_closing_comment(number, tmp_path):
    snippet = SNIPPETS[number - 1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == _promised_output(snippet)
