"""The README's examples run on their own and print what the README shows.

Each Python snippet prints the lines of its closing comment, and each
``netshare`` command that a ``text`` block follows prints that block.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import netshare

SRC = str(Path(netshare.__file__).resolve().parents[1])
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
SNIPPETS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
# (command, printed text) of each one-line sh block followed by a text block.
COMMANDS = re.findall(
    r"^```sh\n([^\n]*)\n```\n\n```text\n(.*?)^```$", README, re.MULTILINE | re.DOTALL
)


def _child(argv, cwd):
    """``python argv`` with the package importable, run from ``cwd``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


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
    assert _child(["-c", snippet], tmp_path) == _promised_output(snippet)


def test_readme_has_commands_that_show_their_output():
    assert len(COMMANDS) >= 2
    assert all(command.startswith("netshare ") for command, _ in COMMANDS)


@pytest.mark.parametrize("command, shown", COMMANDS, ids=[command for command, _ in COMMANDS])
def test_readme_command_prints_its_text_block(command, shown, tmp_path):
    # An excerpt elides lines with "...": the lines it shows must be printed, in order.
    printed = _child(["-m", "netshare", *shlex.split(command)[1:]], tmp_path)
    shown = shown.splitlines()
    if "..." in shown:
        rest = iter(printed)
        assert [line for line in shown if line != "..." and line not in rest] == []
    else:
        assert printed == shown
