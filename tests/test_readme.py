"""The README's examples, run as written from the repository root, and
the public names they import from."""

import re
import shlex

from helpers import CORPUS

import lpakit

from lpakit.cli import main

ROOT = CORPUS.parent
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
PROMPT = "$ lpakit "


def test_readme_commands_print_what_the_readme_shows(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    commands = [body for lang, body in BLOCKS if body.startswith(PROMPT)]
    assert len(commands) == 4
    for body in commands:
        line, shown = body.split("\n", 1)
        code = main(shlex.split(line[len(PROMPT):]))
        assert (code, capsys.readouterr().out) == (0, shown), line


def test_readme_library_snippet_prints_its_bracket(capsys):
    (snippet,) = [body for lang, body in BLOCKS if lang == "python"]
    shown = re.search(r"^print\(.*\)\s+# (.*)$", snippet, re.M).group(1)
    exec(snippet, {})
    assert capsys.readouterr().out == shown + "\n"


def test_every_public_name_resolves():
    names: dict = {}
    exec("from lpakit import *", names)
    assert all(names[name] is getattr(lpakit, name) for name in lpakit.__all__)
