"""Hygiene of the package source: every module-level import is used,
every name the benchmark's tracer wraps is still there, and its lines
split into code, docstring, comment and blank lines by one written rule."""

import ast
import importlib
import subprocess

import pytest

from helpers import CORPUS, SOURCES, line_split, src_line_split


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports that the module never reads,
    except on an import whose first line carries "# noqa: F401".  A name in
    __all__ counts as read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_unused_imports_are_found():
    source = "from bisect import bisect_left, bisect_right\nimport os.path\nx = bisect_right\n"
    assert unused_imports(source) == ["1: bisect_left", "2: os"]
    assert unused_imports("import os  # noqa: F401\n") == []
    assert unused_imports("import os\n__all__ = ['os']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def traced_names() -> list[tuple[str, str]]:
    """The (module, attribute or Class.method) of each entry of TRACED in
    perfbench/tracer.py, read from its source without importing it."""
    tree = ast.parse((CORPUS.parent / "perfbench" / "tracer.py").read_text())
    (value,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)]
    return [(entry.elts[0].value, entry.elts[1].value) for entry in value.elts]


def resolves(module: str, attr: str) -> bool:
    """What Tracer.install needs: a function on its module, or a method in
    its class's own namespace."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, method = attr.split(".")
        return callable(vars(getattr(owner, cls_name, object)).get(method))
    return callable(getattr(owner, attr, None))


def test_every_traced_name_resolves():
    names = traced_names()
    assert len(names) > 20
    assert [x for x in names if not resolves(*x)] == []
    assert not resolves("lpakit.algebra", "no_such_name")
    assert not resolves("lpakit.algebra", "RowSpace.table")


def test_line_split_follows_its_rule():
    source = ('x = 1\n"""not a docstring"""\n\n'
              'class A:\n    """Doc.\n\n    More."""\n    # note\n    y = 2  # code\n')
    assert line_split(source) == {"code": 4, "docstring": 2, "comment": 1, "blank": 2}


def test_src_line_split_counts_every_line():
    wc = subprocess.run("cat src/lpakit/*.py | wc -l", shell=True, cwd=CORPUS.parent,
                        capture_output=True, text=True, check=True)
    split = src_line_split()
    assert sum(split.values()) == int(wc.stdout)
    assert all(split.values())
