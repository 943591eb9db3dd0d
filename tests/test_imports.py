"""The package stays stdlib-only: every import names uftree or the standard library."""

import ast
import pathlib
import sys

import uftree

SOURCES = sorted(pathlib.Path(uftree.__file__).parent.glob("*.py"))


def imported_modules(path: pathlib.Path) -> list[str]:
    """Top-level names of the modules a source file imports; a relative
    import counts as uftree."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.append("uftree" if node.level else node.module)
    return [name.partition(".")[0] for name in names]


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "recognize.py", "tree.py"}


def test_every_import_is_uftree_or_stdlib():
    foreign = {
        (path.name, name)
        for path in SOURCES
        for name in imported_modules(path)
        if name != "uftree" and name not in sys.stdlib_module_names
    }
    assert not foreign


def test_a_third_party_import_is_caught(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("import os.path\nfrom . import tree\nfrom numpy import array\n")
    assert imported_modules(source) == ["os", "uftree", "numpy"]
