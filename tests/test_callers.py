"""Every public function, class and method in `src/dvokit` has a caller in
the code that runs it: `src/`, `tools/`, `bench/` or `perfbench/`, tests left
out. A name that only tests use is code that no route runs.

A caller is a use of the name in the parsed source: a `Name`, an attribute
(`.name`) or an imported name. Docstrings and comments hold no such node, so
they do not count. A name matches by spelling alone, so this is a floor: a
method named like a numpy attribute counts as called wherever that attribute
is read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "tools", "bench", "perfbench")


def _names_used(source: str) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
    return used


def _caller_sources():
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def _public_names():
    """(module, qualified name, name) of each public top-level function or
    class of `src/dvokit` and each public method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted((ROOT / "src" / "dvokit").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, defs):
                continue
            yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def test_the_scan_counts_code_and_not_docstrings_or_comments():
    source = '"""Calls f."""\nimport a.b as c\nfrom d import e\n# g()\nh.i(j)\n'
    assert _names_used(source) == {"a", "b", "e", "h", "i", "j"}


def test_every_public_name_in_dvokit_has_a_caller_outside_the_tests():
    sources = list(_caller_sources())
    assert any(path.parts[-2:] == ("perfbench", "run.py") for path in sources)
    used = set().union(*(_names_used(path.read_text()) for path in sources))
    missing = [
        f"{module}.{qualified}"
        for module, qualified, name in _public_names()
        if not name.startswith("_") and name not in used
    ]
    assert not missing, f"no caller outside the tests: {', '.join(missing)}"
