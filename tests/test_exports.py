"""The package exports only what its callers import: the error classes and the names the benchmark,
the scripts and the acceptance criteria take from ``unishift``."""

import ast
from pathlib import Path

import unishift

ROOT = Path(__file__).resolve().parent.parent
CALLERS = [*sorted((ROOT / "perfbench").glob("*.py")), *sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]


def imported_from_package(path: Path) -> set[str]:
    """The names a file imports with ``from unishift import ...``, read from its text."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "unishift" and node.level == 0
            for alias in node.names}


def test_every_export_has_a_caller():
    init = ast.parse((ROOT / "src" / "unishift" / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    errors = {name for name in exported
              if isinstance(x := getattr(unishift, name), type) and issubclass(x, unishift.UnishiftError)}
    called = set().union(*map(imported_from_package, CALLERS))
    assert CALLERS[-1].is_file() and len(CALLERS) > 2
    assert sorted(exported - errors - called) == []
