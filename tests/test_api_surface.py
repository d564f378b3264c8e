"""Guard: every public name of the package has a caller outside the tests.

A name in a module's ``__all__`` must appear as a code word (a name token,
not a string or a comment) in ``src/cnmpc``, ``perfbench/*.py`` or
``scripts/*.py``.  Its own ``def``/``class`` line, the ``__all__`` entries
(strings) and import statements do not count: an import alone calls nothing.
A name that only the tests use belongs in the tests.
"""

import ast
import importlib
import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("continuation", "krylov", "mintime", "precond", "simcli")


def _sources() -> list[Path]:
    return (
        sorted((ROOT / "src" / "cnmpc").glob("*.py"))
        + sorted((ROOT / "perfbench").glob("*.py"))
        + sorted((ROOT / "scripts").glob("*.py"))
    )


def _uses(path: Path) -> set[str]:
    """Name tokens of ``path`` outside imports and the lines naming a def or class."""
    text = path.read_text()
    skipped: set[int] = set()
    own: set[tuple[int, str]] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own.add((node.lineno, node.name))
    words = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        row = tok.start[0]
        if tok.type == tokenize.NAME and row not in skipped and (row, tok.string) not in own:
            words.add(tok.string)
    return words


def _public_names() -> list[tuple[str, str]]:
    return [
        (module, name)
        for module in MODULES
        for name in importlib.import_module(f"cnmpc.{module}").__all__
    ]


@pytest.fixture(scope="module")
def used() -> set[str]:
    return set().union(*(_uses(path) for path in _sources()))


def test_every_public_name_has_a_caller_outside_the_tests(used):
    unused = [f"{module}.{name}" for module, name in _public_names() if name not in used]
    assert not unused, f"public names only the tests call: {unused}"
