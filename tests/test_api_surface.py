"""Guards on the package's public surface.

Every public name has a caller outside the tests: a name in a module's
``__all__`` must appear as a code word (a name token, not a string or a
comment) in ``src/cnmpc``, ``perfbench/*.py`` or ``scripts/*.py``.  Its own
``def``/``class`` line, the ``__all__`` entries (strings) and import
statements do not count: an import alone calls nothing.  A name that only
the tests use belongs in the tests.

Every public function reads every parameter: each one is loaded somewhere
in the function's body, nested functions included, except the few that the
benchmark's call shapes pin.
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


# (function, parameter) pairs that stay unread, each pinned by a call shape
# of the benchmark, which passes the argument positionally
UNREAD_PARAMETERS = {
    ("continuation.optimality_residual", "t"): "perfbench/workloads.py:275",
    ("continuation.initial_solve", "t0"): "perfbench/workloads.py:255-259",
}


def _unread_parameters(module: str) -> set[tuple[str, str]]:
    """(module.function, parameter) for each parameter of a public function
    of ``module`` that its body never loads."""
    path = ROOT / "src" / "cnmpc" / f"{module}.py"
    public = set(importlib.import_module(f"cnmpc.{module}").__all__)
    unread = set()
    for node in ast.parse(path.read_text()).body:
        if not (isinstance(node, ast.FunctionDef) and node.name in public):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        loaded = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread.update((f"{module}.{node.name}", p.arg) for p in params if p.arg not in loaded)
    return unread


def test_every_public_function_reads_every_parameter():
    unread = set().union(*(_unread_parameters(module) for module in MODULES))
    assert unread == set(UNREAD_PARAMETERS), (
        f"unread parameters: {sorted(unread - set(UNREAD_PARAMETERS))}; "
        f"allowed but read or gone: {sorted(set(UNREAD_PARAMETERS) - unread)}"
    )


def test_every_public_name_has_a_caller_outside_the_tests(used):
    unused = [f"{module}.{name}" for module, name in _public_names() if name not in used]
    assert not unused, f"public names only the tests call: {unused}"
