import ast
import sys
from pathlib import Path

import rdmap

PACKAGE = Path(rdmap.__file__).parent


def _imports(path):
    """(line, top-level module) for every absolute import of a module;
    relative imports are the package's own."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_numpy_is_the_only_runtime_dependency():
    """Every module of the package imports only the standard library,
    numpy and its own modules.  scipy is often installed beside numpy, and
    an import of it would pass every other test on such a machine."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    foreign = [f"{path.name}:{line}: {name}" for path in modules for line, name in _imports(path)
               if name != "numpy" and name not in sys.stdlib_module_names]
    assert not foreign


def test_oracle_names_no_support_cut():
    """The oracle scores every point it searches with one set of formulas,
    exact for the full-rank states exp(H) / Tr exp(H) it visits, and leaves
    every support cut to the reference entropy that rescores its winners.
    So oracle.py names none of linalg's cut and round-off level or the
    reference's leak tolerance: as a variable, an attribute, an import or a
    definition."""
    path = PACKAGE / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    named = {getattr(node, field, None) for node in ast.walk(tree) for field in ("id", "attr", "name")}
    assert not named & {"SUPPORT_CUTOFF", "SUPPORT_LEAK_TOL", "roundoff_level"}
