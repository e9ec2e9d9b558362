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
