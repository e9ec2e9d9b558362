import ast
from pathlib import Path

import rdmap

PACKAGE = Path(rdmap.__file__).parent


def _unused_imports(path):
    """(line, name) for every name an import binds in the module at path
    that no expression of the module reads.  `from __future__` binds no
    name.  A name counts as read where it loads as a variable, including
    as the base of an attribute such as np.linalg."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in bound if name not in read]


def test_every_import_is_used():
    """No module of the package imports a name it never uses.  The
    package's __init__ is exempt: every name it imports is re-exported."""
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) >= 8
    unused = [f"{path.name}:{line}: {name}" for path in modules
              for line, name in _unused_imports(path)]
    assert not unused


def test_an_unused_import_is_flagged(tmp_path):
    """The check itself: an unused import is named, a used one, an
    attribute base and a `from __future__` import are not."""
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\n"
                    "import math\nimport numpy as np\nfrom os import path, sep\n\n"
                    "def f():\n    return np.linalg.norm(path.join(sep))\n")
    assert _unused_imports(path) == [(2, "math")]
