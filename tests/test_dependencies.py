"""entqa depends on the standard library, numpy and scipy's `erf` only.

Every import in `src/entqa/*.py`, nested ones included, is read from the
syntax tree, so an import that a code path reaches only rarely is caught
as well as a top-level one.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "entqa"


def allowed(module: str) -> bool:
    top = module.partition(".")[0]
    return (top in sys.stdlib_module_names or top == "numpy"
            or module == "scipy.special")


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_only_the_allowed_dependencies(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    outside = sorted({m for m in imported_modules(tree) if not allowed(m)})
    assert not outside, f"{path.name} imports {outside}"


def test_the_rule_refuses_what_it_must():
    tree = ast.parse("import scipy\nfrom scipy import linalg\n"
                     "from scipy.special import erf\nimport numpy.linalg\n"
                     "def f():\n    import torch\n"
                     "from . import model\nimport os.path\n")
    assert [m for m in imported_modules(tree) if not allowed(m)] == \
        ["scipy", "scipy", "torch"]
