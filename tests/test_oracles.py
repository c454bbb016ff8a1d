"""The oracle boundary: no package module loads ``hitchinlab.oracles``."""

import ast
import importlib
import sys
from pathlib import Path

import hitchinlab

PACKAGE = Path(hitchinlab.__file__).parent


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name == "hitchinlab.oracles" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "oracles":
                return True  # from .oracles import ..., from hitchinlab.oracles import ...
            if node.module in (None, "hitchinlab") and any(a.name == "oracles" for a in node.names):
                return True  # from . import oracles
    return False


def test_ast_scan_detects_each_import_form():
    for line in (
        "import hitchinlab.oracles",
        "from hitchinlab.oracles import matrix_residual",
        "from .oracles import shooting_solution",
        "from . import oracles",
        "from hitchinlab import oracles as o",
    ):
        assert _imports_oracles(ast.parse(line)), line
    assert not _imports_oracles(ast.parse("from . import special, lebrun"))


def test_no_package_module_imports_oracles():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "oracles.py")
    assert len(modules) >= 10
    assert [p.name for p in modules if _imports_oracles(ast.parse(p.read_text()))] == []


def test_cli_import_leaves_oracles_unloaded():
    # the test modules have loaded the oracles; import the CLI afresh
    saved = {k: v for k, v in sys.modules.items() if k.partition(".")[0] == "hitchinlab"}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("hitchinlab.cli")
        assert "hitchinlab.cli" in sys.modules
        assert "hitchinlab.oracles" not in sys.modules
    finally:
        for name in [k for k in sys.modules if k.partition(".")[0] == "hitchinlab"]:
            del sys.modules[name]
        sys.modules.update(saved)
