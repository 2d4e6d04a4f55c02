import ast
from pathlib import Path
from types import ModuleType

import conelab


def test_all_names_no_module():
    assert conelab.__all__
    modules = [name for name in conelab.__all__
               if isinstance(getattr(conelab, name), ModuleType)]
    assert not modules


def _quad_sites(tree):
    """Calls of a function named quad, and imports of quad by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "quad":
                yield node
        elif isinstance(node, ast.ImportFrom) and any(a.name == "quad" for a in node.names):
            yield node


def test_every_quad_is_checked():
    # the convergence policy lives in errors.checked_quad alone: no other
    # code in the package calls scipy's quad or imports it by name
    src = Path(conelab.__file__).parent
    helper = [node for node in ast.walk(ast.parse((src / "errors.py").read_text()))
              if isinstance(node, ast.FunctionDef) and node.name == "checked_quad"]
    assert len(helper) == 1 and len(list(_quad_sites(helper[0]))) == 1
    stray = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in _quad_sites(ast.parse(path.read_text()))
             if not (path.name == "errors.py"
                     and helper[0].lineno <= node.lineno <= helper[0].end_lineno)]
    assert not stray
