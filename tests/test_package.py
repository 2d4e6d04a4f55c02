import ast
import subprocess
import sys
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


# scipy subpackages that each cost a large share of start-up; the package
# imports bare scipy and reaches them by attribute, so each loads on first use
_SUBPACKAGES = ("scipy.optimize", "scipy.integrate", "scipy.special", "scipy.interpolate",
                "scipy.linalg")


def _subpackages_after(code: str, tmp_path) -> set[str]:
    """The scipy subpackages a fresh interpreter holds after running code."""
    src = str(Path(conelab.__file__).parents[1])
    script = (f"import sys\nsys.path.insert(0, {src!r})\n{code}\n"
              f"print('loaded', *(m for m in {_SUBPACKAGES!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split()[1:])


def test_scans_and_cli_load_no_scipy_subpackage(tmp_path):
    code = """
import conelab
from conelab import cli, competitors, phase
from conelab.geometry import ConeSpace
from conelab.profiles import LengthProfile
LengthProfile.round_sphere()
phase.emit(phase.scan([3], [0.8, 0.95]), "csv", "scan.csv")
phase.decide(ConeSpace(3, 0.9))
competitors.competitor_search(ConeSpace(3, 0.9))
cli.main(["scan", "--n", "3", "4", "--lambda-points", "26", "--output", "cli.csv"])
"""
    assert _subpackages_after(code, tmp_path) == set()


def test_oracle_loads_only_scipy_special(tmp_path):
    code = """
from conelab import shooting
from conelab.geometry import ConeSpace
space = ConeSpace(2, 0.85)
for H0, outcome in shooting.find_extending_shots(space):
    shooting.flux_consistency(space, H0, outcome)
"""
    assert _subpackages_after(code, tmp_path) == {"scipy.special"}
