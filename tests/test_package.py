import ast
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

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


def _scipy_names(tree):
    """Every dotted scipy name a module reaches: attribute chains and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from (f"{node.module}.{a.name}" for a in node.names)


def test_every_quad_is_checked():
    # the convergence policy lives in errors.checked_quad and the root policy
    # in errors.sign_change alone: no code in the package calls a quad or
    # names anything of scipy
    src = Path(conelab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    helpers = [node.name for node in ast.walk(trees["errors.py"])
               if isinstance(node, ast.FunctionDef)
               and node.name in ("checked_quad", "sign_change")]
    assert sorted(helpers) == ["checked_quad", "sign_change"]
    stray = [f"{name}:{node.lineno}" for name, tree in trees.items()
             for node in _quad_sites(tree)]
    assert not stray
    named = [f"{name}: {dotted}" for name, tree in trees.items()
             for dotted in _scipy_names(tree)
             if dotted == "scipy" or dotted.startswith("scipy.")]
    assert not named


def test_dependencies_are_the_third_party_imports():
    # pyproject's runtime dependencies name exactly what the package imports
    # beyond the standard library
    tomllib = pytest.importorskip("tomllib")
    src = Path(conelab.__file__).parent
    with open(src.parents[1] / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep)[0].lower().replace("-", "_") for dep in deps}
    imported = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert imported - set(sys.stdlib_module_names) == declared == {"numpy"}


def _unused_imports(tree, lines):
    """Names a module's top-level imports bind that it never reads, unless marked noqa: F401."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                yield f"{node.lineno}: {name}"


def test_every_import_is_used():
    # no linter runs here: a deletion must not leave its imports behind
    unused = []
    for path in sorted(Path(conelab.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            text = path.read_text()
            unused += (f"{path.name}:{hit}"
                       for hit in _unused_imports(ast.parse(text), text.splitlines()))
    assert not unused


# numpy.polynomial costs ~7 ms of start-up, and import numpy leaves it unloaded
_SUBPACKAGES = ("numpy.polynomial",)


def _loaded_after(code: str, tmp_path) -> set[str]:
    """The scipy modules and _SUBPACKAGES a fresh interpreter holds after running code."""
    src = str(Path(conelab.__file__).parents[1])
    script = (f"import sys\nsys.path.insert(0, {src!r})\n{code}\n"
              f"print('loaded', *(m for m in sys.modules if m == 'scipy' or "
              f"m.startswith('scipy.') or m in {_SUBPACKAGES!r}))")
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         capture_output=True, text=True, check=True).stdout
    return set(out.splitlines()[-1].split()[1:])


def test_scans_and_cli_load_no_scipy_subpackage(tmp_path):
    code = """
import math
import conelab
from conelab import cli, competitors, phase, profiles
from conelab.geometry import ConeSpace
from conelab.profiles import LengthProfile
round_sphere = LengthProfile.round_sphere()
phase.emit(phase.scan([3], [0.8, 0.95]), "csv", "scan.csv")
phase.decide(ConeSpace(3, 0.9))
space = ConeSpace(3, 0.9)
res = competitors.competitor_search(space)
competitors.exp_profile_area(space, res.delta, res.alpha)
competitors.disk_profile(0.1, 0.3, round_sphere)
decay = profiles.RadialProfile(0.0, math.pi / 2, lambda t: (math.exp(-t), -math.exp(-t)), (0.01,))
profiles.s_functional(decay, space)
cli.main(["scan", "--n", "3", "4", "--lambda-points", "26", "--output", "cli.csv"])
cli.main(["shoot", "--n", "2", "--lam", "0.5", "--h0", "1e-6"])
cli.main(["shoot", "--n", "3", "--lam", "0.9", "--h0", "0.3"])
cli.main(["competitor", "--n", "4", "--lam", "0.8"])
cli.main(["stability", "--lam", "0.9"])
cli.main(["curvature", "--n", "3", "--lam", "0.9"])
cli.main(["monotonicity", "--surface", "catenoid"])
"""
    assert _loaded_after(code, tmp_path) == set()


def test_oracle_loads_no_scipy_subpackage(tmp_path):
    code = """
from conelab import shooting
from conelab.geometry import ConeSpace
space = ConeSpace(2, 0.85)
for H0, outcome in shooting.find_extending_shots(space):
    shooting.flux_consistency(space, H0, outcome)
"""
    assert _loaded_after(code, tmp_path) == set()
