"""The package exports every qleak name the demos and the benchmark use.

The benchmark harness under perfbench/ reaches qleak only through its
public names (``q.<name>``, ``qleak.<name>``, ``from qleak import ...``);
a name dropped from the package would otherwise surface only as failed
benchmark operations. Its tracer looks functions up by module, and skips
any it cannot find, so those must exist where it looks.
"""
import ast
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

import qleak

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("demos/*.py")])


def used_names(path: Path) -> set[str]:
    """Names read off the package: attributes of `q` or `qleak` and
    `from qleak import` targets (code only, not strings)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("q", "qleak")
        ):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "qleak":
            names.update(alias.name for alias in node.names)
    return names


def test_scripts_found():
    assert any(p.parent.name == "perfbench" for p in SCRIPTS)
    assert any(p.parent.name == "demos" for p in SCRIPTS)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_package_exports_what_scripts_use(path):
    missing = sorted(
        name
        for name in used_names(path)
        if name not in qleak.__all__
        and importlib.util.find_spec(f"qleak.{name}") is None
    )
    assert missing == [], f"{path.name} uses names qleak does not export"


def _tracer_constant(name: str):
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == name:
            return ast.literal_eval(node.value)
    raise LookupError(name)


def test_traced_functions_exist():
    for mod, func in _tracer_constant("LAYER_FUNCS"):
        assert callable(getattr(importlib.import_module(f"qleak.{mod}"), func))
    for mod, cls, meth, _ in _tracer_constant("LAYER_METHODS"):
        klass = getattr(importlib.import_module(f"qleak.{mod}"), cls)
        assert meth in vars(klass)


def test_attack_results_lead_with_the_verdict():
    # the benchmark reads co_identify(...)[0] and null_distinguishability(...)[0]
    cat = qleak.grover_catalog()
    rng = np.random.default_rng(0)
    a, b = (qleak.Trace.from_durations(rng.normal(2.0, 0.5, 50)) for _ in range(2))
    assert isinstance(qleak.co_identify(a, cat)[0], qleak.AttackVerdict)
    verdict = qleak.null_distinguishability(a, b)[0]
    assert verdict in (qleak.DISTINGUISHABLE, qleak.INDISTINGUISHABLE)


def test_verdict_csv_columns():
    # the benchmark reads the verdict row by these column names
    out = io.StringIO()
    qleak.write_records(out, qleak.AttackVerdict, [])
    assert out.getvalue() == (
        "attack,label,measurements_used,statistic,planned_n,confidence,"
        "ambiguous,underpowered\n"
    )


def test_verdicts_are_built_in_one_place():
    """Only the shared verdict rule and backend detection (which keeps a
    placeholder plan) construct an AttackVerdict."""
    callers = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if isinstance(node, ast.Call) and name == "AttackVerdict":
                scope = node
                while scope in parent and not isinstance(scope, ast.FunctionDef):
                    scope = parent[scope]
                callers.append(getattr(scope, "name", f"{path.name} module level"))
    assert sorted(callers) == ["_verdict", "detect_backend"]


def test_reconstruction_is_written_once():
    """Only `trace.reconstruct` builds an attacker view from a job log, so
    the reconstruction chain has one copy in src/ and demos/. perfbench/
    keeps its own until the benchmark itself changes, so it is not read."""
    callers = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *ROOT.glob("demos/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and getattr(func, "attr", None) == "from_log":
                scope = node
                while scope in parent and not isinstance(scope, ast.FunctionDef):
                    scope = parent[scope]
                name = getattr(scope, "name", "module level")
                callers.append(f"{path.relative_to(ROOT).as_posix()}:{name}")
    assert callers == ["src/qleak/trace.py:reconstruct"]
