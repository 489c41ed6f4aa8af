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
    qleak.csvout.write_records(out, qleak.AttackVerdict, [])
    assert out.getvalue() == (
        "attack,label,measurements_used,statistic,planned_n,confidence,"
        "ambiguous,underpowered\n"
    )


def _src_nodes():
    """(path, node, name of the enclosing function) for every AST node in
    src/; module-level nodes are in `<file> module level`."""
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
        for node in ast.walk(tree):
            scope = node
            while scope in parent and not isinstance(scope, ast.FunctionDef):
                scope = parent[scope]
            yield path, node, getattr(scope, "name", f"{path.name} module level")


def _calls(node: ast.AST, name: str) -> bool:
    func = getattr(node, "func", None)
    called = getattr(func, "id", None) or getattr(func, "attr", None)
    return isinstance(node, ast.Call) and called == name


def test_verdicts_are_built_in_one_place():
    """Only the nearest-model classifier constructs an AttackVerdict."""
    callers = [scope for _, node, scope in _src_nodes() if _calls(node, "AttackVerdict")]
    assert callers == ["_classify"]


def test_one_nearest_model_rule():
    """Only `_classify` and `_rival` pick a nearest mean, and only
    `_classify` judges a tie; the mixture model lives in `stats`, so the
    attacks need nothing from the countermeasure module."""
    nearest, ties, mixtures, attack_imports = set(), set(), [], []
    for path, node, scope in _src_nodes():
        if _calls(node, "_nearest"):
            nearest.add(scope)
        elif isinstance(node, ast.Compare) and "AMBIGUITY_EPS" in ast.unparse(node):
            ties.add(scope)
        elif isinstance(node, ast.ClassDef) and node.name == "MixtureTiming":
            mixtures.append(path.name)
        elif isinstance(node, ast.ImportFrom) and path.name == "attacks.py":
            attack_imports.append(node.module)
    assert nearest == {"_classify", "_rival"}
    assert ties == {"_classify"}
    assert mixtures == ["stats.py"]
    assert "mitigations" not in attack_imports


def test_one_duration_draw():
    """Job durations are drawn in one place: no class in src/ has a
    `sample` method, and only `run_simulation` draws standard normals; a
    timing model gives it per-job moments (`job_moments`) instead."""
    samplers, drawers = [], set()
    for path, node, scope in _src_nodes():
        if isinstance(node, ast.ClassDef):
            samplers += [f"{node.name}.sample" for item in node.body
                         if isinstance(item, ast.FunctionDef) and item.name == "sample"]
        elif _calls(node, "standard_normal"):
            drawers.add(scope)
    assert samplers == []
    assert drawers == {"run_simulation"}


def test_one_scenario_read():
    """A scenario file is parsed in one place: only `load_scenario` calls
    `yaml.safe_load`, and the reference devices come back with the
    scenario rather than from a second read."""
    readers = {scope for _, node, scope in _src_nodes() if _calls(node, "safe_load")}
    assert readers == {"load_scenario"}


def test_one_requirement_matrix_builder():
    """`baseline` alone builds a requirement matrix: only `pairwise_matrix`
    and `catalog_matrices` call `_requirements`, and `co_identify` calls
    neither it nor `catalog_matrices`, nor does `attacks` import it."""
    requirements, catalog, attack_imports = set(), set(), set()
    for path, node, scope in _src_nodes():
        if _calls(node, "_requirements"):
            requirements.add(f"{path.name}:{scope}")
        elif _calls(node, "catalog_matrices"):
            catalog.add(scope)
        elif isinstance(node, ast.ImportFrom) and path.name == "attacks.py":
            attack_imports.update(alias.name for alias in node.names)
    assert requirements == {"baseline.py:pairwise_matrix", "baseline.py:catalog_matrices"}
    assert "co_identify" not in catalog
    assert "_requirements" not in attack_imports


def test_usage_errors_have_one_boundary():
    """`cli.main` alone turns a rejected input into EXIT_USAGE: the only
    `except` handlers in cli.py are in `main`, and no other function
    returns EXIT_USAGE."""
    tree = ast.parse((ROOT / "src" / "qleak" / "cli.py").read_text(encoding="utf-8"))
    parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}

    def scope(node):
        while node in parent and not isinstance(node, ast.FunctionDef):
            node = parent[node]
        return getattr(node, "name", "module level")

    handlers = {scope(n) for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)}
    usage_returns = {
        scope(n) for n in ast.walk(tree)
        if isinstance(n, ast.Return) and "EXIT_USAGE" in ast.unparse(n)
    }
    assert handlers == {"main"}
    assert usage_returns == {"main"}
    # the run is guarded by two handlers: a closed stdout, then every
    # rejected value or unusable path; argparse's own exit is the other
    main = next(n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    runs = [n for n in ast.walk(main) if isinstance(n, ast.Try)
            and "args.func(args)" in ast.unparse(ast.Module(n.body, []))]
    assert [[ast.unparse(h.type) for h in t.handlers] for t in runs] == [
        ["BrokenPipeError", "(ValueError, OSError)"]]
    caught = [ast.unparse(n.type) for n in ast.walk(tree)
              if isinstance(n, ast.ExceptHandler)]
    assert caught == ["SystemExit", "BrokenPipeError", "(ValueError, OSError)"]
    assert not any("KeyError" in c for c in caught)


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
