"""The package exports every qleak name the demos and the benchmark use.

The benchmark harness under perfbench/ reaches qleak only through its
public names (``q.<name>``, ``qleak.<name>``, ``from qleak import ...``);
a name dropped from the package would otherwise surface only as failed
benchmark operations. Its tracer looks functions up by module, and skips
any it cannot find, so those must exist where it looks.
"""
import ast
import dataclasses
import importlib.util
import inspect
import io
from functools import cached_property
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
    a, b = (qleak.Trace(rng.normal(2.0, 0.5, 50), np.ones(50, dtype=int)) for _ in range(2))
    assert isinstance(qleak.co_identify(a, cat)[0], qleak.AttackVerdict)
    verdict = qleak.null_distinguishability(a, b)[0]
    assert verdict in (qleak.DISTINGUISHABLE, qleak.INDISTINGUISHABLE)


def _public_api():
    """(qualified name, parameters) of every public module-level function
    and class in src/qleak/*.py and of every public method or property of
    those classes. A dataclass's parameters are its fields, a method's
    leave out `self` or `cls`, and any other class or a property has
    none."""
    for path in sorted((ROOT / "src" / "qleak").glob("[!_]*.py")):
        module = importlib.import_module(f"qleak.{path.stem}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            if not inspect.isclass(obj):
                yield f"{path.stem}.{name}", inspect.signature(obj).parameters
                continue
            fields = inspect.signature(obj).parameters if dataclasses.is_dataclass(obj) else {}
            yield f"{path.stem}.{name}", fields
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    params = inspect.signature(getattr(obj, attr)).parameters
                elif inspect.isfunction(member):
                    params = dict(list(inspect.signature(member).parameters.items())[1:])
                elif isinstance(member, (property, cached_property)):
                    params = {}
                else:
                    continue
                yield f"{path.stem}.{name}.{attr}", params


def _passed(call: ast.Call, params) -> set[str]:
    """The parameters a call passes: by position, by keyword, or through a
    splat; a `*` splat reaches every later positional parameter and a `**`
    splat every parameter."""
    positional = [name for name, p in params.items()
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    passed = set()
    for i, arg in enumerate(call.args):
        passed.update(positional[i:] if isinstance(arg, ast.Starred) else positional[i:i + 1])
    for keyword in call.keywords:
        passed.update([keyword.arg] if keyword.arg else params)
    return passed


def test_no_test_only_settings():
    """Nothing in src/ serves only the tests: every public name of the
    package is read in src/ (not counting the re-exports in
    `__init__.py`), demos/ or perfbench/, and every defaulted parameter
    or dataclass field is passed by some call there."""
    reads, calls = set(), []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *SCRIPTS]):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Call):
                calls.append(node)
    unread, unset = [], []
    for qualname, params in _public_api():
        name = qualname.rsplit(".", 1)[1]
        if name not in reads:
            unread.append(qualname)
        passed = set().union(*(_passed(c, params) for c in calls if _calls(c, name)))
        unset += [f"{qualname}({p})" for p, param in params.items()
                  if param.default is not param.empty and p not in passed]
    assert unread + unset == []


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


def test_one_per_run_split():
    """A trace is its intervals, with a constant dropped-interval count
    rather than a field: only `Trace.durations` spreads an interval over
    its runs with `np.repeat`."""
    assert [f.name for f in dataclasses.fields(qleak.Trace)] == ["sums", "counts"]
    repeats = {f"{path.name}:{scope}" for path, node, scope in _src_nodes()
               if _calls(node, "repeat")}
    assert repeats == {"trace.py:durations"}


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
