"""Command-line front end.

Subcommands::

    qleak reproduce-table   recompute the required-measurement table
    qleak matrix            emit the 24-variant Grover catalog matrices
    qleak power             sample-size planning for a given effect size
    qleak simulate          run a scenario and dump the job log
    qleak attack            run an attack end to end on a scenario
    qleak mitigate          cost/benefit report for a countermeasure

Results go to stdout as CSV; diagnostics go to stderr. Exit status is 0
on success, 1 when a tolerance or distinguishability check fails, and 2
for usage errors; a flag the subcommand does not read is one. QLEAK_SEED
provides a default seed.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import attacks, baseline, cloudsim, mitigations, trace as trace_mod
from .csvout import write_csv, write_records
from .stats import PowerSpec, TimingDistribution, mc_power_oracle, required_sample_size

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2

BACKEND_FLAG = {"sim": baseline.SIMULATOR, "qc": baseline.HARDWARE}

#: relative-error tolerances for table reproduction
TOL_LARGE = 0.02   # printed n >= 100
TOL_SMALL = 0.15   # printed n < 100


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QLEAK_SEED")
    return int(env) if env else 0


def _load_table(args) -> baseline.BaselineTable:
    if args.table:
        return baseline.load_table(args.table)
    return baseline.bundled_table()


def _probability(text: str) -> float:
    """argparse type of --alpha and --power: a number strictly inside (0, 1)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1), got {text!r}")
    return value


def _spec(args) -> PowerSpec:
    return PowerSpec(alpha=args.alpha, power=args.power)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_matrix(path: Path, labels: list[str], matrix: np.ndarray) -> None:
    """Matrix with row/column headers; NaN cells stay empty."""
    write_csv(path, ["", *labels], ([lab, *row] for lab, row in zip(labels, matrix)))


def _grover_labels(catalog) -> list[str]:
    """`i{iterations}k{key}` headers of the catalog matrices, index order."""
    return [f"i{v.iterations}k{v.key}" for v in sorted(catalog, key=lambda v: v.index)]


def _pair_rows(ovl_m: np.ndarray, req_m: np.ndarray, diagonal: bool):
    """Long-form `i,j,ovl,required_n` rows (1-based) for external plotting."""
    k = ovl_m.shape[0]
    return (
        [i + 1, j + 1, ovl_m[i, j], req_m[i, j]]
        for i in range(k)
        for j in range(k)
        if diagonal or i != j
    )


# ---------------------------------------------------------------------------
# reproduce-table

def within_tolerance(printed: float, computed: float) -> bool:
    """A printed 1 must come out exactly 1; otherwise the relative error
    must lie within TOL_LARGE (printed n >= 100) or TOL_SMALL."""
    if printed == 1.0:
        return computed == 1.0
    tol = TOL_LARGE if printed >= 100 else TOL_SMALL
    return abs(computed - printed) / printed <= tol


def _table_row(table, name, backend, spec):
    entry = table.entry(name)
    printed = entry.required(backend)
    neighbor, computed = baseline.nearest_neighbor_requirement(
        table, name, backend, spec
    )
    if printed is None:
        return [name, backend, neighbor, None, computed, None, "skipped"]
    rel = abs(computed - printed) / printed
    return [
        name, backend, neighbor, printed, computed, f"{rel:.3e}",
        "ok" if within_tolerance(printed, computed) else "FAIL",
    ]


def cmd_reproduce_table(args) -> int:
    table = _load_table(args)
    spec = _spec(args)
    backends = [BACKEND_FLAG[args.backend]] if args.backend else list(baseline.BACKENDS)
    rows = [_table_row(table, e.name, b, spec) for b in backends for e in table.entries]
    write_csv(sys.stdout, [
        "name", "backend", "nearest_neighbor", "printed_n",
        "computed_n", "rel_err", "status",
    ], rows)
    failures = sum(row[-1] == "FAIL" for row in rows)
    if args.mc_check:
        _mc_spot_check(table, rows, spec, _default_seed(args))
    _err(f"{len(rows)} cells, {failures} outside tolerance")
    return EXIT_TOLERANCE if failures else EXIT_OK


def _mc_spot_check(table, rows, spec, seed) -> None:
    """Monte-Carlo power at the planned n of the two smallest-n printed
    rows of each backend."""
    for backend in baseline.BACKENDS:
        cells = sorted((r for r in rows if r[1] == backend), key=lambda r: r[4])
        for name, _, nb, _, n, *_ in cells[:2]:
            n_int = max(2, math.ceil(n))
            p = mc_power_oracle(
                table.timing(name, backend),
                table.timing(nb, backend),
                n_int,
                spec,
                seed=seed,
            )
            _err(
                f"mc-check {backend} {name!r} vs {nb!r}: "
                f"n={n_int} empirical power {p:.3f} (target {spec.power})"
            )


# ---------------------------------------------------------------------------
# matrix

def cmd_matrix(args) -> int:
    # at the default alpha and power, which the envelope check assumes
    catalog = baseline.grover_catalog()
    ovl_m, req_m = baseline.catalog_matrices(catalog)
    labels = _grover_labels(catalog)
    header = ["i", "j", "ovl", "required_n"]
    if args.out_dir:
        out = _out_dir(args)
        _write_matrix(out / "grover_ovl.csv", labels, ovl_m)
        _write_matrix(out / "grover_required.csv", labels, req_m)
        write_csv(out / "grover_pairs.csv", header, _pair_rows(ovl_m, req_m, True))
        _err(f"matrices written to {out}")
    else:
        write_csv(sys.stdout, header, _pair_rows(ovl_m, req_m, False))
    off = req_m[~np.isnan(req_m)]
    lo, hi = float(off.min()), float(off.max())
    _err(f"required-n range [{lo:.6g}, {hi:.6g}]")
    if lo < 500 or hi > 2e7:
        _err("envelope check failed: expected [500, 2e7]")
        return EXIT_TOLERANCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# power

def cmd_power(args) -> int:
    spec = _spec(args)
    if args.effect_size is not None:
        d = args.effect_size
    elif args.delta_mean is not None and args.variance is not None:
        if not (math.isfinite(args.variance) and args.variance > 0):
            _err(f"power: --variance must be positive and finite, got {args.variance}")
            return EXIT_USAGE
        d = abs(args.delta_mean) / math.sqrt(args.variance)
    else:
        _err("power: give --effect-size or both --delta-mean and --variance")
        return EXIT_USAGE
    try:
        n = required_sample_size(d, spec)
    except ValueError as exc:
        _err(f"power: {exc}")
        return EXIT_USAGE
    # alpha and power are echoed unrounded
    write_csv(
        sys.stdout,
        ["effect_size", "alpha", "power", "required_n"],
        [[d, str(spec.alpha), str(spec.power), n]],
    )
    if args.mc_check and math.isfinite(n):
        n_int = max(2, math.ceil(n))
        p = mc_power_oracle(
            TimingDistribution(1.0, 1.0), TimingDistribution(1.0 + d, 1.0),
            n_int, spec, seed=_default_seed(args),
        )
        _err(f"mc-check: empirical power {p:.3f} at n={n_int}")
        if abs(p - spec.power) > 0.05:
            return EXIT_TOLERANCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / attack

def _run_scenario(args, seed_shift: int = 0):
    seed = _default_seed(args) + seed_shift
    scenario = cloudsim.load_scenario(args.scenario, seed=seed)
    return scenario, cloudsim.run_simulation(scenario)


def cmd_simulate(args) -> int:
    _, log = _run_scenario(args)
    if args.out_dir:
        path = _out_dir(args) / "jobs.csv"
        write_csv(path, cloudsim.JOB_COLUMNS, log.rows(), digits=12)
        _err(f"job log written to {path}")
    else:
        write_csv(sys.stdout, cloudsim.JOB_COLUMNS, log.rows(), digits=12)
    _err(
        f"{len(log)} jobs ({int(log.victim.sum())} victim), "
        f"{log.truncations} truncated durations"
    )
    return EXIT_OK


def cmd_attack(args) -> int:
    spec = _spec(args)
    backend = BACKEND_FLAG[args.backend or "qc"]
    kind = args.attack

    if kind in ("ca", "qm"):
        # null designs: two runs of the same scenario, different seeds
        _, log_a = _run_scenario(args, seed_shift=0)
        _, log_b = _run_scenario(args, seed_shift=1)
        try:
            verdict, (ns, dom, band) = attacks.null_distinguishability(
                trace_mod.reconstruct(log_a), trace_mod.reconstruct(log_b)
            )
        except ValueError as exc:  # a trace too short to compare
            _err(f"attack {kind}: {exc}")
            return EXIT_USAGE
        write_csv(sys.stdout, ["attack", "verdict", "points"],
                  [[kind.upper(), verdict, len(ns)]])
        if args.out_dir:
            write_csv(_out_dir(args) / f"{kind}_dom.csv", ["n", "dom", "band"],
                      zip(ns, dom, band))
        _err(f"{kind.upper()} null comparison: {verdict}")
        return EXIT_TOLERANCE if verdict == attacks.DISTINGUISHABLE else EXIT_OK

    if kind == "qp":
        devices = cloudsim.load_reference_devices(args.scenario)
        if len(devices) < 2:
            _err("attack qp: scenario needs a reference_devices list (>= 2)")
            return EXIT_USAGE
    scenario, log = _run_scenario(args)
    tr = trace_mod.reconstruct(log)
    if kind == "uc":
        table = _load_table(args)
        verdict = attacks.uc_classify(tr, table, backend, spec)
    elif kind == "co":
        catalog = baseline.grover_catalog()
        verdict, req_m = attacks.co_identify(tr, catalog, spec)
        if args.out_dir:
            _write_matrix(
                _out_dir(args) / "co_required.csv", _grover_labels(catalog), req_m
            )
    else:
        try:
            verdict = attacks.qp_fingerprint(
                tr, devices, scenario.victim_circuit, spec=spec
            )
        except ValueError as exc:
            _err(f"attack {kind}: {exc}")
            return EXIT_USAGE
    write_records(sys.stdout, attacks.AttackVerdict, [verdict])
    if args.out_dir:
        write_records(
            _out_dir(args) / f"{kind}_verdict.csv", attacks.AttackVerdict, [verdict]
        )
    _err(
        f"{verdict.attack}: label={verdict.label!r} n={verdict.measurements_used}"
        + (" (under-powered)" if verdict.underpowered else "")
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# mitigate

def _build_mitigation(args) -> mitigations.Mitigation:
    params = {f.name: getattr(args, f.name) for f in fields(mitigations.Mitigation)}
    if args.kind == mitigations.CIRCUIT_PADDING:
        # the decoy defaults to the reference circuit
        params["pad_toward"] = args.pad_toward or args.reference
    return mitigations.Mitigation(**params)


def cmd_mitigate(args) -> int:
    table = _load_table(args)
    backend = BACKEND_FLAG[args.backend or "qc"]
    try:
        m = _build_mitigation(args)
        report = mitigations.evaluate(
            m, table, backend, args.victim, args.reference, _spec(args)
        )
    except (ValueError, KeyError) as exc:
        _err(f"mitigate: {exc}")
        return EXIT_USAGE
    write_records(sys.stdout, mitigations.MitigationReport, [report])
    _err(f"{m.kind}: requirement inflation x{report.inflation:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------

#: every flag of the CLI; each subcommand declares the ones it reads
FLAGS = {
    "table": dict(help="baseline table CSV (default: bundled)"),
    "backend": dict(choices=("sim", "qc")),
    "alpha": dict(type=_probability, default=PowerSpec.alpha),
    "power": dict(type=_probability, default=PowerSpec.power),
    "seed": dict(type=int, help="override QLEAK_SEED / 0"),
    "out-dir": dict(),
    "mc-check": dict(action="store_true", help="cross-check analytics with Monte Carlo"),
    "scenario": dict(required=True, help="scenario YAML file"),
    "effect-size": dict(type=float),
    "delta-mean": dict(type=float),
    "variance": dict(type=float),
    "attack": dict(choices=("uc", "co", "ca", "qm", "qp"), required=True),
    "kind": dict(choices=mitigations.KINDS, required=True),
    "victim": dict(required=True),
    "reference": dict(required=True),
    **{
        f.name.replace("_", "-"): dict(type=type(f.default), default=f.default)
        for f in fields(mitigations.Mitigation)
        if f.name != "kind"
    },
}

SUBCOMMANDS = (
    ("reproduce-table", cmd_reproduce_table, "recompute the requirement table",
     "table backend alpha power seed mc-check"),
    ("matrix", cmd_matrix, "Grover catalog overlap/requirement matrices",
     "out-dir"),
    ("power", cmd_power, "sample-size planning",
     "alpha power seed mc-check effect-size delta-mean variance"),
    ("simulate", cmd_simulate, "run a scenario, dump the job log",
     "scenario seed out-dir"),
    ("attack", cmd_attack, "run an attack on a scenario",
     "scenario attack table backend alpha power seed out-dir"),
    ("mitigate", cmd_mitigate, "evaluate a countermeasure",
     "table backend alpha power kind victim reference added-variance "
     "layout-spread layouts pad-toward pad-fraction batch-factor"),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qleak", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in SUBCOMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            sp.add_argument(f"--{flag}", **FLAGS[flag])
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (cloudsim.ScenarioError, baseline.TableFormatError, FileNotFoundError) as exc:
        _err(f"error: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
