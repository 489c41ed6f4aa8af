"""Command-line front end.

Subcommands::

    qleak reproduce-table   recompute the required-measurement table
    qleak matrix            emit the 24-variant Grover catalog matrices
    qleak power             sample-size planning for a given effect size
    qleak simulate          run a scenario and dump the job log
    qleak attack            run an attack end to end on a scenario
    qleak mitigate          cost/benefit report for a countermeasure

Results go to stdout as CSV; diagnostics go to stderr. Exit status is 0
on success, 1 when a tolerance or distinguishability check fails, 141
when stdout closes early, and 2 for a usage error: a `ValueError` (a
rejected value, such as a flag the subcommand or attack kind does not
read: uc reads --table --backend --alpha --power, co and qp --alpha
--power) or an `OSError` (an unusable path or a failed write), printed
as one `<subcommand>: <reason>` line (`attack <kind>: ` for attack). Any
other exception is a bug and ends in a traceback. A scenario's seed is
--seed, else the file's `seed:`, else 0. --out-dir is made before the run.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import attacks, baseline, cloudsim, mitigations, stats, trace as trace_mod
from .csvout import write_csv, write_records

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: what a shell reports for a closed pipe

BACKEND_FLAG = {"sim": baseline.SIMULATOR, "qc": baseline.HARDWARE}

#: draws one --mc-check takes at most: 2,048 trials at the oracle's largest n
MC_CHECK_DRAWS = 1 << 28

#: relative-error tolerances for table reproduction
TOL_LARGE = 0.02   # printed n >= 100
TOL_SMALL = 0.15   # printed n < 100


def _err(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_table(args) -> baseline.BaselineTable:
    if args.table:
        return baseline.load_table(args.table)
    return baseline.bundled_table()


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
    spec = args.spec
    backends = [BACKEND_FLAG[args.backend]] if args.backend else list(baseline.BACKENDS)
    rows = [_table_row(table, e.name, b, spec) for b in backends for e in table.entries]
    write_csv(sys.stdout, [
        "name", "backend", "nearest_neighbor", "printed_n",
        "computed_n", "rel_err", "status",
    ], rows)
    failures = sum(row[-1] == "FAIL" for row in rows)
    _err(f"{len(rows)} cells, {failures} outside tolerance")
    return EXIT_TOLERANCE if failures else EXIT_OK


def _mc_check(n: float, d: float, spec: stats.PowerSpec) -> bool:
    """Check the plan n for two unit-variance models d apart with the
    Monte-Carlo oracle at n_i = max(2, ceil(n)) and seed 0, drawing up to
    10,000 trials within MC_CHECK_DRAWS, and report on stderr. True when
    the check fails: the empirical power lies more than the band (4
    binomial standard errors plus one trial) from the pooled test's power a
    at n_i, or that far below the target. A check whose d or n is not
    finite, whose n_i is past the oracle's range, or whose draws overflow
    the oracle's row moments, is skipped, reported and not failed."""
    if not (math.isfinite(n) and math.isfinite(d)):
        reason = f"effect size is {d}" if not math.isfinite(d) else f"planned n is {n}"
        _err(f"mc-check d={d:g}: skipped ({reason})")
        return False
    n_int = max(2, math.ceil(n))
    if n_int > stats._MC_BLOCK_DRAWS:
        _err(f"mc-check d={d:g}: skipped (planned n is {n_int}, "
             f"past the oracle's {stats._MC_BLOCK_DRAWS})")
        return False
    unit = stats.TimingDistribution
    trials = min(10_000, MC_CHECK_DRAWS // (2 * n_int))
    p = stats.mc_power_oracle(unit(1.0, 1.0), unit(1.0 + d, 1.0), n_int, spec, trials, 0)
    if math.isnan(p):
        _err(f"mc-check d={d:g}: skipped (rows of {n_int} draws overflow)")
        return False
    a = stats.pooled_t_power(n_int, d, spec.alpha)
    band = 4.0 * math.sqrt(a * (1.0 - a) / trials) + 1.0 / trials
    _err(f"mc-check d={d:g}: n={n_int} empirical power {p:.3f} "
         f"(analytic {a:.3f} +- {band:.2g}, {trials} trials)")
    return abs(p - a) > band or p < spec.power - band


# ---------------------------------------------------------------------------
# matrix

def cmd_matrix(args) -> int:
    # at the default alpha and power, which the envelope check assumes
    catalog = baseline.grover_catalog()
    ovl_m, req_m = baseline.catalog_matrices(catalog)
    labels = _grover_labels(catalog)
    header = ["i", "j", "ovl", "required_n"]
    if args.out_dir:
        out = args.out_dir
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
    spec = args.spec
    if args.effect_size is not None and (args.delta_mean, args.variance) == (None, None):
        d = args.effect_size
        if d < 0:
            raise ValueError(f"--effect-size must be non-negative, got {d}")
    elif args.effect_size is None and None not in (args.delta_mean, args.variance):
        if not (math.isfinite(args.variance) and args.variance > 0):
            raise ValueError(
                f"--variance must be positive and finite, got {args.variance}"
            )
        d = abs(args.delta_mean) / math.sqrt(args.variance)
    else:
        raise ValueError("give --effect-size alone or --delta-mean with --variance")
    n = stats.required_sample_size(d, spec)
    # alpha and power are echoed unrounded
    write_csv(
        sys.stdout,
        ["effect_size", "alpha", "power", "required_n"],
        [[d, str(spec.alpha), str(spec.power), n]],
    )
    if args.mc_check and _mc_check(n, d, spec):
        return EXIT_TOLERANCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / attack

def cmd_simulate(args) -> int:
    log = cloudsim.run_simulation(cloudsim.load_scenario(args.scenario, args.seed))
    target = args.out_dir / "jobs.csv" if args.out_dir else sys.stdout
    write_csv(target, cloudsim.JOB_COLUMNS, log.rows(), digits=12)
    if args.out_dir:
        _err(f"job log written to {target}")
    _err(
        f"{len(log)} jobs ({int(log.victim.sum())} victim), "
        f"{log.truncations} truncated durations"
    )
    return EXIT_OK


def cmd_attack(args) -> int:
    kind = args.attack
    for flag in sorted(set(ATTACK_FLAGS) - set(ATTACK_READS[kind])):
        if getattr(args, flag) != FLAGS[flag].get("default"):
            raise ValueError(f"{kind} does not read --{flag}")
    scenario = cloudsim.load_scenario(args.scenario, args.seed)

    if kind in ("ca", "qm"):
        # null designs: two runs of the same scenario, at seed and seed + 1
        second = replace(scenario, seed=scenario.seed + 1)
        verdict, (ns, dom, band) = attacks.null_distinguishability(*(
            trace_mod.reconstruct(cloudsim.run_simulation(s)) for s in (scenario, second)
        ))
        write_csv(sys.stdout, ["attack", "verdict", "points"],
                  [[kind.upper(), verdict, len(ns)]])
        if args.out_dir:
            write_csv(args.out_dir / f"{kind}_dom.csv", ["n", "dom", "band"],
                      zip(ns, dom, band))
        _err(f"{kind.upper()} null comparison: {verdict}")
        return EXIT_TOLERANCE if verdict == attacks.DISTINGUISHABLE else EXIT_OK

    tr = trace_mod.reconstruct(cloudsim.run_simulation(scenario))
    if kind == "uc":
        backend = BACKEND_FLAG[args.backend or "qc"]
        verdict = attacks.uc_classify(tr, _load_table(args), backend, args.spec)
    elif kind == "co":
        catalog = baseline.grover_catalog()
        verdict, _ = attacks.co_identify(tr, catalog, args.spec)
        if args.out_dir:
            _write_matrix(args.out_dir / "co_required.csv", _grover_labels(catalog),
                          baseline.catalog_matrices(catalog, args.spec)[1])
    else:
        verdict = attacks.qp_fingerprint(tr, scenario.reference_devices,
                                         scenario.victim_circuit, args.spec)
    write_records(sys.stdout, attacks.AttackVerdict, [verdict])
    if args.out_dir:
        write_records(
            args.out_dir / f"{kind}_verdict.csv", attacks.AttackVerdict, [verdict]
        )
    if verdict.planned_n > cloudsim.MAX_REPETITIONS:
        _err(f"{verdict.attack}: the plan of {verdict.planned_n:.9g} runs is past "
             f"{cloudsim.MAX_REPETITIONS}, so no scenario can hold it")
    _err(
        f"{verdict.attack}: label={verdict.label!r} n={verdict.measurements_used}"
        + (" (under-powered)" if verdict.underpowered else "")
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# mitigate

def cmd_mitigate(args) -> int:
    table = _load_table(args)
    backend = BACKEND_FLAG[args.backend or "qc"]
    params = {f.name: getattr(args, f.name) for f in fields(mitigations.Mitigation)}
    if args.kind == mitigations.CIRCUIT_PADDING:
        # the decoy defaults to the reference circuit
        params["pad_toward"] = args.pad_toward or args.reference
    m = mitigations.Mitigation(**params)
    report = mitigations.evaluate(
        m, table, backend, args.victim, args.reference, args.spec
    )
    write_records(sys.stdout, mitigations.MitigationReport, [report])
    _err(f"{m.kind}: requirement inflation x{report.inflation:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------

#: the mitigation parameters by flag name, in `Mitigation` field order
MITIGATION_PARAMS = {
    f.name.replace("_", "-"): f
    for f in fields(mitigations.Mitigation) if f.name != "kind"
}

#: the flags each attack kind reads besides scenario, attack, seed and out-dir
ATTACK_READS = {"uc": ("table", "backend", "alpha", "power"),
                "co": ("alpha", "power"), "qp": ("alpha", "power"), "ca": (), "qm": ()}
ATTACK_FLAGS = tuple(dict.fromkeys(f for reads in ATTACK_READS.values() for f in reads))

#: every flag of the CLI; each subcommand declares the ones it reads
FLAGS = {
    "table": dict(help="baseline table CSV (default: bundled)"),
    "backend": dict(choices=("sim", "qc")),
    "alpha": dict(type=float, default=stats.PowerSpec.alpha),
    "power": dict(type=float, default=stats.PowerSpec.power),
    "seed": dict(type=int, help="the scenario's seed (default: its file's seed, else 0)"),
    "out-dir": dict(),
    "mc-check": dict(action="store_true", help="cross-check the plan with Monte Carlo"),
    "scenario": dict(required=True, help="scenario YAML file"),
    "effect-size": dict(type=float),
    "delta-mean": dict(type=float),
    "variance": dict(type=float),
    "attack": dict(choices=("uc", "co", "ca", "qm", "qp"), required=True),
    "kind": dict(choices=mitigations.KINDS, required=True),
    "victim": dict(required=True),
    "reference": dict(required=True),
    **{flag: dict(type=type(f.default), default=f.default)
       for flag, f in MITIGATION_PARAMS.items()},
}

SUBCOMMANDS = (
    ("reproduce-table", cmd_reproduce_table, "recompute the requirement table",
     "table backend alpha power"),
    ("matrix", cmd_matrix, "Grover catalog overlap/requirement matrices",
     "out-dir"),
    ("power", cmd_power, "sample-size planning",
     "alpha power mc-check effect-size delta-mean variance"),
    ("simulate", cmd_simulate, "run a scenario, dump the job log",
     "scenario seed out-dir"),
    ("attack", cmd_attack, "run an attack on a scenario",
     "scenario attack " + " ".join(ATTACK_FLAGS) + " seed out-dir"),
    ("mitigate", cmd_mitigate, "evaluate a countermeasure",
     "table backend alpha power kind victim reference " + " ".join(MITIGATION_PARAMS)),
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
        if hasattr(args, "alpha"):
            args.spec = stats.PowerSpec(args.alpha, args.power)
        if (getattr(args, "seed", None) or 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        if getattr(args, "out_dir", None):
            args.out_dir = Path(args.out_dir)
            args.out_dir.mkdir(parents=True, exist_ok=True)
        code = args.func(args)
        # a closed stdout surfaces here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # what is left to write goes nowhere, as after SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (ValueError, OSError) as exc:  # a rejected value, an unusable path
        where = " ".join(filter(None, (args.command, getattr(args, "attack", None))))
        _err(f"{where}: {exc}")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
