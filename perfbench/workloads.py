"""Seeded inputs and output checks for the `plan`, `spy` and `cli` workloads.

Every input is drawn from the workload seed (and the index of the pass,
round or cycle); qleak receives the generated inputs, never the seed.
Fixed-input outputs are compared with golden.json, a snapshot taken with
perfbench/snapshot.py; seeded outputs are checked by their defining
equation or, for simulated sessions, scored against ground truth.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

BACKENDS = ("simulator", "hardware")
CLI_BACKEND = {"simulator": "sim", "hardware": "qc"}
KINDS = ("timer-noise", "compile-randomness", "circuit-padding",
         "scheduler-batching")
REPORT_FIELDS = ("baseline_required_n", "mitigated_required_n", "inflation",
                 "overlap_before", "overlap_after", "mean_overhead",
                 "variance_overhead")
# effect sizes offered to `qleak power`; snapshot.py records their answers
POWER_EFFECT_SIZES = (0.02, 0.05, 0.08, 0.15, 0.3, 0.6, 1.0, 2.0)

PROBE = {"mean": 0.05, "variance": 0.0001}
# the demo scenario's candidate processors for the QP attack
QP_DEVICES = {"qpu_east": 2.779299043, "qpu_west": 3.6}
QP_VARIANCE = 0.3
QP_TRUTH = "qpu_east"

REL_TOL = 1e-12      # in-process outputs against the snapshot
PRINTED_TOL = 1e-9   # CLI outputs, on top of the 9-digit print rounding
MC_TOL = 0.05        # |empirical - target power| accepted from the oracle


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def mitigation_kwargs(kind: str, variance: float, reference: str) -> dict:
    """Fixed parameters of each countermeasure on a backend of the given
    per-circuit variance (shared by plan, cli and the snapshot)."""
    if kind == "timer-noise":
        return {"added_variance": variance}
    if kind == "compile-randomness":
        # a quarter sd keeps every layout's mean positive on both backends
        return {"layout_spread": 0.25 * math.sqrt(variance), "layouts": 4}
    if kind == "circuit-padding":
        return {"pad_toward": reference, "pad_fraction": 0.5}
    return {"batch_factor": 4}


def close(value: float, ref: float, rel: float = REL_TOL) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= rel * abs(ref)


def close_printed(text: str, ref: float) -> bool:
    """A `.9g`-printed CLI number against a full-precision reference: within
    PRINTED_TOL relative plus half a unit of the ninth significant digit."""
    value = float(text)
    if math.isinf(ref) or math.isinf(value) or ref == 0:
        return value == ref
    digit = 10.0 ** (math.floor(math.log10(abs(ref))) - 8)
    return abs(value - ref) <= PRINTED_TOL * abs(ref) + 0.5 * digit


def nn_pairs(golden: dict) -> list[tuple[str, str, str]]:
    """(backend, victim, nearest neighbour) for all 52 table cells."""
    return [
        (b, name, cell[0])
        for b in BACKENDS
        for name, cell in golden["cells"][b].items()
    ]


# ---------------------------------------------------------------------------
# plan: one cold-cache planning pass per fresh worker

# pairwise matrices of the table in six interleaved blocks (every sixth
# circuit): one cold 26x26 matrix per backend takes most of a minute
PAIRWISE_BLOCKS = 6
GRID_POINTS = 20
GRID_RANGE = (0.05, 2.5)
ORACLE_CHECKS = 2
# oracle checks use cells whose plan is large enough for the Welch test
# of the oracle and the pooled test of the plan to agree; trials shrink as
# n grows so that every check draws about the same number of samples
ORACLE_N_RANGE = (50.0, 500.0)
ORACLE_DRAWS = 1_000_000


def oracle_trials(n: int) -> int:
    return max(1000, round(ORACLE_DRAWS / n))


def plan_pass(seed: int, index: int, golden: dict) -> list[dict]:
    """The ops of one planning pass, in seeded order.

    Fixed inputs: all 52 table cells, the Grover catalog, and pairwise
    matrices (both backends) of each block of the table. Seeded inputs,
    stratified so every pass costs about the same: one effect size per log-spaced stratum of GRID_RANGE with
    seeded power and alpha, mitigation reports (all four kinds) for one
    nearest-neighbour pair from each quartile of planned n, and
    Monte-Carlo oracle checks of cells planned within ORACLE_N_RANGE."""
    rng = rng_for("plan", seed, index)
    names = list(golden["cells"]["hardware"])
    pairs = nn_pairs(golden)
    ops = [{"kind": "cell", "backend": b, "name": n} for b, n, _ in pairs]
    ops += [{"kind": "pairwise", "backend": b,
             "names": names[block::PAIRWISE_BLOCKS]}
            for block in range(PAIRWISE_BLOCKS) for b in BACKENDS]
    ops.append({"kind": "catalog"})
    lo, hi = (math.log(x) for x in GRID_RANGE)
    for i in range(GRID_POINTS):
        ops.append({
            "kind": "grid",
            "d": math.exp(lo + (hi - lo) * (i + rng.random()) / GRID_POINTS),
            "alpha": rng.choice((0.05, 0.01)),
            "power": rng.choice((0.8, 0.9)),
        })
    by_n = sorted(pairs, key=lambda p: golden["cells"][p[0]][p[1]][1])
    quarter = len(by_n) // 4
    for k in range(4):
        b, victim, ref = rng.choice(by_n[k * quarter:(k + 1) * quarter])
        ops += [{"kind": "mitigate", "backend": b, "victim": victim,
                 "reference": ref, "mitigation": kind} for kind in KINDS]
    n_lo, n_hi = ORACLE_N_RANGE
    checkable = [p for p in pairs
                 if n_lo <= golden["cells"][p[0]][p[1]][1] <= n_hi]
    for b, victim, ref in rng.sample(checkable, ORACLE_CHECKS):
        ops.append({"kind": "oracle", "backend": b, "victim": victim,
                    "reference": ref, "seed": rng.randrange(2**31)})
    rng.shuffle(ops)
    return ops


def run_plan_op(op: dict, q, table, golden: dict, off) -> dict:
    """Time one planning call, then check it with tracing off.

    Returns the op record: latency, units (requirement values produced),
    the check outcome and the plan verdicts (oracle checks only)."""
    kind = op["kind"]
    t0 = time.perf_counter()
    if kind == "cell":
        result = q.nearest_neighbor_requirement(table, op["name"], op["backend"])
    elif kind == "pairwise":
        sub = q.BaselineTable(
            tuple(table.entry(n) for n in op["names"]),
            table.sim_variance, table.qc_variance)
        result = q.pairwise_matrix(sub, op["backend"])
    elif kind == "catalog":
        result = q.catalog_matrices(q.grover_catalog())
    elif kind == "grid":
        result = q.required_sample_size(
            op["d"], q.PowerSpec(op["alpha"], op["power"]))
    elif kind == "mitigate":
        var = table.variance(op["backend"])
        m = q.Mitigation(kind=op["mitigation"], **mitigation_kwargs(
            op["mitigation"], var, op["reference"]))
        result = q.evaluate(m, table, op["backend"], op["victim"], op["reference"])
    elif kind == "oracle":
        _, n = q.nearest_neighbor_requirement(table, op["victim"], op["backend"])
        result = q.mc_power_oracle(
            table.timing(op["victim"], op["backend"]),
            table.timing(op["reference"], op["backend"]),
            max(2, math.ceil(n)), trials=oracle_trials(max(2, math.ceil(n))),
            seed=op["seed"])
    else:
        raise ValueError(f"unknown plan op {kind!r}")
    elapsed = time.perf_counter() - t0
    with off():
        units, ok, verdicts = _check_plan(op, result, q, golden)
    return {"kind": kind, "t": elapsed, "units": units, "ok": ok,
            "verdicts": verdicts}


def _check_plan(op, result, q, golden):
    kind = op["kind"]
    if kind == "cell":
        ref = golden["cells"][op["backend"]][op["name"]]
        return 1, result[0] == ref[0] and close(result[1], ref[1]), (0, 0)
    if kind == "pairwise":
        full = golden["pairwise"][op["backend"]]
        index = {n: i for i, n in enumerate(golden["cells"]["hardware"])}
        ids = [index[n] for n in op["names"]]
        k = len(ids)
        ok = all(
            close(float(result[a, b]), full[ids[a]][ids[b]])
            for a in range(k) for b in range(k) if a != b
        )
        return k * (k - 1) // 2, ok, (0, 0)
    if kind == "catalog":
        ovl_m, req_m = result
        g_ovl, g_req = golden["catalog"]["ovl"], golden["catalog"]["req"]
        k = len(g_ovl)
        ok = all(
            close(float(ovl_m[i, j]), g_ovl[i][j])
            and close(float(req_m[i, j]), g_req[i][j])
            for i in range(k) for j in range(k) if i != j
        )
        return k * (k - 1) // 2, ok, (0, 0)
    if kind == "grid":
        n = result
        if n == 1.0:
            ok = q.pooled_t_power(2.0, op["d"], op["alpha"]) >= op["power"]
        else:
            ok = abs(q.pooled_t_power(n, op["d"], op["alpha"]) - op["power"]) <= 1e-9
        return 1, bool(ok and math.isfinite(n)), (0, 0)
    if kind == "mitigate":
        key = f"{op['backend']}|{op['victim']}|{op['mitigation']}"
        ref = golden["mitigations"][key]
        ok = result.kind == op["mitigation"] and all(
            close(float(getattr(result, f)), r)
            for f, r in zip(REPORT_FIELDS, ref))
        return 2, ok, (0, 0)
    # oracle: the plan is right when the oracle measures its promised power
    good = abs(result - 0.80) <= MC_TOL
    return 1, good, (int(good), 1)


# ---------------------------------------------------------------------------
# spy: eavesdropping sessions, victims drawn by seed from the table

SESSION_REPS = (10_000, 20_000)
BATCH_FACTOR = 3
GAP = 0.2


def spy_round(seed: int, index: int, golden: dict) -> list[dict]:
    """One round: every table circuit on hardware as a plain, a batched
    (scheduler-batching x3) and a gapped (inter_job_gap 0.2 s) session,
    plus one Grover CO session per iteration count, one QP session on the
    demo scenario and one CA/QM null pair, in seeded order."""
    rng = rng_for("spy", seed, index)
    names = list(golden["cells"]["hardware"])
    ops = [{"kind": "uc", "victim": n, "mode": mode}
           for n in names for mode in ("plain", "batched", "gapped")]
    ops += [{"kind": "co", "variant": (it - 1) * 8 + rng.randrange(8)}
            for it in (1, 2, 3)]
    ops += [{"kind": "qp"}, {"kind": "null", "victim": rng.choice(names)}]
    # session sizes evenly spread over SESSION_REPS, dealt out by seed, so
    # every round simulates the same mix of sizes
    lo, hi = SESSION_REPS
    sizes = [lo + round((hi - lo) * (i + 0.5) / len(ops)) for i in range(len(ops))]
    rng.shuffle(sizes)
    for op, reps in zip(ops, sizes):
        op.update(reps=reps, seed=rng.randrange(2**31))
    rng.shuffle(ops)
    return ops


def reconstruct(q, log):
    """The CLI's reconstruction path: one execution per interval to start."""
    view = q.AttackerView.from_log(log)
    return q.assemble_trace(view, q.estimate_victim_mean(view))


def session_scenario(q, victim_timing, op, victim="victim", gap=0.0):
    """A shared device where a probe job follows every run of `victim`."""
    timings = {victim: victim_timing,
               "probe": q.TimingDistribution(PROBE["mean"], PROBE["variance"])}
    dev = q.DeviceProfile("shared_qpu", timings, inter_job_gap=gap)
    return q.Scenario(dev, victim, op["reps"], "probe", seed=op["seed"])


def run_spy_op(op: dict, q, ctx: dict) -> dict:
    """Simulate, reconstruct and attack one session (two for the null
    pair); verdicts are scored against the scenario's ground truth."""
    table, catalog = ctx["table"], ctx["catalog"]
    kind = op["kind"]
    t0 = time.perf_counter()
    if kind == "uc":
        timing = table.timing(op["victim"], "hardware")
        scenario = session_scenario(q, timing, op, victim=op["victim"],
                                    gap=GAP if op["mode"] == "gapped" else 0.0)
        if op["mode"] == "batched":
            scenario = q.Mitigation(
                kind="scheduler-batching", batch_factor=BATCH_FACTOR
            ).apply_to_scenario(scenario)
        tr = reconstruct(q, q.run_simulation(scenario))
        uc = q.uc_classify(tr, table, "hardware")
        backend = q.detect_backend(tr, table)
        labels = [(uc.label, op["victim"]), (backend.label, "hardware")]
        executions = op["reps"]
    elif kind == "co":
        variant = sorted(catalog, key=lambda v: v.index)[op["variant"]]
        scenario = session_scenario(q, variant.timing, op,
                                    victim=f"grover_{variant.index}")
        tr = reconstruct(q, q.run_simulation(scenario))
        verdict = q.co_identify(tr, catalog)[0]
        iteration, key = _parse_co(verdict.label)
        truth = (variant.iterations, variant.key if key != "under-powered" else key)
        labels = [((iteration, key), truth)]
        executions = op["reps"]
    elif kind == "qp":
        scenario = replace(q.load_scenario(ctx["qp_scenario"], seed=op["seed"]),
                           victim_repetitions=op["reps"])
        tr = reconstruct(q, q.run_simulation(scenario))
        devices = q.load_reference_devices(ctx["qp_scenario"])
        verdict = q.qp_fingerprint(tr, devices, scenario.victim_circuit)
        labels = [(verdict.label, QP_TRUTH)]
        executions = op["reps"]
    elif kind == "null":
        timing = table.timing(op["victim"], "hardware")
        traces = []
        for shift in (0, 1):
            scenario = session_scenario(
                q, timing, dict(op, seed=op["seed"] + shift), victim=op["victim"])
            traces.append(reconstruct(q, q.run_simulation(scenario)))
        verdict = q.null_distinguishability(*traces)[0]
        labels = [(verdict, q.INDISTINGUISHABLE)]
        executions = 2 * op["reps"]
    else:
        raise ValueError(f"unknown spy op {kind!r}")
    elapsed = time.perf_counter() - t0
    correct = sum(got == want for got, want in labels)
    return {"kind": f"{kind}:{op.get('mode', '')}", "t": elapsed,
            "units": executions, "ok": True, "verdicts": (correct, len(labels))}


def _parse_co(label: str):
    parts = dict(p.split("=", 1) for p in label.split())
    return int(parts["iterations"]), parts["key"]


def scenario_yaml(victim: str, timing: tuple[float, float], reps: int,
                  seed: int, devices: dict | None = None) -> str:
    """A scenario file in the schema of qleak.load_scenario."""
    mean, var = timing
    lines = [
        "device:",
        "  name: shared_qpu",
        "  inter_job_gap: 0.0",
        "  circuits:",
        f"    {json.dumps(victim)}: {{mean: {mean!r}, variance: {var!r}}}",
        f"    probe: {{mean: {PROBE['mean']!r}, variance: {PROBE['variance']!r}}}",
        f"victim: {{circuit: {json.dumps(victim)}, repetitions: {reps}}}",
        "attacker: {probe_circuit: probe, every_k: 1}",
        f"seed: {seed}",
    ]
    if devices:
        lines.append("reference_devices:")
        for name, dev_mean in devices.items():
            lines += [
                f"  - name: {name}",
                "    circuits:",
                f"      {json.dumps(victim)}: {{mean: {dev_mean!r}, variance: {var!r}}}",
            ]
    return "\n".join(lines) + "\n"


def qp_scenario_yaml(reps: int, seed: int) -> str:
    return scenario_yaml("GHZ", (QP_DEVICES[QP_TRUTH], QP_VARIANCE), reps,
                         seed, QP_DEVICES)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m qleak.cli` (or demo) process per op

DEMO_REPS = 700        # the demo scenario's size
# Attacks simulate with the demo scenario's seed and CO victims use key 011
# at each iteration count, so the attack verdicts are the same in every
# cycle: with one verdict per invocation, seeded sessions would make
# attack_accuracy swing by a sixth from run to run.
ATTACK_SEED = "2024"
CO_KEY_INDEX = 3
DEMOS = ("01_required_measurements.py", "02_spy_on_the_queue.py",
         "03_harden_the_service.py")


def cli_cycle(seed: int, index: int, golden: dict, workdir: Path) -> list[dict]:
    """One cycle: every subcommand once (mitigate once per kind, attack
    uc/qp/ca once and co once per iteration count) and the three demos, in
    seeded order. Scenario files are written into `workdir`."""
    rng = rng_for("cli", seed, index)
    pairs = nn_pairs(golden)

    demo = workdir / f"demo_{index}.yaml"
    demo.write_text(qp_scenario_yaml(DEMO_REPS, 2024), encoding="utf-8")

    d = rng.choice(POWER_EFFECT_SIZES)
    ops = [{"sub": "power", "argv": ["power", "--effect-size", repr(d)], "d": d}]
    for kind in KINDS:
        backend, victim, ref = rng.choice(pairs)
        var = golden["variance"][backend]
        argv = ["mitigate", "--kind", kind, "--victim", victim,
                "--reference", ref, "--backend", CLI_BACKEND[backend]]
        for k, v in mitigation_kwargs(kind, var, ref).items():
            argv += [f"--{k.replace('_', '-')}", v if isinstance(v, str) else repr(v)]
        ops.append({"sub": "mitigate", "argv": argv,
                    "key": f"{backend}|{victim}|{kind}"})
    ops.append({"sub": "simulate", "argv": [
        "simulate", "--scenario", str(demo), "--seed", str(rng.randrange(2**31))]})
    for attack in ("uc", "qp", "ca"):
        argv = ["attack", "--scenario", str(demo), "--attack", attack,
                "--seed", ATTACK_SEED]
        if attack == "uc":
            argv += ["--backend", "qc"]
        ops.append({"sub": "attack", "attack": attack, "argv": argv})
    for iteration in (1, 2, 3):
        variant = (iteration - 1) * 8 + CO_KEY_INDEX
        g = golden["catalog"]["variants"][variant]
        path = workdir / f"grover_{index}_{iteration}.yaml"
        path.write_text(scenario_yaml(
            f"grover_{variant + 1}", (g["mean"], g["variance"]), DEMO_REPS,
            2024), encoding="utf-8")
        ops.append({"sub": "attack", "attack": "co", "variant": variant,
                    "argv": ["attack", "--scenario", str(path), "--attack",
                             "co", "--seed", ATTACK_SEED]})
    ops.append({"sub": "matrix", "argv": ["matrix"]})
    ops.append({"sub": "reproduce-table", "argv": ["reproduce-table"]})
    ops += [{"sub": "demo", "demo": name, "argv": []} for name in DEMOS]
    rng.shuffle(ops)
    return ops


def _rows(stdout: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(stdout)))


def check_cli(op: dict, code: int, stdout: str, stderr: str,
              golden: dict) -> tuple[bool, tuple[int, int]]:
    """(output correct, (verdicts right, verdicts made)) for one invocation.

    Exit codes must match; labels and pure-planning numbers must match the
    snapshot; numbers that depend on the simulation need only be finite."""
    try:
        return _check_cli(op, code, stdout, stderr, golden)
    except (ValueError, KeyError, IndexError):
        return False, (0, 0)


def _finite(*texts: str) -> bool:
    return all(math.isfinite(float(t)) for t in texts)


def _check_cli(op, code, stdout, stderr, golden):
    sub = op["sub"]
    rows = _rows(stdout)
    if sub == "power":
        ok = (code == 0 and rows[0][-1] == "required_n"
              and close_printed(rows[1][3], golden["power"][repr(op["d"])]))
        return ok, (0, 0)
    if sub == "mitigate":
        ref = golden["mitigations"][op["key"]]
        row = rows[1]
        ok = (code == 0 and rows[0][1:] == list(REPORT_FIELDS)
              and row[0] == op["argv"][2]
              and all(close_printed(t, r) for t, r in zip(row[1:], ref)))
        return ok, (0, 0)
    if sub == "simulate":
        body = rows[1:]
        ids = [int(r[0]) for r in body]
        times = [(float(r[4]), float(r[5])) for r in body]
        ok = (code == 0 and len(body) == 2 * DEMO_REPS + 1
              and ids == list(range(len(body)))
              and all(math.isfinite(s) and e >= s for s, e in times))
        return ok, (0, 0)
    if sub == "attack":
        return _check_attack(op, code, rows, golden)
    if sub == "matrix":
        g_ovl, g_req = golden["catalog"]["ovl"], golden["catalog"]["req"]
        body = rows[1:]
        ok = code == 0 and len(body) == 24 * 23 and all(
            close_printed(r[2], g_ovl[int(r[0]) - 1][int(r[1]) - 1])
            and close_printed(r[3], g_req[int(r[0]) - 1][int(r[1]) - 1])
            for r in body)
        return ok, (0, 0)
    if sub == "reproduce-table":
        body = rows[1:]
        ok = code == 1 and len(body) == 52 and all(
            r[2] == golden["cells"][r[1]][r[0]][0]
            and close_printed(r[4], golden["cells"][r[1]][r[0]][1])
            and r[6] == golden["reproduce_status"][f"{r[1]}|{r[0]}"]
            for r in body)
        ok = ok and f"52 cells, {golden['reproduce_failures']} outside" in stderr
        return ok, (0, 0)
    # demos: exit status and the closing lines each demo prints
    marker = {
        DEMOS[0]: "empirical power",
        DEMOS[1]: "[QP] processor:",
        DEMOS[2]: "scheduler-batching",
    }[op["demo"]]
    return code == 0 and marker in stdout, (0, 0)


def _check_attack(op, code, rows, golden):
    attack = op["attack"]
    if attack == "ca":
        verdict = rows[1][1]
        expected_code = 1 if verdict == "distinguishable" else 0
        ok = (code == expected_code and rows[1][0] == "CA"
              and verdict in ("distinguishable", "indistinguishable")
              and int(rows[1][2]) >= 1)
        return ok, (int(verdict == "indistinguishable"), 1)
    header, row = rows[0], rows[1]
    fields = dict(zip(header, row))
    ok = (code == 0 and fields["attack"] == attack.upper()
          and int(fields["measurements_used"]) >= 1
          and _finite(fields["statistic"], fields["confidence"]))
    label = fields["label"]
    if attack == "uc":
        cell = golden["cells"]["hardware"].get(label)
        ok = ok and cell is not None and close_printed(fields["planned_n"], cell[1])
        return ok, (int(label == "GHZ"), 1)
    if attack == "qp":
        ok = ok and close_printed(fields["planned_n"], golden["qp_planned"])
        return ok, (int(label == QP_TRUTH), 1)
    # co: the plan is the requirement against the nearest same-iteration key
    iteration, key = _parse_co(label)
    g = golden["catalog"]["variants"][op["variant"]]
    plans = golden["catalog"]["key_plans"][str(iteration)]
    ok = ok and any(close_printed(fields["planned_n"], p) for p in plans)
    right = iteration == g["iterations"] and key in ("under-powered", g["key"])
    return ok, (int(right), 1)
