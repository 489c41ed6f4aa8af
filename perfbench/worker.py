"""One benchmark worker process; perfbench/run.py starts it.

    python3 perfbench/worker.py '<json config>'

The config names a mode and where to write the result (JSON):

- ``setup``: import qleak and do the workload's set-up, nothing else;
- ``plan``: one cold-cache planning pass;
- ``spy``: eavesdropping rounds until ``seconds`` have passed (or exactly
  ``rounds`` rounds);
- ``probe``: the layer probe, every CLI subcommand through ``cli.main``
  in this already-imported process plus the public calls no subcommand
  makes;
- ``cli`` / ``demo``: one traced CLI invocation or demo script, with the
  output going to this process's stdout as usual.

``ready`` in the result is the monotonic clock when set-up ended and the
first timed op could start; the starting process subtracts its spawn time.
With ``"trace": true`` the tracer wraps qleak before set-up.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import workloads as wl


def _setup(cfg):
    """Import qleak (wrapped when traced) and do the workload's set-up."""
    import qleak

    tracer = None
    if cfg.get("trace"):
        import tracer as tracing

        tracer = tracing.install()
    table = qleak.bundled_table()
    ctx = {"table": table}
    if cfg.get("workload") == "spy":
        ctx["catalog"] = qleak.grover_catalog()
        # the CO attack reads the catalog matrices: warm the solver once
        qleak.catalog_matrices(ctx["catalog"])
        ctx["qp_scenario"] = cfg["qp_scenario"]
    return qleak, tracer, ctx


def _versions():
    import platform

    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _run(run_op, op):
    try:
        return run_op(op)
    except Exception as exc:  # a failing op is counted, not fatal
        return {"kind": op.get("kind", "?"), "t": 0.0, "units": 0, "ok": False,
                "verdicts": (0, 0), "error": f"{type(exc).__name__}: {exc}"}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    mode = cfg["mode"]
    if mode in ("cli", "demo"):
        import tracer as tracing

        tracer = tracing.install()
        try:
            if mode == "cli":
                from qleak import cli

                code = cli.main(cfg["argv"])
            else:
                import runpy

                runpy.run_path(cfg["path"], run_name="__main__")
                code = 0
        finally:
            sys.stdout.flush()
            Path(cfg["out"]).write_text(json.dumps({"layers": tracer.export()}))
        return code

    golden = wl.load_golden()
    q, tracer, ctx = _setup(cfg)
    result = {"ready": time.monotonic()}
    off = tracer.off if tracer else contextlib.nullcontext
    seed = cfg.get("seed", 0)

    if mode == "setup":
        result["versions"] = _versions()
    elif mode == "plan":
        ops = wl.plan_pass(seed, cfg["index"], golden)
        result["ops"] = [
            _run(lambda op: wl.run_plan_op(op, q, ctx["table"], golden, off), op)
            for op in ops
        ]
    elif mode == "spy":
        records = []
        index = 0
        while True:
            for op in wl.spy_round(seed, index, golden):
                records.append(_run(lambda o: wl.run_spy_op(o, q, ctx), op))
            index += 1
            if "rounds" in cfg:
                if index >= cfg["rounds"]:
                    break
            elif time.monotonic() - result["ready"] >= cfg["seconds"]:
                break
        result["ops"] = records
        result["rounds"] = index
    elif mode == "probe":
        result["inproc"], result["errors"] = _probe(q, ctx, cfg, golden, off)
    else:
        raise SystemExit(f"unknown mode {mode!r}")

    if tracer is not None:
        result["layers"] = tracer.export()
    Path(cfg["out"]).write_text(json.dumps(result))
    return 0


def _probe(q, ctx, cfg, golden, off):
    """Each subcommand of one CLI cycle through cli.main in this process,
    `power` with its Monte-Carlo check, then pairwise_matrix, detect_backend
    and Mitigation.apply_to_scenario, which no subcommand calls."""
    from qleak import cli

    timings: dict[str, list[float]] = {}
    errors = []
    ops = [op for op in wl.cli_cycle(cfg["seed"], 0, golden, Path(cfg["workdir"]))
           if op["sub"] != "demo"]
    # subcommands in a fixed order, so solver-cache hits do not depend on the seed
    for op in sorted(ops, key=lambda op: op["sub"]):
        argv = op["argv"]
        if op["sub"] == "power":
            argv = ["power", "--effect-size", "1.0", "--mc-check"]
        # reproduce-table solves on a thread pool, so which thread misses
        # the solver cache first (and the call counts) vary run to run
        quiet = off() if op["sub"] == "reproduce-table" else contextlib.nullcontext()
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), quiet:
            code = cli.main(argv)
        timings.setdefault(op["sub"], []).append(time.perf_counter() - t0)
        if code not in (0, 1):
            errors.append(f"{' '.join(argv)} exited {code}")

    table = ctx["table"]
    sub = q.BaselineTable(table.entries[:4], table.sim_variance, table.qc_variance)
    q.pairwise_matrix(sub, "hardware")
    op = {"reps": 2000, "seed": cfg["seed"]}
    scenario = wl.session_scenario(q, table.timing("GHZ", "hardware"), op, victim="GHZ")
    scenario = q.Mitigation(kind="scheduler-batching", batch_factor=2
                            ).apply_to_scenario(scenario)
    q.detect_backend(wl.reconstruct(q, q.run_simulation(scenario)), table)
    return timings, errors


if __name__ == "__main__":
    sys.exit(main())
