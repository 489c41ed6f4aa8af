"""qleak benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload plan|spy|cli --seed N --seconds S --trace 0|1

Run it from the root of a qleak checkout (it imports ``src/qleak``, never
an installed copy). The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (source digest, versions, nproc, load average and host
speed at start and end, seed, pinned thread variables, and how each
metric was formed).

Load is a closed loop with one client: this process starts at most one
worker process at a time, and each worker pins OMP/OPENBLAS/MKL threads
to 1.

Workloads (why each was chosen):

- ``plan``: cold-cache planning passes, one fresh worker per pass. The
  solver (``stats``) and ``baseline`` do the work; the lru_cache dies with
  every CLI process, so users pay cold solves. Op: one planning call;
  ops_per_s counts requirement values produced.
- ``spy``: eavesdropping rounds in one worker (solver cache warmed in
  set-up). ``cloudsim``, ``trace`` and ``attacks`` do the work. Batched and
  gapped sessions are kept so the known reconstruction defect shows in
  attack_accuracy. Op: one session; ops_per_s counts victim executions.
- ``cli``: fresh ``python -m qleak.cli`` processes and the three demos, one
  at a time. Import and per-call fixed costs dominate. Op: one invocation.

Passes, rounds and cycles run whole until ``--seconds`` have passed, so
every run measures the same mix of ops.

End-to-end metrics (``--trace 0``): setup_s (median over the run's fresh
workers, topped up to three with set-up-only workers), ops_per_s, op_p50_s, op_tail_s (the highest percentile with at
least ten ops beyond it), attack_accuracy (verdicts matching ground truth;
on ``plan`` the verdicts are power plans judged by the Monte-Carlo
oracle) and peak_rss_mb. The error rate is ``failed / attempted``.

``--trace 1`` runs the first pass, round or cycle untraced and then
traced, plus the layer probe (every subcommand through ``cli.main`` in one
process, and once each in a fresh process), and prints the per-layer
metrics of tracer.py, the import breakdown from ``python -X importtime``
and the tracing overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer as tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
SPAWN_TIMEOUT = 150.0
CLI_SUBCOMMANDS = ("reproduce-table", "matrix", "power", "simulate", "attack",
                   "mitigate")
IMPORT_MODULES = {"import.total_s": "qleak", "import.scipy_stats_s": "scipy.stats",
                  "import.scipy_special_s": "scipy.special",
                  "import.numpy_s": "numpy", "import.yaml_s": "yaml"}


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed op)."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "QLEAK_"))}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], out: Path, err: Path) -> dict:
    """Run one process to completion: exit code, wall time, peak RSS."""
    with out.open("wb") as fo, err.open("wb") as fe:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=worker_env(),
                                cwd=ROOT)
        timer = threading.Timer(SPAWN_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "t0": t0, "wall": time.monotonic() - t0,
            "rss_mb": usage.ru_maxrss / 1024.0}


class Run:
    def __init__(self, args):
        self.args = args
        self.work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.golden = wl.load_golden()
        self.n = 0
        self.versions = None
        # the QP session's scenario file, read by spy workers
        self.qp_path = self.work / "qp.yaml"
        self.qp_path.write_text(wl.qp_scenario_yaml(10_000, 0), encoding="utf-8")

    def path(self, stem: str) -> Path:
        self.n += 1
        return self.work / f"{self.n:04d}-{stem}"

    def worker(self, cfg: dict) -> tuple[dict, dict]:
        """Start a worker, wait for it, return (process stats, its result)."""
        out = self.path(f"{cfg['mode']}.json")
        cfg = dict(cfg, out=str(out), workload=self.args.workload,
                   seed=self.args.seed, workdir=str(self.work),
                   qp_scenario=str(self.qp_path))
        stdout, stderr = self.path("out.txt"), self.path("err.txt")
        proc = spawn([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                     stdout, stderr)
        if proc["code"] != 0 or not out.exists():
            raise BenchError(f"worker {cfg['mode']} exited {proc['code']}: "
                             + stderr.read_text(errors="replace")[-2000:])
        result = json.loads(out.read_text())
        if "ready" in result:
            proc["setup"] = result["ready"] - proc["t0"]
        return proc, result

    def setups(self, have: list[float], want: int = SETUP_SAMPLES) -> list[float]:
        """Top up set-up samples with set-up-only workers."""
        samples = list(have)
        while len(samples) < want or self.versions is None:
            proc, res = self.worker({"mode": "setup"})
            samples.append(proc["setup"])
            self.versions = res["versions"]
        return samples

    # -- cli invocations ----------------------------------------------------

    def invoke(self, op: dict, traced: bool = False) -> dict:
        """One CLI invocation or demo in a fresh process, checked."""
        stdout, stderr = self.path("out.txt"), self.path("err.txt")
        layers = self.path("layers.json")
        if op["sub"] == "demo":
            script = ROOT / "demos" / op["demo"]
            argv = ([sys.executable, str(HERE / "worker.py"), json.dumps(
                {"mode": "demo", "path": str(script), "out": str(layers)})]
                if traced else [sys.executable, str(script)])
        elif traced:
            argv = [sys.executable, str(HERE / "worker.py"), json.dumps(
                {"mode": "cli", "argv": op["argv"], "out": str(layers)})]
        else:
            argv = [sys.executable, "-m", "qleak.cli", *op["argv"]]
        proc = spawn(argv, stdout, stderr)
        ok, verdicts = wl.check_cli(
            op, proc["code"], stdout.read_text(errors="replace"),
            stderr.read_text(errors="replace"), self.golden)
        record = {"kind": op["sub"] if op["sub"] != "attack" else f"attack:{op['attack']}",
                  "sub": op["sub"], "t": proc["wall"], "units": 1, "ok": ok,
                  "verdicts": verdicts, "rss_mb": proc["rss_mb"]}
        if not ok:
            record["error"] = (f"exit {proc['code']}: "
                               + stderr.read_text(errors="replace")[-500:])
        if traced and layers.exists():
            record["layers"] = json.loads(layers.read_text())["layers"]
        return record

    def cli_cycles(self, seconds: float | None, traced: bool = False) -> list[dict]:
        records, index, start = [], 0, time.monotonic()
        while True:
            for op in wl.cli_cycle(self.args.seed, index, self.golden, self.work):
                records.append(self.invoke(op, traced))
            index += 1
            if seconds is None or time.monotonic() - start >= seconds:
                return records

    # -- workloads ------------------------------------------------------------

    def measure(self, seconds: float | None, traced: bool = False):
        """Run the workload: (op records, set-up samples, peak RSS, layers).

        With `seconds` None, run one pass, round or cycle (traced runs)."""
        w = self.args.workload
        layers = []
        if w == "plan":
            records, setups, rss = [], [], 0.0
            index, start = 0, time.monotonic()
            while True:
                proc, res = self.worker({"mode": "plan", "index": index,
                                         "trace": traced})
                records += res["ops"]
                setups.append(proc["setup"])
                rss = max(rss, proc["rss_mb"])
                layers.append(res.get("layers"))
                index += 1
                if seconds is None or time.monotonic() - start >= seconds:
                    break
        elif w == "spy":
            cfg = {"mode": "spy", "trace": traced}
            cfg.update({"rounds": 1} if seconds is None else {"seconds": seconds})
            proc, res = self.worker(cfg)
            records, setups, rss = res["ops"], [proc["setup"]], proc["rss_mb"]
            layers.append(res.get("layers"))
        else:
            records = self.cli_cycles(seconds, traced)
            setups = []
            rss = max(r["rss_mb"] for r in records)
            layers += [r.get("layers") for r in records]
        return records, setups, rss, [x for x in layers if x]

    def untraced(self) -> tuple[dict, list[dict], dict]:
        records, setups, rss, _ = self.measure(self.args.seconds)
        metrics, notes = end_to_end(records, self.setups(setups), rss)
        return metrics, records, notes

    def traced(self) -> tuple[dict, list[dict], dict]:
        base, _, _, _ = self.measure(None)
        records, _, _, layers = self.measure(None, traced=True)
        self.setups([], want=1)
        _, probe = self.worker({"mode": "probe", "trace": True})
        if probe["errors"]:
            raise BenchError("layer probe: " + "; ".join(probe["errors"]))
        merged = tracing.merge(layers + [probe["layers"]])
        metrics = tracing.layer_metrics(merged)
        if self.args.workload == "cli":
            walls = base
        else:
            # one fresh process per subcommand (attack: uc)
            firsts = {}
            for op in wl.cli_cycle(self.args.seed, 0, self.golden, self.work):
                if op["sub"] in CLI_SUBCOMMANDS and op.get("attack", "uc") == "uc":
                    firsts.setdefault(op["sub"], op)
            walls = [self.invoke(op) for op in firsts.values()]
        for sub in CLI_SUBCOMMANDS:
            wall = [r["t"] for r in walls if r.get("sub") == sub]
            metrics[f"cli.{sub}.wall_s"] = (statistics.median(wall), "s")
            metrics[f"cli.{sub}.inproc_s"] = (
                statistics.median(probe["inproc"][sub]), "s")
        metrics.update(import_breakdown(self.path("importtime.txt")))
        untraced_t = sum(r["t"] for r in base)
        traced_t = sum(r["t"] for r in records)
        metrics["tracing.overhead_ratio"] = (traced_t / untraced_t, "ratio")
        notes = {"traced_op_s": traced_t, "untraced_op_s": untraced_t}
        return metrics, base + records + walls, notes


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    values beyond it; with ten or fewer values, the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(records, setups, rss) -> tuple[dict, dict]:
    done = [r for r in records if r["ok"]]
    busy = sum(r["t"] for r in done)
    lat = [r["t"] for r in done]
    right = sum(r["verdicts"][0] for r in records)
    made = sum(r["verdicts"][1] for r in records)
    tail, pct = percentile_tail(lat) if lat else (float("nan"), 0.0)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(r["units"] for r in done) / busy if busy else 0.0, "1/s"),
        "op_p50_s": (statistics.median(lat) if lat else float("nan"), "s"),
        "op_tail_s": (tail, "s"),
        "attack_accuracy": (right / made if made else 0.0, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = {"ops": len(records), "op_tail_percentile": pct,
             "setup_samples": setups, "verdicts": [right, made],
             "error_rate": (len(records) - len(done)) / len(records) if records else 1.0}
    return metrics, notes


def import_breakdown(path: Path) -> dict:
    """Import time per package from one fresh `python -X importtime`.

    A package's time is the cumulative time of every import of one of its
    modules made from outside the package, wherever in the tree it
    happened (scipy.stats, for one, is first pulled in by scipy.integrate).
    """
    with path.open("wb") as fe:
        subprocess.run([sys.executable, "-X", "importtime", "-c", "import qleak"],
                       stdout=subprocess.DEVNULL, stderr=fe, env=worker_env(),
                       cwd=ROOT, timeout=SPAWN_TIMEOUT, check=True)
    lines = []
    for line in path.read_text().splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)$", line)
        if m:
            lines.append((len(m.group(2)) // 2, m.group(3), int(m.group(1))))
    # children are printed before their parent: walk backwards to find parents
    parent, stack = {}, []
    for i in range(len(lines) - 1, -1, -1):
        level = lines[i][0]
        while stack and lines[stack[-1]][0] >= level:
            stack.pop()
        parent[i] = lines[stack[-1]][1] if stack else ""
        stack.append(i)

    def inside(name, pkg):
        return name == pkg or name.startswith(pkg + ".")

    return {
        metric: (sum(cum for i, (_, name, cum) in enumerate(lines)
                     if inside(name, pkg) and not inside(parent[i], pkg)) / 1e6,
                 "s")
        for metric, pkg in IMPORT_MODULES.items()
    }


def host_speed() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host runs now.

    Recorded beside the load average; shared hosts drift by tens of
    percent over minutes, which moves every timing of a run alike."""
    t0 = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - t0


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout, when the checkout is itself a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            timeout=10, capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("plan", "spy", "cli"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "qleak" / "__init__.py").is_file():
        print(f"error: no qleak sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    load_start, host_start = os.getloadavg(), host_speed()
    run = Run(args)
    try:
        metrics, records, notes = run.traced() if args.trace else run.untraced()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    failed = [r for r in records if not r["ok"]]
    for r in failed[:5]:
        print(f"failed op {r['kind']}: {r.get('error', 'output check')}",
              file=sys.stderr)
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    record = {
        "git_sha": git_sha(), "src_sha256": source_digest(),
        "versions": run.versions, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "host_loop_s_start": host_start, "host_loop_s_end": host_speed(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "threads": dict.fromkeys(THREAD_VARS, "1"),
        **notes,
    }
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:42s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
