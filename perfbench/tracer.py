"""Per-layer tracing of qleak from outside the package.

`Tracer.install()` replaces the public functions listed in LAYER_FUNCS with
timing wrappers, in every loaded ``qleak`` module that holds a reference to
them, so cross-module calls (``qleak.baseline.required_sample_size``,
``qleak.cli.required_sample_size``, ...) are counted too. Nothing under
``src/`` changes; wrappers exist only in a traced worker process.

For every wrapped name the tracer keeps the call count, busy time (the
outermost call of that name) and self time (busy time minus the time spent
in wrapped children). Results of a few calls feed counters: simulated jobs
and truncations, reconstructed intervals, and the ground-truth score of
each trace against the scenario that produced it.
"""
from __future__ import annotations

import functools
import inspect
import math
import statistics
import threading
import time
from collections import deque
from contextlib import contextmanager

LAYER_FUNCS = (
    ("stats", "required_sample_size"),
    ("stats", "pooled_t_power"),
    ("stats", "ovl"),
    ("stats", "dom_curves"),
    ("stats", "mc_power_oracle"),
    ("baseline", "bundled_table"),
    ("baseline", "nearest_neighbor_requirement"),
    ("baseline", "pairwise_matrix"),
    ("baseline", "catalog_matrices"),
    ("cloudsim", "run_simulation"),
    ("cloudsim", "load_scenario"),
    ("trace", "assemble_trace"),
    ("attacks", "uc_classify"),
    ("attacks", "detect_backend"),
    ("attacks", "co_identify"),
    ("attacks", "qp_fingerprint"),
    ("attacks", "null_distinguishability"),
    ("mitigations", "evaluate"),
)
# (module, class, method, is_classmethod)
LAYER_METHODS = (
    ("trace", "AttackerView", "from_log", True),
    ("mitigations", "Mitigation", "apply_to_scenario", False),
)

COUNTERS = (
    "rss_distinct", "mc_trials", "jobs", "truncations", "intervals",
    "dropped_intervals", "count_matched", "count_scored", "underpowered",
    "ambiguous",
)


class _Span:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


def true_interval_counts(scenario) -> list[int]:
    """Victim executions between consecutive probes, from the scenario:
    full batches of probe_every, then the remainder."""
    k, reps = scenario.probe_every, scenario.victim_repetitions
    return [k] * (reps // k) + ([reps % k] if reps % k else [])


def score_trace(trace, scenario, truth) -> tuple[int, int, float]:
    """(intervals counted right, intervals, trace-mean bias in SE units).

    `truth` holds the victim's actual durations. Inferred counts can only
    be aligned with the true ones when no interval was dropped; otherwise
    every interval of the trace scores as miscounted.
    """
    expected = true_interval_counts(scenario)
    inferred = list(trace.inferred_counts)
    matched = (
        sum(a == b for a, b in zip(inferred, expected))
        if len(inferred) == len(expected)
        else 0
    )
    n = len(truth)
    sd = float(truth.std(ddof=1)) if n > 1 else 0.0
    bias = float(trace.durations.mean()) - float(truth.mean())
    bias_se = bias / (sd / math.sqrt(n)) if sd > 0 else math.inf
    return matched, len(expected), bias_se


class Tracer:
    def __init__(self):
        self.spans: dict[str, _Span] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.bias_se: list[float] = []
        self.enabled = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._rss_keys: set = set()
        # recent results, held so that ids stay unique while looked up
        self._logs: deque = deque(maxlen=8)
        self._views: deque = deque(maxlen=8)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        import importlib

        import qleak

        mods = {
            name: importlib.import_module(f"qleak.{name}")
            for name in ("stats", "baseline", "cloudsim", "trace", "attacks",
                         "mitigations", "cli")
        }
        holders = [qleak, *mods.values()]
        hooks = {
            "required_sample_size": self._on_rss,
            "mc_power_oracle": self._on_mc,
            "run_simulation": self._on_simulation,
            "assemble_trace": self._on_trace,
            "from_log": self._on_view,
        }
        for mod, name in LAYER_FUNCS:
            f = getattr(mods[mod], name, None)
            if f is None:
                continue
            w = self._wrap(f"{mod}.{name}", f, hooks.get(name))
            for h in holders:
                for attr, val in list(vars(h).items()):
                    if val is f:
                        setattr(h, attr, w)
        for mod, cls_name, meth, is_cm in LAYER_METHODS:
            cls = getattr(mods[mod], cls_name, None)
            raw = vars(cls).get(meth) if cls is not None else None
            if raw is None:
                continue
            f = raw.__func__ if is_cm else raw
            w = self._wrap(f"{mod}.{meth}", f, hooks.get(meth))
            setattr(cls, meth, classmethod(w) if is_cm else w)

    def _wrap(self, key, f, hook):
        span = self.spans.setdefault(key, _Span())
        local, lock = self._local, self._lock
        verdict_hook = self._on_verdict if key.startswith("attacks.") else None

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return f(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                span.calls += 1
                nested = span.depth > 0
                span.depth += 1
            if nested:
                try:
                    return f(*args, **kwargs)
                finally:
                    with lock:
                        span.depth -= 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = f(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                with lock:
                    span.depth -= 1
                    span.busy += dt
                    span.self_time += dt - child
                if stack:
                    stack[-1] += dt
            if hook is not None or verdict_hook is not None:
                with self.off():
                    if hook is not None:
                        hook(f, args, kwargs, result)
                    if verdict_hook is not None:
                        verdict_hook(result)
            return result

        return wrapper

    @contextmanager
    def off(self):
        """Run checks without counting them as program work."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- result hooks -----------------------------------------------------

    def _bump(self, name, by=1):
        with self._lock:
            self.counters[name] += by

    def _on_rss(self, f, args, kwargs, result):
        bound = inspect.signature(f).bind(*args, **kwargs)
        bound.apply_defaults()
        spec = bound.arguments.get("spec")
        key = (float(bound.arguments["d"]), getattr(spec, "alpha", None),
               getattr(spec, "power", None))
        with self._lock:
            if key not in self._rss_keys:
                self._rss_keys.add(key)
                self.counters["rss_distinct"] += 1

    def _on_mc(self, f, args, kwargs, result):
        bound = inspect.signature(f).bind(*args, **kwargs)
        bound.apply_defaults()
        self._bump("mc_trials", int(bound.arguments["trials"]))

    def _on_simulation(self, f, args, kwargs, log):
        scenario = args[0] if args else kwargs["scenario"]
        self._bump("jobs", len(log))
        self._bump("truncations", int(log.truncations))
        self._logs.append((log, scenario))

    def _on_view(self, f, args, kwargs, view):
        log = args[1] if len(args) > 1 else kwargs["log"]
        self._views.append((view, log))

    def _on_trace(self, f, args, kwargs, trace):
        from qleak import ground_truth_durations

        view = args[0] if args else kwargs["view"]
        self._bump("intervals", len(trace.inferred_counts) + trace.dropped_intervals)
        self._bump("dropped_intervals", int(trace.dropped_intervals))
        log = next((lg for v, lg in self._views if v is view), None)
        scenario = next((sc for lg, sc in self._logs if lg is log), None)
        if scenario is None or len(trace) == 0:
            return
        matched, scored, bias_se = score_trace(
            trace, scenario, ground_truth_durations(log)
        )
        self._bump("count_matched", matched)
        self._bump("count_scored", scored)
        with self._lock:
            self.bias_se.append(bias_se)

    def _on_verdict(self, result):
        verdict = result[0] if isinstance(result, tuple) else result
        if getattr(verdict, "underpowered", False):
            self._bump("underpowered")
        if getattr(verdict, "ambiguous", False):
            self._bump("ambiguous")

    # -- export -----------------------------------------------------------

    def export(self) -> dict:
        return {
            "spans": {
                k: {"calls": s.calls, "busy": s.busy, "self": s.self_time}
                for k, s in self.spans.items()
            },
            "counters": dict(self.counters),
            "bias_se": list(self.bias_se),
        }


def merge(exports: list[dict]) -> dict:
    """Sum span times, call counts and counters over several processes."""
    out = {"spans": {}, "counters": dict.fromkeys(COUNTERS, 0), "bias_se": []}
    for ex in exports:
        for k, s in ex["spans"].items():
            acc = out["spans"].setdefault(k, {"calls": 0, "busy": 0.0, "self": 0.0})
            for f in acc:
                acc[f] += s[f]
        for k, v in ex["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        out["bias_se"].extend(ex["bias_se"])
    return out


def layer_metrics(merged: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from merged exports."""
    spans, c = merged["spans"], merged["counters"]

    def span(key):
        return spans.get(key, {"calls": 0, "busy": 0.0, "self": 0.0})

    m: dict[str, tuple[float, str]] = {}

    def calls(key):
        m[f"{key}.calls"] = (span(key)["calls"], "count")

    def busy(key):
        m[f"{key}.busy_s"] = (span(key)["busy"], "s")

    def self_s(key):
        m[f"{key}.self_s"] = (span(key)["self"], "s")

    calls("stats.required_sample_size")
    m["stats.required_sample_size.distinct"] = (c["rss_distinct"], "count")
    busy("stats.required_sample_size")
    for key in ("stats.pooled_t_power", "stats.ovl"):
        calls(key)
        busy(key)
    busy("stats.dom_curves")
    mc = span("stats.mc_power_oracle")["busy"]
    m["stats.mc_power_oracle.trials_per_s"] = (
        c["mc_trials"] / mc if mc > 0 else 0.0, "1/s")

    busy("baseline.bundled_table")
    for key in ("baseline.nearest_neighbor_requirement",
                "baseline.catalog_matrices"):
        calls(key)
        busy(key)
        self_s(key)
    busy("baseline.pairwise_matrix")
    self_s("baseline.pairwise_matrix")

    sim = span("cloudsim.run_simulation")["busy"]
    busy("cloudsim.run_simulation")
    m["cloudsim.jobs"] = (c["jobs"], "count")
    m["cloudsim.jobs_per_s"] = (c["jobs"] / sim if sim > 0 else 0.0, "1/s")
    m["cloudsim.truncations"] = (c["truncations"], "count")
    busy("cloudsim.load_scenario")

    busy("trace.from_log")
    busy("trace.assemble_trace")
    m["trace.intervals"] = (c["intervals"], "count")
    m["trace.dropped_intervals"] = (c["dropped_intervals"], "count")
    scored = c["count_scored"]
    m["trace.count_accuracy"] = (
        c["count_matched"] / scored if scored else 0.0, "ratio")
    finite = [abs(b) for b in merged["bias_se"] if math.isfinite(b)]
    m["trace.mean_bias_se"] = (statistics.median(finite) if finite else 0.0, "SE")

    for name in ("uc_classify", "detect_backend", "co_identify",
                 "qp_fingerprint", "null_distinguishability"):
        busy(f"attacks.{name}")
    m["attacks.underpowered"] = (c["underpowered"], "count")
    m["attacks.ambiguous"] = (c["ambiguous"], "count")

    calls("mitigations.evaluate")
    busy("mitigations.evaluate")
    self_s("mitigations.evaluate")
    busy("mitigations.apply_to_scenario")
    return m


def install() -> Tracer:
    tracer = Tracer()
    tracer.install()
    return tracer
