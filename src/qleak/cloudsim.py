"""Seeded simulation of a serial cloud quantum job queue.

One device executes victim and attacker jobs back to back on an abstract
monotonic clock; durations are drawn from each circuit's timing model
(Gaussian, or a uniform mixture of Gaussians), truncated at a
1 microsecond floor (truncations are counted, never silent).
"""
from __future__ import annotations

import contextlib
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
import yaml
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.cyaml import CParser
from yaml.resolver import Resolver

from .stats import MixtureTiming, TimingDistribution

VICTIM = "victim"
ATTACKER = "attacker"

DURATION_FLOOR = 1e-6

#: a session peaks at about 100 bytes per job: 1.1 GB at this bound
MAX_REPETITIONS = 10**7


class ScenarioError(ValueError):
    """Invalid scenario: unknown circuit, bad counts, malformed config."""


def _check_ints(obj, names: tuple[str, ...], error: type[Exception]) -> None:
    """Raise `error` unless each named attribute of obj is an integer (a
    numpy one too), not a float or a bool."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DeviceProfile:
    """A backend with per-circuit latency models and a fixed gap between
    consecutive jobs."""

    name: str
    circuit_timings: Mapping[str, TimingDistribution | MixtureTiming]
    inter_job_gap: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("device name must be non-empty")
        if self.inter_job_gap < 0:
            raise ValueError("inter_job_gap must not be negative")
        if not math.isfinite(self.inter_job_gap):
            raise ValueError(f"inter_job_gap must be finite, got {self.inter_job_gap}")
        # an int gap would make the simulator's clock an int array
        object.__setattr__(self, "inter_job_gap", float(self.inter_job_gap))
        if not self.circuit_timings:
            raise ValueError("device needs at least one circuit timing")

    def timing(self, circuit: str) -> TimingDistribution | MixtureTiming:
        if circuit not in self.circuit_timings:
            raise ScenarioError(f"circuit {circuit!r} unknown on device {self.name!r}")
        return self.circuit_timings[circuit]


@dataclass(frozen=True)
class Scenario:
    device: DeviceProfile
    victim_circuit: str
    victim_repetitions: int
    attacker_probe_circuit: str
    probe_every: int = 1
    seed: int = 0
    #: the processors QP tells apart: the attacker's, not the service's
    reference_devices: tuple[DeviceProfile, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "reference_devices", tuple(self.reference_devices))
        _check_ints(self, ("victim_repetitions", "probe_every", "seed"), ScenarioError)
        if not 1 <= self.victim_repetitions <= MAX_REPETITIONS:
            raise ScenarioError(
                "victim_repetitions ('repetitions' in a scenario file) must be "
                f"between 1 and {MAX_REPETITIONS}, got {self.victim_repetitions}")
        if self.probe_every < 1:
            raise ScenarioError("probe_every ('every_k' in a scenario file) must be "
                                f"at least 1, got {self.probe_every}")
        if self.seed < 0:
            raise ScenarioError(f"seed must be non-negative, got {self.seed}")
        self.device.timing(self.victim_circuit)
        self.device.timing(self.attacker_probe_circuit)


JOB_COLUMNS = ("job_id", "owner", "circuit", "queued_at", "started_at", "ended_at")


@dataclass
class JobLog:
    """Every job in execution order: `victim` masks the victim's jobs (the
    rest are probes), and `clock` holds the 2n + 1 clock readings 0, then
    each job's start and end. `queued_at`, `started_at` and `ended_at` are
    strided views of that one clock, and `spans` its (n, 2) view of
    (started_at, ended_at) rows. Each owner runs its one circuit."""

    victim: np.ndarray
    clock: np.ndarray
    victim_circuit: str
    probe_circuit: str
    truncations: int = 0

    def __len__(self):
        return len(self.victim)

    @property
    def queued_at(self) -> np.ndarray:
        """0 for the first job, then the previous job's end."""
        return self.clock[0:-1:2]

    @property
    def started_at(self) -> np.ndarray:
        return self.clock[1::2]

    @property
    def ended_at(self) -> np.ndarray:
        return self.clock[2::2]

    @property
    def spans(self) -> np.ndarray:
        return self.clock[1:].reshape(-1, 2)

    def rows(self):
        """The jobs.csv rows, in `JOB_COLUMNS` order."""
        owners = np.where(self.victim, VICTIM, ATTACKER)
        circuits = np.where(self.victim, self.victim_circuit, self.probe_circuit)
        return zip(
            range(len(self)), owners.tolist(), circuits.tolist(),
            self.queued_at.tolist(), self.started_at.tolist(),
            self.ended_at.tolist(),
        )


def run_simulation(scenario: Scenario) -> JobLog:
    """Execute the scenario serially, probes bracketing every k-th victim
    batch. Identical scenarios (including seed) give bit-identical logs:
    durations are drawn in job order and the clock sums 0, 0, d0, gap, d1, ...

    Job i's duration is mean_i + sd_i * z_i over one `standard_normal(n)`
    draw z: the same bits as `rng.normal(mean_i, sd_i)` job by job, which
    computes loc + scale * z for each draw. The victim's model, then the
    probe's, gives (mean_i, sd_i) for all n jobs (`job_moments`), a
    mixture from picks on a stream spawned from the seed.
    """
    k, reps = scenario.probe_every, scenario.victim_repetitions
    n = reps + -(-reps // k) + 1
    # a probe leads each batch of k; the last probe follows a short batch
    victim = np.ones(n, dtype=bool)
    victim[::k + 1] = False
    victim[-1] = False
    seeds = np.random.SeedSequence(scenario.seed)
    rng, picks = np.random.default_rng(seeds), np.random.default_rng(seeds.spawn(1)[0])
    (v_mean, v_sd), (p_mean, p_sd) = (
        scenario.device.timing(c).job_moments(picks, n)
        for c in (scenario.victim_circuit, scenario.attacker_probe_circuit))
    durations = rng.standard_normal(n)
    durations *= np.where(victim, v_sd, p_sd)
    durations += np.where(victim, v_mean, p_mean)
    # 0, then 0 (the first start), d0, gap, d1, ..., gap, d(n-1): summed in
    # place, the leading 0.0 + 0.0 leaves every reading's bits as they were
    clock = np.full(2 * n + 1, scenario.device.inter_job_gap)
    clock[:2] = 0.0
    np.maximum(durations, DURATION_FLOOR, out=clock[2::2])
    with np.errstate(over="ignore"):
        np.cumsum(clock, out=clock)
    # every step is non-negative, so the last reading is the largest
    if not math.isfinite(clock[-1]):
        raise ScenarioError("the session's clock overflows: its durations and "
                            "gaps sum past the largest float")
    return JobLog(
        victim=victim,
        clock=clock,
        victim_circuit=scenario.victim_circuit,
        probe_circuit=scenario.attacker_probe_circuit,
        truncations=int(np.count_nonzero(durations < DURATION_FLOOR)),
    )


def ground_truth_durations(log: JobLog) -> np.ndarray:
    """Actual durations of the victim's jobs, in execution order."""
    return (log.ended_at - log.started_at)[log.victim]


# ---------------------------------------------------------------------------
# Scenario config files

class _ScenarioLoader(Composer, CParser, SafeConstructor, Resolver):
    """`yaml.safe_load`'s objects from libyaml's C scanner and parser.
    PyYAML's Python `Composer` builds the nodes, so nesting past the
    stack ends in a RecursionError; `yaml.CSafeLoader` composes in C
    with no depth check and crashes the process there."""

    def __init__(self, stream):
        CParser.__init__(self, stream)
        Composer.__init__(self)
        SafeConstructor.__init__(self)
        Resolver.__init__(self)


def _check_keys(block, allowed: tuple[str, ...], where: str) -> dict:
    """`block` itself, once it is a mapping holding only `allowed` keys."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{where} must be a mapping")
    unknown = [k for k in block if k not in allowed]
    if unknown:
        raise ScenarioError(f"unknown key(s) {unknown} in {where}")
    return block


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ScenarioError(f"missing {key!r} in {where}")
    return mapping[key]


def _value(block: dict, key: str, where: str, default=None, kind=float):
    """`kind` (float, int or str) of `block[key]`, else of `default` if
    one is given. A bool is no number, an int must be a YAML int, since
    int() would truncate a float without a word, and a str must be a
    non-empty YAML string; float() reads the strings PyYAML leaves `1e-4`
    as."""
    value = _require(block, key, where) if default is None else block.get(key, default)
    if kind is str:
        if isinstance(value, str) and value:
            return value
    elif not isinstance(value, bool) and (kind is float or type(value) is int):
        with contextlib.suppress(TypeError, ValueError):
            return kind(value)
    noun = {float: "a number", int: "an integer", str: "a non-empty string"}[kind]
    raise ScenarioError(f"{key!r} in {where} must be {noun}, got {value!r}")


def _parse_device(block: dict, where: str = "device") -> DeviceProfile:
    _check_keys(block, ("name", "inter_job_gap", "circuits"), where)
    circuits = _require(block, "circuits", where)
    if not isinstance(circuits, dict) or not circuits:
        raise ScenarioError(f"{where}.circuits must be a non-empty map")
    timings = {}
    for cname, spec in circuits.items():
        at = f"{where}.circuits.{cname}"
        _check_keys(spec, ("mean", "variance"), at)
        mean, variance = _value(spec, "mean", at), _value(spec, "variance", at)
        try:
            timings[cname] = TimingDistribution(mean, variance)
        except ValueError as exc:
            raise ScenarioError(f"bad timing for circuit {cname!r}: {exc}") from exc
    name = _value(block, "name", where, kind=str)
    gap = _value(block, "inter_job_gap", where, 0.0)
    try:
        return DeviceProfile(name, timings, gap)
    except ValueError as exc:
        raise ScenarioError(f"bad inter_job_gap in {where}: {exc}") from exc


def load_scenario(path: str | Path, seed: int | None = None) -> Scenario:
    """Load a scenario from YAML, read and checked whole; `seed` overrides
    the file's value. The file is parsed by `_ScenarioLoader` (libyaml's
    parser under PyYAML's composer), to the objects `yaml.safe_load`
    gives.

    Schema (every key shown; `reference_devices:`, a list of device blocks
    for QP, may be left out; any other key is a ScenarioError, and so is a
    `repetitions`, `every_k` or `seed` that is not a YAML integer, a
    `repetitions` past MAX_REPETITIONS, a negative `seed`, a `name`,
    `circuit` or `probe_circuit` that is not a non-empty string, or a
    timing number that is a bool or that float() cannot read)::

        device:
          name: desk_belem
          inter_job_gap: 0.0
          circuits:
            GHZ: {mean: 2.779299043, variance: 0.3}
            probe: {mean: 0.05, variance: 0.0001}
        victim: {circuit: GHZ, repetitions: 200}
        attacker: {probe_circuit: probe, every_k: 1}
        seed: 1234
        reference_devices:
          - name: qpu_east
            circuits:
              GHZ: {mean: 2.779299043, variance: 0.3}
    """
    with Path(path).open(encoding="utf-8") as fh:
        try:
            raw = yaml.load(fh, Loader=_ScenarioLoader)
        except (yaml.YAMLError, RecursionError) as exc:  # nesting past the stack
            reason = " ".join(str(exc).split())  # YAML's own spans lines
            raise ScenarioError(f"invalid YAML: {reason}") from None
    _check_keys(raw, ("device", "victim", "attacker", "seed", "reference_devices"),
                f"{path}: scenario file")
    device = _parse_device(_require(raw, "device", "scenario"))
    victim = _check_keys(_require(raw, "victim", "scenario"),
                         ("circuit", "repetitions"), "victim")
    attacker = _check_keys(_require(raw, "attacker", "scenario"),
                           ("probe_circuit", "every_k"), "attacker")
    references = raw.get("reference_devices", [])
    if not isinstance(references, list):
        raise ScenarioError("reference_devices must be a list of devices")
    return Scenario(
        device=device,
        victim_circuit=_value(victim, "circuit", "victim", kind=str),
        victim_repetitions=_value(victim, "repetitions", "victim", kind=int),
        attacker_probe_circuit=_value(attacker, "probe_circuit", "attacker", kind=str),
        probe_every=_value(attacker, "every_k", "attacker", 1, int),
        seed=seed if seed is not None else _value(raw, "seed", "scenario", 0, int),
        reference_devices=[_parse_device(b, f"reference_devices[{i}]")
                           for i, b in enumerate(references)],
    )


def load_reference_devices(path: str | Path) -> list[DeviceProfile]:
    """`load_scenario(path).reference_devices`, as a list."""
    return list(load_scenario(path).reference_devices)
