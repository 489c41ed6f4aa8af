import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from qleak.attacks import uc_classify
from qleak.baseline import HARDWARE, SIMULATOR, BaselineEntry, BaselineTable
from qleak.cloudsim import (
    DeviceProfile,
    Scenario,
    ScenarioError,
    ground_truth_durations,
    run_simulation,
)
from qleak.mitigations import (
    CIRCUIT_PADDING,
    COMPILE_RANDOMNESS,
    KIND_PARAMS,
    KINDS,
    MAX_LAYOUTS,
    SCHEDULER_BATCHING,
    TIMER_NOISE,
    Mitigation,
    MixtureTiming,
    evaluate,
)
from qleak.stats import TimingDistribution, normal_quantile
from qleak.trace import reconstruct
from oracles import timer_noise_inflation
from test_cloudsim import make_device, make_scenario

#: two-sided 99.9% normal quantile for the Monte-Carlo intervals
Z999 = normal_quantile(0.9995)


def only_v(name):
    """The model of circuit "v"; only circuit-padding looks up another."""
    if name != "v":
        raise AssertionError(f"only circuit-padding looks up a decoy, got {name!r}")
    return TimingDistribution(2.0, 0.3)


def within_mc(sample, mean=None, variance=None):
    """Whether a sample's mean and unbiased variance lie within 99.9%
    Monte-Carlo intervals of the given values: se sqrt(var / n) for the
    mean and sqrt((m4 - var^2) / n) for the variance, m4 the sample's
    fourth central moment."""
    n, var = sample.size, sample.var(ddof=1)
    m4 = np.mean((sample - sample.mean()) ** 4)
    ok = True
    if mean is not None:
        ok &= abs(sample.mean() - mean) <= Z999 * math.sqrt(var / n)
    if variance is not None:
        ok &= abs(var - variance) <= Z999 * math.sqrt((m4 - var * var) / n)
    return ok


class TestMixture:
    def test_moments(self):
        comps = (
            TimingDistribution(1.0, 0.2),
            TimingDistribution(3.0, 0.2),
        )
        m = MixtureTiming(comps)
        assert m.mean == pytest.approx(2.0)
        # within 0.2 plus between variance 1.0
        assert m.variance == pytest.approx(1.2)
        assert m.sd == pytest.approx(math.sqrt(1.2))

    def test_session_matches_moments(self):
        # the simulator draws a mixture victim's durations with the
        # mixture's own mean and variance
        m = MixtureTiming(
            (TimingDistribution(1.0, 0.1), TimingDistribution(2.0, 0.4))
        )
        device = DeviceProfile("d", {"v": m, "p": TimingDistribution(0.05, 1e-4)})
        log = run_simulation(Scenario(device, "v", 20_000, "p", seed=4))
        assert within_mc(ground_truth_durations(log), m.mean, m.variance)

    def test_needs_component(self):
        with pytest.raises(ValueError):
            MixtureTiming(())


class TestValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            Mitigation(kind="nonsense")

    def test_parameter_requirements(self):
        with pytest.raises(ValueError):
            Mitigation(kind=TIMER_NOISE)
        with pytest.raises(ValueError):
            Mitigation(kind=COMPILE_RANDOMNESS, layout_spread=0.0)
        with pytest.raises(ValueError):
            Mitigation(kind=CIRCUIT_PADDING, pad_toward="")
        with pytest.raises(ValueError, match=r"pad_fraction must lie in \[0, 1\]"):
            Mitigation(kind=CIRCUIT_PADDING, pad_toward="GHZ", pad_fraction=1.5)
        with pytest.raises(ValueError):
            Mitigation(kind=SCHEDULER_BATCHING, batch_factor=0)

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("kind,name", [
        (TIMER_NOISE, "added_variance"), (COMPILE_RANDOMNESS, "layout_spread"),
    ])
    def test_scale_must_be_positive_and_finite(self, kind, name, value):
        # an infinite one once constructed and failed later with a message
        # that named neither the parameter nor the kind
        message = f"{kind} needs a positive, finite {name}, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Mitigation(kind=kind, **{name: value})

    @pytest.mark.parametrize("kind,own,name,value", [
        (SCHEDULER_BATCHING, {}, "batch_factor", 2.5),
        (SCHEDULER_BATCHING, {}, "batch_factor", True),
        (COMPILE_RANDOMNESS, {"layout_spread": 0.5}, "layouts", 2.5),
    ], ids=["batch-factor-float", "batch-factor-bool", "layouts-float"])
    def test_counts_must_be_integers(self, kind, own, name, value):
        # a float once failed inside the simulator or np.linspace
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            Mitigation(kind=kind, **own, **{name: value})
        Mitigation(kind=kind, **own, **{name: np.int64(3)})

    @pytest.mark.parametrize("kind,own", [
        (TIMER_NOISE, {"added_variance": 0.3}),
        (COMPILE_RANDOMNESS, {"layout_spread": 0.5, "layouts": 3}),
        (CIRCUIT_PADDING, {"pad_toward": "GHZ", "pad_fraction": 0.5}),
        (SCHEDULER_BATCHING, {"batch_factor": 4}),
    ])
    def test_foreign_parameters_rejected(self, kind, own):
        assert KIND_PARAMS[kind] == tuple(own)
        Mitigation(kind=kind, **own)
        foreign = {"added_variance": 0.1, "layout_spread": 0.1, "layouts": 7,
                   "pad_toward": "GHZ", "pad_fraction": 0.5, "batch_factor": 2}
        for name, value in foreign.items():
            if name not in own:
                with pytest.raises(ValueError, match=f"{kind} does not read {name}"):
                    Mitigation(kind=kind, **own, **{name: value})

    def test_layouts_are_bounded(self):
        # one timing model per layout: a billion would run for hours
        Mitigation(kind=COMPILE_RANDOMNESS, layout_spread=0.5, layouts=MAX_LAYOUTS)
        with pytest.raises(ValueError, match=(
                f"compile-randomness needs layouts from 2 to {MAX_LAYOUTS}, "
                f"got {MAX_LAYOUTS + 1}")):
            Mitigation(kind=COMPILE_RANDOMNESS, layout_spread=0.5, layouts=MAX_LAYOUTS + 1)


class TestTransforms:
    def test_timer_noise_adds_variance(self):
        m = Mitigation(kind=TIMER_NOISE, added_variance=0.6)
        t = m.apply("v", only_v)
        assert t.mean == 2.0
        assert t.variance == pytest.approx(0.9)

    def test_compile_randomness_builds_mixture(self):
        m = Mitigation(kind=COMPILE_RANDOMNESS, layout_spread=0.5, layouts=5)
        t = m.apply("v", only_v)
        assert isinstance(t, MixtureTiming)
        assert t.mean == pytest.approx(2.0)
        assert t.variance > 0.3

    def test_padding_closes_gap(self, table):
        # on the simulator GHZ runs longer than Hidden Shift
        m = Mitigation(kind=CIRCUIT_PADDING, pad_toward="GHZ", pad_fraction=1.0)
        shift = "Hidden Shift Application Benchmark"
        ghz = table.timing("GHZ", SIMULATOR)
        column = partial(table.timing, backend=SIMULATOR)
        assert m.apply(shift, column).mean == pytest.approx(ghz.mean)
        # padding never shortens
        assert m.apply("GHZ", column).mean == ghz.mean

    def test_batching_rewrites_scenario(self):
        m = Mitigation(kind=SCHEDULER_BATCHING, batch_factor=5)
        s = m.apply_to_scenario(make_scenario(reps=20, k=2))
        assert s.probe_every == 10
        run_simulation(s)  # still a valid scenario

    def test_timer_noise_rewrites_scenario(self):
        m = Mitigation(kind=TIMER_NOISE, added_variance=0.5)
        s = m.apply_to_scenario(make_scenario())
        assert s.device.timing("victim").variance == pytest.approx(0.8)

    @pytest.mark.parametrize("m", [
        Mitigation(kind=TIMER_NOISE, added_variance=0.5),
        Mitigation(kind=COMPILE_RANDOMNESS, layout_spread=0.08, layouts=3),
        Mitigation(kind=CIRCUIT_PADDING, pad_toward="victim"),
        Mitigation(kind=SCHEDULER_BATCHING, batch_factor=2),
    ], ids=KINDS)
    def test_reference_devices_pass_through(self, m):
        # the reference models are the attacker's calibration, not the
        # hardened service
        references = (make_device(), make_device(victim_var=0.9))
        s = replace(make_scenario(), reference_devices=references)
        assert m.apply_to_scenario(s).reference_devices == references

    def test_compile_spread_names_the_short_circuit(self):
        # the probe (mean 0.05) is the one circuit below the spread's half;
        # it once failed as "latency mean must be positive and finite"
        m = Mitigation(kind=COMPILE_RANDOMNESS, layout_spread=0.5)
        with pytest.raises(ValueError, match=(
                r"^compile-randomness layout_spread 0\.5 needs every circuit mean "
                r"above layout_spread / 2 = 0\.25, but 'probe' has mean 0\.05$")):
            m.apply_to_scenario(make_scenario())

    def test_padding_decoy_must_be_on_the_device(self):
        m = Mitigation(kind=CIRCUIT_PADDING, pad_toward="GHZ")
        with pytest.raises(ScenarioError, match="circuit 'GHZ' unknown on device 'dev'"):
            m.apply_to_scenario(make_scenario())


#: one countermeasure of each kind, as run on a hardened session below
SESSION_KINDS = [
    Mitigation(kind=TIMER_NOISE, added_variance=0.1),
    Mitigation(kind=COMPILE_RANDOMNESS, layout_spread=0.8, layouts=4),
    Mitigation(kind=CIRCUIT_PADDING, pad_toward="Quantum Phase Estimation"),
    Mitigation(kind=SCHEDULER_BATCHING, batch_factor=3),
]
# The reconstruction splits every interval longer than 1.5 estimated means
# in two, which biases the trace mean down as the variance grows: at 0.3
# added variance the trace mean is 2.695, nearer Bernstein-Vazirani (2.625)
# than GHZ (2.779). Interval-level inference (ROADMAP item 2) removes it.
RECONSTRUCTION_BIAS = pytest.param(
    Mitigation(kind=TIMER_NOISE, added_variance=0.3), id="timer-noise-0.3",
    marks=pytest.mark.xfail(strict=True, reason="count-rounding bias, ROADMAP item 2"),
)


class TestHardenedSession:
    """Every kind rewrites a GHZ session on a device that also runs its
    nearest hardware neighbour, Quantum Phase Estimation, and the attack
    runs on the rewritten session."""

    @pytest.mark.parametrize("m", [
        *(pytest.param(m, id=m.kind) for m in SESSION_KINDS), RECONSTRUCTION_BIAS,
    ])
    def test_attack_on_a_hardened_session(self, table, m):
        ghz, qpe = "GHZ", "Quantum Phase Estimation"
        timings = {name: table.timing(name, HARDWARE) for name in (ghz, qpe)}
        # a probe longer than the compile spread's half, so that every
        # layout of it keeps a positive mean
        timings["probe"] = TimingDistribution(0.5, 1e-4)
        scenario = Scenario(DeviceProfile("qpu", timings), ghz, 20_000, "probe", seed=8)
        log = run_simulation(m.apply_to_scenario(scenario))
        verdict = uc_classify(reconstruct(log), table, HARDWARE)
        report = evaluate(m, table, HARDWARE, ghz, qpe)
        if m.kind == CIRCUIT_PADDING:
            # padded all the way to the decoy, GHZ runs as long as it
            assert verdict.label == qpe
        elif m.kind == SCHEDULER_BATCHING:
            # the label under batching waits on interval-level inference
            assert math.isfinite(verdict.statistic)
        else:
            assert verdict.label == ghz
            durations = ground_truth_durations(log)
            expected = timings[ghz].variance + report.variance_overhead
            assert report.variance_overhead > 0.05
            assert within_mc(durations, variance=expected)


class TestEvaluate:
    def test_timer_noise_inflation_closed_form(self):
        assert timer_noise_inflation(0.3, 0.6) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            timer_noise_inflation(0.0, 0.1)

    def test_timer_noise_report(self, table):
        m = Mitigation(kind=TIMER_NOISE, added_variance=0.3)
        r = evaluate(m, table, HARDWARE, "GHZ", "Quantum Phase Estimation")
        # doubling the variance doubles the requirement for the pair
        assert r.inflation == pytest.approx(2.0, rel=1e-3)
        assert r.mitigated_required_n > r.baseline_required_n
        assert r.overlap_after > r.overlap_before
        assert r.variance_overhead == pytest.approx(0.3)

    def test_padding_can_block_entirely(self, table):
        m = Mitigation(
            kind=CIRCUIT_PADDING,
            pad_toward="Quantum Phase Estimation",
            pad_fraction=1.0,
        )
        r = evaluate(m, table, HARDWARE, "GHZ", "Quantum Phase Estimation")
        assert math.isinf(r.mitigated_required_n)
        assert r.overlap_after == pytest.approx(1.0)
        assert r.mean_overhead > 0

    def test_batching_inflation_is_wall_clock(self, table):
        m = Mitigation(kind=SCHEDULER_BATCHING, batch_factor=8)
        r = evaluate(m, table, HARDWARE, "GHZ", "Quantum Phase Estimation")
        assert r.inflation == pytest.approx(8.0)
        assert r.mean_overhead == 0.0

    def test_victim_must_differ_from_reference(self, table):
        m = Mitigation(kind=TIMER_NOISE, added_variance=1.0)
        with pytest.raises(ValueError, match="same circuit 'GHZ'"):
            evaluate(m, table, HARDWARE, "GHZ", "GHZ")

    def test_equal_latencies_plan_infinity(self):
        # two circuits that share a latency keep the inf convention
        table = BaselineTable([BaselineEntry(name, 1.0, 2.0) for name in "xy"])
        m = Mitigation(kind=TIMER_NOISE, added_variance=1.0)
        r = evaluate(m, table, HARDWARE, "x", "y")
        assert math.isinf(r.baseline_required_n) and math.isinf(r.inflation)

    def test_compile_randomness_helps(self, table):
        m = Mitigation(kind=COMPILE_RANDOMNESS, layout_spread=2.0, layouts=8)
        r = evaluate(m, table, HARDWARE, "GHZ", "Quantum Phase Estimation")
        assert r.inflation > 1.0
