import math
import re

import numpy as np
import pytest

from qleak.baseline import HARDWARE, SIMULATOR, BaselineEntry, BaselineTable, bundled_table
from qleak.cloudsim import run_simulation
from qleak.mitigations import (
    CIRCUIT_PADDING,
    COMPILE_RANDOMNESS,
    KIND_PARAMS,
    SCHEDULER_BATCHING,
    TIMER_NOISE,
    Mitigation,
    MixtureTiming,
    evaluate,
)
from qleak.stats import TimingDistribution
from oracles import timer_noise_inflation
from test_cloudsim import make_scenario


@pytest.fixture(scope="module")
def table():
    return bundled_table()


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

    def test_sampling_matches_moments(self):
        m = MixtureTiming(
            (TimingDistribution(1.0, 0.1), TimingDistribution(2.0, 0.4))
        )
        xs = m.sample(np.random.default_rng(0), 200_000)
        assert xs.mean() == pytest.approx(m.mean, abs=0.01)
        assert xs.var(ddof=1) == pytest.approx(m.variance, rel=0.02)

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


class TestTransforms:
    def test_timer_noise_adds_variance(self):
        m = Mitigation(kind=TIMER_NOISE, added_variance=0.6)
        t = m.apply(TimingDistribution(2.0, 0.3))
        assert t.mean == 2.0
        assert t.variance == pytest.approx(0.9)

    def test_compile_randomness_builds_mixture(self):
        m = Mitigation(kind=COMPILE_RANDOMNESS, layout_spread=0.5, layouts=5)
        t = m.apply(TimingDistribution(2.0, 0.3))
        assert isinstance(t, MixtureTiming)
        assert t.mean == pytest.approx(2.0)
        assert t.variance > 0.3

    def test_padding_closes_gap(self, table):
        # on the simulator GHZ runs longer than Hidden Shift
        m = Mitigation(kind=CIRCUIT_PADDING, pad_toward="GHZ", pad_fraction=1.0)
        ghz = table.timing("GHZ", SIMULATOR)
        hs = table.timing("Hidden Shift Application Benchmark", SIMULATOR)
        assert m.apply(hs, table, SIMULATOR).mean == pytest.approx(ghz.mean)
        # padding never shortens
        assert m.apply(ghz, table, SIMULATOR).mean == ghz.mean

    def test_batching_rewrites_scenario(self):
        m = Mitigation(kind=SCHEDULER_BATCHING, batch_factor=5)
        s = m.apply_to_scenario(make_scenario(reps=20, k=2))
        assert s.probe_every == 10
        run_simulation(s)  # still a valid scenario

    @pytest.mark.parametrize(
        "m",
        [
            Mitigation(kind=COMPILE_RANDOMNESS, layout_spread=0.5, layouts=4),
            Mitigation(kind=CIRCUIT_PADDING, pad_toward="GHZ"),
        ],
        ids=[COMPILE_RANDOMNESS, CIRCUIT_PADDING],
    )
    def test_distribution_kinds_refuse_scenarios(self, m):
        with pytest.raises(ValueError, match="cannot be applied to a scenario"):
            m.apply_to_scenario(make_scenario())

    def test_timer_noise_rewrites_scenario(self):
        m = Mitigation(kind=TIMER_NOISE, added_variance=0.5)
        s = m.apply_to_scenario(make_scenario())
        assert s.device.timing("victim").variance == pytest.approx(0.8)


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
