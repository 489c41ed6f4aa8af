"""Property suites: invariants that must hold across the whole input space."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qleak.baseline import grover_catalog
from qleak.cloudsim import DeviceProfile, Scenario, run_simulation
from qleak.stats import (
    MixtureTiming,
    PowerSpec,
    TimingDistribution,
    ovl,
    pooled_t_power,
    required_sample_size,
)
from qleak.trace import AttackerView, assemble_trace, infer_execution_count
from oracles import loop_assemble, loop_simulation

means = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
variances = st.floats(min_value=1e-4, max_value=10.0, allow_nan=False)
effects = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


class TestOvlProperties:
    @settings(max_examples=60, deadline=None)
    @given(means, variances, means, variances)
    def test_symmetric_bounded(self, m1, v1, m2, v2):
        p, q = TimingDistribution(m1, v1), TimingDistribution(m2, v2)
        o = ovl(p, q)
        assert 0.0 <= o <= 1.0
        assert o == pytest.approx(ovl(q, p), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(means, variances, st.floats(min_value=0.0, max_value=5.0))
    def test_shrinks_with_separation(self, m, v, shift):
        p = TimingDistribution(m, v)
        near = TimingDistribution(m + shift, v)
        far = TimingDistribution(m + shift + 1.0, v)
        assert ovl(p, far) <= ovl(p, near) + 1e-12


class TestPowerProperties:
    @settings(max_examples=40, deadline=None)
    @given(effects)
    def test_requirement_positive(self, d):
        n = required_sample_size(d)
        assert n >= 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=0.5))
    def test_monotone_decreasing(self, d):
        assert required_sample_size(d) >= required_sample_size(2 * d) - 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.02, max_value=1.0))
    def test_power_met_at_solution(self, d):
        n = required_sample_size(d)
        if n > 2.0:
            assert pooled_t_power(n, d) == pytest.approx(0.80, abs=1e-7)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.02, max_value=0.5))
    def test_stricter_spec_needs_more(self, d):
        loose = required_sample_size(d, PowerSpec(alpha=0.05, power=0.80))
        tight = required_sample_size(d, PowerSpec(alpha=0.01, power=0.95))
        assert tight >= loose


class TestCountProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_count_consistency(self, interval, avg):
        count, per = infer_execution_count(interval, avg)
        assert count >= 1
        assert count * per == pytest.approx(interval)
        # the implied per-execution duration is within half a job of avg,
        # unless the interval was too short to hold even one
        if interval >= avg / 2:
            assert abs(per - avg) <= avg / 2 + 1e-9 or count == 1


class TestSimulationProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=1000),
    )
    def test_log_shape_and_order(self, reps, k, seed):
        device = DeviceProfile(
            "d",
            {
                "v": TimingDistribution(1.5, 0.1),
                "p": TimingDistribution(0.05, 1e-4),
            },
        )
        scenario = Scenario(device, "v", reps, "p", probe_every=k, seed=seed)
        log = run_simulation(scenario)
        assert log.victim.sum() == reps
        assert (~log.victim).sum() == math.ceil(reps / k) + 1
        assert np.all(np.diff(log.started_at) >= 0)
        # reconstruction conserves the inferred execution count
        trace = assemble_trace(AttackerView.from_log(log), avg_victim=1.5)
        assert sum(trace.inferred_counts) == len(trace)


class TestColumnarMatchesLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=1000),
        st.sampled_from([0.0, 0.2, 0.013]),
        st.sampled_from([0.3, 4.0]),
    )
    def test_bit_identical(self, reps, k, seed, gap, victim_var):
        device = DeviceProfile(
            "d",
            {
                "v": TimingDistribution(2.0, victim_var),
                "p": TimingDistribution(0.05, 1e-4),
            },
            inter_job_gap=gap,
        )
        scenario = Scenario(device, "v", reps, "p", probe_every=k, seed=seed)
        log = run_simulation(scenario)
        victim, started, ended, truncations = loop_simulation(scenario)
        assert log.victim.tolist() == victim
        assert log.started_at.tolist() == started
        assert log.ended_at.tolist() == ended
        assert log.truncations == truncations

        probes = [(s, e) for v, s, e in zip(victim, started, ended) if not v]
        intervals = [b[0] - a[1] for a, b in zip(probes, probes[1:])]
        avg = float(np.mean(intervals))
        trace = assemble_trace(AttackerView.from_log(log), avg)
        durations, counts = loop_assemble(intervals, avg)
        assert trace.durations.tolist() == durations
        assert trace.inferred_counts == counts
        assert trace.dropped_intervals == 0

    @pytest.mark.parametrize("k,gap,victim_var", [
        (1, 0.0, 0.3), (1, 0.2, 4.0), (3, 0.0, 4.0), (3, 0.2, 0.3),
    ])
    def test_spy_sized_sessions(self, k, gap, victim_var):
        # spy-workload length: at variance 4.0 about 3,200 draws hit the floor
        device = DeviceProfile(
            "d",
            {"v": TimingDistribution(2.0, victim_var),
             "p": TimingDistribution(0.05, 1e-4)},
            inter_job_gap=gap,
        )
        scenario = Scenario(device, "v", 20_000, "p", probe_every=k, seed=17)
        log = run_simulation(scenario)
        victim, started, ended, truncations = loop_simulation(scenario)
        assert log.victim.tolist() == victim
        assert log.started_at.tolist() == started
        assert log.ended_at.tolist() == ended
        assert log.truncations == truncations
        assert (truncations > 1000) is (victim_var == 4.0)

        probes = [(s, e) for v, s, e in zip(victim, started, ended) if not v]
        intervals = [b[0] - a[1] for a, b in zip(probes, probes[1:])]
        avg = float(np.mean(intervals))
        trace = assemble_trace(AttackerView.from_log(log), avg)
        assert (trace.durations.tolist(), trace.inferred_counts) == loop_assemble(
            intervals, avg)


#: a victim mixture whose first component draws below the duration floor
#: about a third of the time, and a two-component probe
MIXED_VICTIM = MixtureTiming((
    TimingDistribution(0.2, 0.25), TimingDistribution(2.0, 0.3),
    TimingDistribution(3.5, 4.0),
))
MIXED_PROBE = MixtureTiming(
    (TimingDistribution(0.05, 1e-4), TimingDistribution(0.08, 1e-4)))


def mixture_scenario(reps, k, seed, gap, mixed_probe):
    probe = MIXED_PROBE if mixed_probe else TimingDistribution(0.05, 1e-4)
    device = DeviceProfile("d", {"v": MIXED_VICTIM, "p": probe}, inter_job_gap=gap)
    return Scenario(device, "v", reps, "p", probe_every=k, seed=seed)


class TestMixtureColumnarMatchesLoop:
    """Mixture sessions: the loop oracle picks each job's component from
    its own block of picks and draws `rng.normal` on it job by job."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=1000),
        st.sampled_from([0.0, 0.2]),
        st.booleans(),
    )
    def test_bit_identical(self, reps, k, seed, gap, mixed_probe):
        scenario = mixture_scenario(reps, k, seed, gap, mixed_probe)
        log = run_simulation(scenario)
        victim, started, ended, truncations = loop_simulation(scenario)
        assert log.victim.tolist() == victim
        assert log.started_at.tolist() == started
        assert log.ended_at.tolist() == ended
        assert log.truncations == truncations

    @pytest.mark.parametrize("k,mixed_probe", [(1, False), (3, True)])
    def test_spy_sized_sessions(self, k, mixed_probe):
        scenario = mixture_scenario(20_000, k, 17, 0.2, mixed_probe)
        log = run_simulation(scenario)
        victim, started, ended, truncations = loop_simulation(scenario)
        assert log.started_at.tolist() == started
        assert log.ended_at.tolist() == ended
        assert log.truncations == truncations > 1000


class TestCatalogProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        st.floats(min_value=0.5, max_value=5.0),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.2),
    )
    def test_catalog_invariants(self, base, per_it, spread):
        cat = grover_catalog(base, per_it, spread, 0.3)
        assert len(cat) == 24
        for v in cat:
            assert v.timing.mean > 0
        by_iter = {
            it: [v.timing.mean for v in cat if v.iterations == it]
            for it in (1, 2, 3)
        }
        for it in (1, 2):
            assert max(by_iter[it]) - min(by_iter[it]) == pytest.approx(
                spread, abs=1e-12
            )
