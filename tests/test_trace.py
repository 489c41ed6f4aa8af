import dataclasses
import math

import numpy as np
import pytest

from qleak.cloudsim import ground_truth_durations, run_simulation
from qleak.trace import (
    AttackerView,
    Trace,
    assemble_trace,
    estimate_victim_mean,
    infer_execution_count,
    reconstruct,
)
from qleak.csvout import write_csv
from test_cloudsim import make_scenario


class TestView:
    def test_from_log(self):
        log = run_simulation(make_scenario(reps=10, k=1))
        view = AttackerView.from_log(log)
        assert len(view.probe_records) == 11

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            AttackerView(((0.0, 2.0), (1.0, 3.0)))

    def test_rejects_empty_probe(self):
        with pytest.raises(ValueError):
            AttackerView(((0.0, 0.0),))

    def test_rejects_rows_that_are_not_pairs(self):
        with pytest.raises(ValueError):
            AttackerView(((0.0, 1.0, 2.0), (3.0, 4.0, 5.0)))

    @pytest.mark.parametrize("probes", [
        ((0.0, 1.0), (math.nan, 3.0), (5.0, 6.0)),
        ((0.0, 1.0), (2.0, 3.0), (5.0, math.inf)),
    ], ids=["nan-start", "infinite-end"])
    def test_rejects_non_finite_times(self, probes):
        # a NaN start once surfaced as "avg_victim must be positive"
        with pytest.raises(ValueError, match="probe times must be finite"):
            AttackerView(probes)


class TestIntervals:
    def test_extraction(self):
        view = AttackerView(((0.0, 1.0), (3.0, 4.0), (9.0, 10.0)))
        assert view.intervals == pytest.approx([2.0, 5.0])

    def test_needs_two_probes(self):
        with pytest.raises(ValueError):
            AttackerView(((0.0, 1.0),)).intervals


class TestCountInference:
    def test_single_execution(self):
        count, per = infer_execution_count(3.0, 3.0)
        assert count == 1 and per == pytest.approx(3.0)

    def test_three_executions(self):
        # 9.1 seconds of occupancy at ~3 s per run implies three runs
        count, per = infer_execution_count(9.1, 3.0)
        assert count == 3
        assert per == pytest.approx(9.1 / 3)

    def test_halfway_rounds_down(self):
        count, _ = infer_execution_count(4.5, 3.0)
        assert count == 1

    def test_zero_interval(self):
        assert infer_execution_count(0.0, 3.0) == (0, 0.0)

    def test_small_positive_floored_to_one(self):
        count, _ = infer_execution_count(0.2, 3.0)
        assert count == 1

    def test_elementwise(self):
        counts, per = infer_execution_count(np.array([0.0, 3.0, 9.1]), 3.0)
        assert counts.tolist() == [0, 1, 3]
        assert per.tolist() == [0.0, 3.0, 9.1 / 3]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            infer_execution_count(1.0, 0.0)
        with pytest.raises(ValueError):
            infer_execution_count(-1.0, 3.0)


class TestReconstruct:
    """`reconstruct` is the view, mean-estimate and assembly chain, bit for
    bit, on the batching and gap grid; whatever those steps get wrong on
    it (miscounted batches, gaps read as victim time) it gets wrong alike."""

    @pytest.mark.parametrize("gap", [0.0, 0.2])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_the_chain(self, k, gap):
        for seed in (0, 1):
            log = run_simulation(make_scenario(reps=47, k=k, seed=seed, gap=gap))
            view = AttackerView.from_log(log)
            want = assemble_trace(view, estimate_victim_mean(view))
            got = reconstruct(log)
            assert [x.hex() for x in got.durations] == [
                x.hex() for x in want.durations
            ]
            assert list(got.inferred_counts) == list(want.inferred_counts)
            assert got.dropped_intervals == want.dropped_intervals


class TestAssembly:
    def test_k1_recovers_exact_durations(self):
        log = run_simulation(make_scenario(reps=30, k=1, seed=5))
        view = AttackerView.from_log(log)
        truth = ground_truth_durations(log)
        trace = assemble_trace(view, avg_victim=2.0)
        assert len(trace) == 30
        assert trace.durations == pytest.approx(truth)

    def test_k_averaging(self):
        log = run_simulation(make_scenario(reps=40, k=4, seed=6, victim_var=0.01))
        view = AttackerView.from_log(log)
        trace = assemble_trace(view, avg_victim=2.0)
        assert len(trace) == 40
        assert sum(trace.inferred_counts) == 40
        # averaged executions shrink spread relative to ground truth
        truth = ground_truth_durations(log)
        assert trace.durations.var(ddof=1) < truth.var(ddof=1)
        assert trace.durations.mean() == pytest.approx(truth.mean(), rel=0.05)

    def test_zero_interval_keeps_count_zero(self):
        # intervals 0 and 2 at about 2 s a run: counts 0 and 1
        view = AttackerView(((0, 1), (1, 2), (4, 5)))
        trace = assemble_trace(view, avg_victim=2.0)
        assert list(trace.durations) == [2.0]
        assert list(trace.inferred_counts) == [0, 1]
        assert trace.dropped_intervals == 0

    def test_nan_mean_rejected(self):
        view = AttackerView(((0.0, 1.0), (3.0, 4.0)))
        with pytest.raises(ValueError):
            assemble_trace(view, float("nan"))

    def test_estimate_victim_mean(self):
        log = run_simulation(make_scenario(reps=50, k=1, seed=7))
        view = AttackerView.from_log(log)
        assert estimate_victim_mean(view) == pytest.approx(2.0, abs=0.3)

    def test_trace_bookkeeping(self):
        with pytest.raises(ValueError):
            Trace(np.ones(3), [1, 1])

    @pytest.mark.parametrize("counts", [[2.2], [2.0], [True, True]],
                             ids=["fraction", "integral-float", "bool"])
    def test_counts_must_be_integers(self, counts):
        # a cast to int once read a count of 2.2 as 2
        with pytest.raises(ValueError, match="counts must be integers"):
            Trace([1.0, 1.0], counts)
        assert len(Trace.from_durations([])) == 0

    def test_inferred_counts_are_python_ints(self):
        # perfbench's tracer writes sums of these to JSON, which takes no
        # numpy integer
        log = run_simulation(make_scenario(reps=40, k=4, seed=6))
        for trace in (reconstruct(log), Trace.from_durations([1.0, 2.0])):
            assert trace.inferred_counts
            assert all(type(c) is int for c in trace.inferred_counts)

    @pytest.mark.parametrize("field", ["durations", "counts", "dropped_intervals"])
    def test_trace_is_frozen(self, field):
        trace = Trace.from_durations([1.0, 2.0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(trace, field, getattr(trace, field))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_trace_rejects_non_finite_durations(self, bad):
        # a NaN duration once gave UC a label with statistic NaN and the
        # null rule an "indistinguishable"
        with pytest.raises(ValueError, match="durations must be finite"):
            Trace.from_durations([1.0, bad, 2.0])

    def test_csv(self, tmp_path):
        t = Trace.from_durations([1.0, 2.0 / 3.0])
        p = tmp_path / "t.csv"
        write_csv(p, ["duration_s"], ([d] for d in t.durations), digits=12)
        assert p.read_bytes() == b"duration_s\r\n1\r\n0.666666666667\r\n"
