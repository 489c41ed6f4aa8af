import math
from pathlib import Path

import numpy as np
import pytest

from qleak.attacks import (
    AMBIGUITY_EPS,
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    AttackVerdict,
    _in_se,
    co_identify,
    detect_backend,
    null_distinguishability,
    qp_fingerprint,
    uc_classify,
)
from qleak.baseline import (
    HARDWARE,
    SIMULATOR,
    BaselineEntry,
    BaselineTable,
    catalog_matrices,
    grover_catalog,
    nearest_neighbor_requirement,
)
from qleak.cloudsim import (
    DeviceProfile,
    load_reference_devices,
    load_scenario,
    run_simulation,
)
from qleak.csvout import write_records
from qleak.stats import (
    MixtureTiming,
    PowerSpec,
    TimingDistribution,
    effect_size,
    pooled_t_power,
    required_sample_size,
)
from qleak.trace import reconstruct
from oracles import runs_trace, spaced_catalog


def synthetic_trace(mean, variance, n, seed=0):
    rng = np.random.default_rng(seed)
    return runs_trace(rng.normal(mean, math.sqrt(variance), n))


class TestVerdict:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttackVerdict("UC", "", 10, 0.0, 1.0, 0.8)
        with pytest.raises(ValueError):
            AttackVerdict("UC", "x", 0, 0.0, 1.0, 0.8)

    def test_csv(self, tmp_path):
        # 2 measurements against a plan of 3: the derived flag reads 1
        v = AttackVerdict("UC", "x", 2, 0.5, 3.0, 0.8)
        p = tmp_path / "v.csv"
        write_records(p, AttackVerdict, [v])
        assert p.read_text().splitlines() == [
            "attack,label,measurements_used,statistic,planned_n,confidence,"
            "ambiguous,underpowered",
            "UC,x,2,0.5,3,0.8,0,1",
        ]

    @pytest.mark.parametrize("n,planned,expected", [
        (2, 3.0, True), (3, 3.0, False), (4, 3.0, False), (10**9, math.inf, True),
    ])
    def test_underpowered_is_derived(self, n, planned, expected):
        assert AttackVerdict("UC", "x", n, 0.0, planned, 0.8).underpowered is expected

    def test_underpowered_cannot_be_passed(self):
        with pytest.raises(TypeError):
            AttackVerdict("UC", "x", 10, 0.0, 3.0, 0.8, underpowered=False)


class TestUc:
    def test_recovers_circuit(self, table):
        e = table.entry("GHZ")
        tr = synthetic_trace(e.latency(HARDWARE), table.qc_variance, 2000, seed=1)
        v = uc_classify(tr, table, HARDWARE)
        assert v.label == "GHZ"
        assert not v.underpowered

    def test_well_separated_needs_one(self, table):
        e = table.entry("Tphi Dephase Benchmark")
        tr = synthetic_trace(e.latency(SIMULATOR), table.sim_variance, 3, seed=2)
        v = uc_classify(tr, table, SIMULATOR)
        assert v.label == "Tphi Dephase Benchmark"
        assert v.planned_n == 1.0

    def test_underpowered_flag(self, table):
        e = table.entry("GHZ")
        tr = synthetic_trace(e.latency(SIMULATOR), table.sim_variance, 50, seed=3)
        v = uc_classify(tr, table, SIMULATOR)
        assert v.underpowered
        assert v.planned_n == pytest.approx(2495.773, rel=1e-3)

    def test_backend_detection(self, table):
        e = table.entry("Quantum Volume")
        tr = synthetic_trace(e.latency(HARDWARE), table.qc_variance, 500, seed=4)
        v = detect_backend(tr, table)
        assert v.label == HARDWARE

    def test_shared_latency_plans_infinity(self):
        # two entries with one simulator latency: no n tells them apart
        tied = BaselineTable((
            BaselineEntry("a", 1.0, 5.0),
            BaselineEntry("b", 1.0, 6.0),
            BaselineEntry("c", 3.0, 7.0),
        ))
        v = uc_classify(runs_trace([1.0, 1.0, 1.0]), tied, SIMULATOR)
        assert v.planned_n == math.inf
        assert v.underpowered
        assert v.label == "a" and v.ambiguous

    @pytest.mark.parametrize("x,ambiguous", [(2.0, True), (1.9, False)])
    def test_tie_rule(self, x, ambiguous):
        abc = BaselineTable((
            BaselineEntry("a", 1.0, 2.0),
            BaselineEntry("b", 3.0, 4.0),
            BaselineEntry("c", 10.0, 11.0),
        ))
        v = uc_classify(runs_trace([x, x]), abc, SIMULATOR)
        assert v.label == "a"
        assert v.ambiguous is ambiguous

    def test_backend_tie_across_columns(self):
        # x runs on the simulator as long as y runs on hardware
        crossed = BaselineTable((
            BaselineEntry("x", 1.0, 5.0),
            BaselineEntry("y", 3.0, 1.0),
        ))
        v = detect_backend(runs_trace([1.0, 1.0]), crossed)
        assert v.label == SIMULATOR
        assert v.ambiguous
        # no separation and no spread: zero standard errors apart
        assert v.statistic == 0.0

    def test_same_backend_tie_is_not_ambiguous(self):
        # the trace sits midway between two hardware models; the nearest
        # simulator model is far off, so the backend is clear
        split = BaselineTable((
            BaselineEntry("a", 50.0, 1.0),
            BaselineEntry("b", 60.0, 3.0),
        ))
        v = detect_backend(runs_trace([2.0] * 100), split)
        assert v.label == HARDWARE
        assert not v.ambiguous

    def test_tables_sharing_names_keep_their_own_models(self):
        # each table builds its own candidate column per backend, once
        first = BaselineTable((BaselineEntry("a", 1.0, 9.0),
                               BaselineEntry("b", 2.0, 9.5),
                               BaselineEntry("c", 4.0, 10.0)))
        second = BaselineTable((BaselineEntry("a", 4.0, 9.0),
                                BaselineEntry("b", 1.5, 9.5),
                                BaselineEntry("c", 1.0, 10.0)))
        trace = runs_trace([1.0, 1.0])
        for tbl, label, rival in ((first, "a", 2.0), (second, "c", 1.5),
                                  (first, "a", 2.0)):
            v = uc_classify(trace, tbl, SIMULATOR)
            model, other = (TimingDistribution(m, tbl.sim_variance) for m in (1.0, rival))
            assert v.label == label
            assert v.planned_n == required_sample_size(effect_size(model, other))
        column = first.column(SIMULATOR)
        assert column is first.column(SIMULATOR)
        assert isinstance(column, tuple)
        assert all(isinstance(c, tuple) for c in column)


class TestTraceReading:
    def test_moments(self):
        xs = [1.0, 2.0, 4.0]
        n, mean, var = runs_trace(xs).moments
        assert n == 3
        assert mean == pytest.approx(np.mean(xs))
        assert var == pytest.approx(np.var(xs, ddof=1))
        assert runs_trace([2.5]).moments == (1, 2.5, 0.0)

    def test_overflowing_squares_rejected(self):
        # deviations of 1e154 square to 1e308 and two sum past the largest
        # float: the variance was inf, and every verdict read statistic 0
        with pytest.raises(ValueError, match="squares must sum below the largest "
                                             "float, got up to 2e\\+154"):
            runs_trace([0.0, 2e154]).moments
        assert runs_trace([0.0, 1.4e154]).moments[2] == pytest.approx(9.8e307)

    def test_empty_trace_rejected(self, table):
        empty = runs_trace([])
        for attack in (
            lambda: uc_classify(empty, table, SIMULATOR),
            lambda: detect_backend(empty, table),
            lambda: co_identify(empty, grover_catalog()),
        ):
            with pytest.raises(ValueError, match="empty trace"):
                attack()

    @pytest.mark.parametrize("gap,n,var,expected", [
        (0.6, 4, 0.09, 4.0),
        (-0.6, 4, 0.09, -4.0),
        (0.5, 1, 0.0, math.inf),
        (-0.5, 3, 0.0, math.inf),
        (0.0, 3, 0.0, 0.0),
        (0.0, 1, 0.0, 0.0),
    ])
    def test_in_se(self, gap, n, var, expected):
        assert _in_se(gap, n, var) == pytest.approx(expected)


class TestSharedNearestRule:
    """The table's neighbour pick and UC's plan are one rule."""

    @pytest.mark.parametrize("backend", [SIMULATOR, HARDWARE])
    def test_uc_plan_is_the_table_requirement(self, table, backend):
        for e in table.entries:
            exact = runs_trace([e.latency(backend)] * 3)
            v = uc_classify(exact, table, backend)
            assert v.label == e.name
            neighbor, n = nearest_neighbor_requirement(table, e.name, backend)
            assert float.hex(v.planned_n) == float.hex(n)
            d = effect_size(
                table.timing(e.name, backend), table.timing(neighbor, backend)
            )
            assert float.hex(v.confidence) == float.hex(pooled_t_power(3, d))

    def test_equidistant_candidates_pick_first_in_table_order(self):
        # y sits midway between x and z; x comes first although its mean is larger
        xyz = BaselineTable((
            BaselineEntry("x", 3.0, 3.0),
            BaselineEntry("y", 2.0, 2.0),
            BaselineEntry("z", 1.0, 1.0),
        ))
        assert nearest_neighbor_requirement(xyz, "y", SIMULATOR)[0] == "x"
        v = uc_classify(runs_trace([1.5, 1.5]), xyz, SIMULATOR)
        assert v.label == "y" and v.ambiguous


class TestCo:
    def test_iteration_stage(self):
        cat = grover_catalog()
        target = next(v for v in cat if v.iterations == 2 and v.key == "011")
        rng = np.random.default_rng(5)
        xs = rng.normal(target.timing.mean, target.timing.sd, 4000)
        # iteration 2's mixture sits midway between 1's and 3's, so its
        # rival is the first of them, iteration 1
        mixtures = [
            MixtureTiming(tuple(v.timing for v in cat if v.iterations == it))
            for it in (1, 2)
        ]
        planned = required_sample_size(effect_size(mixtures[1], mixtures[0]), PowerSpec())
        assert planned == pytest.approx(2226.545, abs=1e-3)
        for n, underpowered in ((700, True), (4000, False)):
            verdict, iteration = co_identify(runs_trace(xs[:n]), cat)
            assert verdict.label == "iterations=2 key=under-powered"
            assert verdict.underpowered  # the key needs far more data
            assert iteration.attack == "CO" and iteration.label == "2"
            assert iteration.measurements_used == n
            assert float.hex(iteration.planned_n) == float.hex(planned)
            assert iteration.underpowered is underpowered

    def test_key_stage_with_enough_data(self):
        # widen the per-key spread so the key stage is affordable to test
        cat = spaced_catalog()
        target = next(v for v in cat if v.iterations == 1 and v.key == "110")
        rng = np.random.default_rng(6)
        tr = runs_trace(
            rng.normal(target.timing.mean, target.timing.sd, 3000)
        )
        verdict, _ = co_identify(tr, cat)
        assert verdict.label == "iterations=1 key=110"
        assert not verdict.underpowered

    def test_catalog_size_checked(self):
        with pytest.raises(ValueError):
            co_identify(runs_trace([1.0, 2.0]), grover_catalog()[:5])

    def test_catalog_indices_checked(self):
        cat = grover_catalog()
        # variant 24 missing, variant 1 twice
        with pytest.raises(ValueError):
            co_identify(runs_trace([1.9, 1.9]), cat[:23] + [cat[0]])

    def test_catalog_order_irrelevant(self):
        cat = spaced_catalog()
        shuffled = [cat[i] for i in np.random.default_rng(9).permutation(24)]
        tr = synthetic_trace(cat[13].timing.mean, cat[13].timing.variance, 900, seed=9)
        assert co_identify(tr, shuffled) == co_identify(tr, cat)
        assert np.array_equal(
            catalog_matrices(shuffled)[1], catalog_matrices(cat)[1], equal_nan=True
        )

    def test_zero_key_spread_plans_infinity(self):
        # all eight keys of an iteration share one mean
        cat = spaced_catalog(0.046, 0.0)
        mu = cat[0].timing.mean
        verdict, _ = co_identify(runs_trace([mu, mu, mu]), cat)
        assert verdict.planned_n == math.inf
        assert verdict.underpowered
        assert verdict.label == "iterations=1 key=under-powered"
        assert verdict.ambiguous

    @pytest.mark.parametrize("x,ambiguous", [(4.5, True), (4.46, False)])
    def test_key_tie_rule(self, x, ambiguous):
        # keys 000 and 001 of one iteration sit at 4.45 and 4.55
        cat = spaced_catalog()
        verdict, _ = co_identify(runs_trace([x, x]), cat)
        assert verdict.ambiguous is ambiguous

    def test_iteration_stage_is_the_centre_rule(self):
        # the rule the iteration stage replaced, written out by hand: the
        # first nearest of the three centres (each the mean of its eight
        # variant means), tied when the two nearest distances differ by
        # less than AMBIGUITY_EPS; a key tie also makes a verdict ambiguous
        cat = grover_catalog()
        groups = [[v.timing.mean for v in cat if v.iterations == it] for it in (1, 2, 3)]
        centres = [sum(g) / 8 for g in groups]

        def first_nearest(mu, means):
            dist = [abs(m - mu) for m in means]
            ranked = sorted(dist)
            return dist.index(ranked[0]), ranked[1] - ranked[0] < AMBIGUITY_EPS

        bounds = [(a + b) / 2 for a, b in zip(centres, centres[1:])]
        grid = [*np.linspace(centres[0] - 0.05, centres[2] + 0.05, 41)]
        grid += [b + e for b in bounds for e in (-1e-11, -1e-13, 0.0, 1e-13, 1e-11)]
        ties = []
        for x in grid:
            tr = runs_trace([x] * 3)
            mu = float(tr.durations.mean())
            it, iter_tie = first_nearest(mu, centres)
            key_tie = first_nearest(mu, groups[it])[1]
            verdict, _ = co_identify(tr, cat)
            assert verdict.label.startswith(f"iterations={it + 1} key=")
            assert verdict.ambiguous is (iter_tie or key_tie)
            ties.append(iter_tie)
        assert sum(ties) == 6  # the three middle offsets at each boundary


class TestNullRule:
    def test_identical_distributions_indistinguishable(self):
        rng = np.random.default_rng(7)
        a = runs_trace(rng.normal(2.0, 0.5, 400))
        b = runs_trace(rng.normal(2.0, 0.5, 400))
        verdict, (ns, dom, band) = null_distinguishability(a, b)
        assert verdict == INDISTINGUISHABLE
        assert len(ns) == len(dom) == len(band) == 399

    def test_separated_distributions_distinguishable(self):
        rng = np.random.default_rng(8)
        a = runs_trace(rng.normal(2.0, 0.3, 400))
        b = runs_trace(rng.normal(2.5, 0.3, 400))
        verdict, _ = null_distinguishability(a, b)
        assert verdict == DISTINGUISHABLE

    def test_needs_two(self):
        with pytest.raises(ValueError):
            null_distinguishability(
                runs_trace([1.0]), runs_trace([1.0])
            )


def make_devices(mu_a=1.853176702, mu_b=3.075851148, var=0.3):
    return [
        DeviceProfile("dev_a", {"grover": TimingDistribution(mu_a, var)}),
        DeviceProfile("dev_b", {"grover": TimingDistribution(mu_b, var)}),
    ]


class TestQp:
    def test_identifies_device_quickly(self):
        devices = make_devices()
        rng = np.random.default_rng(9)
        tr = runs_trace(
            rng.normal(1.853176702, math.sqrt(0.3), 100)
        )
        v = qp_fingerprint(tr, devices, "grover")
        assert v.label == "dev_a"
        assert v.measurements_used <= 100

    def test_plan_follows_spec(self):
        rng = np.random.default_rng(9)
        tr = runs_trace(rng.normal(1.853176702, math.sqrt(0.3), 100))
        default = qp_fingerprint(tr, make_devices(), "grover")
        stricter = qp_fingerprint(
            tr, make_devices(), "grover", spec=PowerSpec(power=0.9)
        )
        assert stricter.planned_n > default.planned_n
        assert stricter.label == default.label

    def test_needs_a_device(self):
        with pytest.raises(ValueError, match="two device names"):
            qp_fingerprint(runs_trace([1.0, 2.0]), [], "grover")

    def test_needs_two_devices(self):
        with pytest.raises(ValueError):
            qp_fingerprint(
                runs_trace([1.0, 2.0]), make_devices()[:1], "grover"
            )

    def test_needs_two_device_names(self):
        a, b = make_devices()
        twin = DeviceProfile(a.name, b.circuit_timings)
        with pytest.raises(ValueError, match="no rival"):
            qp_fingerprint(runs_trace([1.0, 2.0]), [a, twin], "grover")

    def test_demo_sessions_are_right_and_fully_powered(self):
        # the demo scenario's 700 runs are far beyond the 8-run plan, so
        # no correct verdict may read under-powered
        path = Path(__file__).resolve().parents[1] / "demos/scenarios/ghz_hardware.yaml"
        devices = load_reference_devices(path)
        verdicts = []
        for seed in range(20):
            scenario = load_scenario(path, seed=seed)
            tr = reconstruct(run_simulation(scenario))
            v = qp_fingerprint(tr, devices, scenario.victim_circuit)
            verdicts.append((v.label, v.underpowered))
        assert verdicts == [("qpu_east", False)] * 20


class TestOneVerdictRule:
    """UC, backend detection, CO and QP state their plan one way:
    `planned_n` is the requirement of the winner and its rival,
    `confidence` the pooled-test power at max(n, 2) against that pair, and
    `underpowered` is n < planned_n."""

    @staticmethod
    def check(v, d, underpowered):
        spec = PowerSpec()
        assert v.underpowered is (v.measurements_used < v.planned_n) is underpowered
        assert float.hex(v.planned_n) == float.hex(required_sample_size(d, spec))
        assert float.hex(v.confidence) == float.hex(
            pooled_t_power(max(v.measurements_used, 2), d, spec.alpha)
        )

    @pytest.mark.parametrize("n", [1, 50, 3000])
    def test_uc_plans_against_the_nearest_entry(self, table, n):
        # GHZ's nearest hardware neighbour needs about 622 measurements
        mu = table.entry("GHZ").latency(HARDWARE)
        v = uc_classify(runs_trace([mu] * n), table, HARDWARE)
        assert v.label == "GHZ"
        neighbor, _ = nearest_neighbor_requirement(table, "GHZ", HARDWARE)
        d = effect_size(table.timing("GHZ", HARDWARE), table.timing(neighbor, HARDWARE))
        self.check(v, d, n < 622)

    @pytest.mark.parametrize("iterations", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 5000])
    def test_co_plans_against_the_nearest_key(self, iterations, n):
        # key 000 has one nearest same-iteration variant, key 001, whose
        # requirement here is about 480
        cat = spaced_catalog()
        v000, v001 = (
            next(v for v in cat if v.iterations == iterations and v.key == key)
            for key in ("000", "001")
        )
        mu = v000.timing.mean
        verdict, _ = co_identify(runs_trace([mu] * n), cat)
        self.check(verdict, effect_size(v000.timing, v001.timing), n < 480)
        key = "under-powered" if verdict.underpowered else "000"
        assert verdict.label == f"iterations={iterations} key={key}"

    @pytest.mark.parametrize("n,underpowered", [(3, True), (8, False)])
    def test_qp_plans_against_the_closest_models(self, n, underpowered):
        # dev_c (1.0) lies closer to dev_a (1.85) than dev_b (3.08) does;
        # that pair needs about 7.5 measurements
        devices = make_devices() + [
            DeviceProfile("dev_c", {"grover": TimingDistribution(1.0, 0.3)})
        ]
        tr = runs_trace([1.853176702] * n)
        v = qp_fingerprint(tr, devices, "grover")
        assert v.label == "dev_a"
        d = effect_size(devices[0].timing("grover"), devices[2].timing("grover"))
        self.check(v, d, underpowered)

    @pytest.mark.parametrize("n", [3, 20])
    def test_qp_plans_against_the_winners_rival(self, n):
        # dev_a and dev_b are the closest pair, but the trace sits on
        # dev_c, whose rival dev_b needs about 7 measurements
        devices = [
            DeviceProfile(name, {"grover": TimingDistribution(mu, 0.3)})
            for name, mu in (("dev_a", 1.0), ("dev_b", 1.1), ("dev_c", 2.0))
        ]
        v = qp_fingerprint(runs_trace([2.0] * n), devices, "grover")
        assert v.label == "dev_c"
        d = effect_size(devices[2].timing("grover"), devices[1].timing("grover"))
        self.check(v, d, n < 7)

    @pytest.mark.parametrize("n", [1, 3, 50])
    def test_backend_plans_against_the_other_column(self, table, n):
        # GHZ's nearest simulator model needs about 3.08 measurements
        mu = table.entry("GHZ").latency(HARDWARE)
        v = detect_backend(runs_trace([mu] * n), table)
        assert v.label == HARDWARE
        rival = min(
            (table.timing(name, SIMULATOR) for name in table.names),
            key=lambda m: abs(m.mean - mu),
        )
        self.check(v, effect_size(table.timing("GHZ", HARDWARE), rival), n < 3.08)

    def test_co_rival_is_the_largest_requirement_in_the_row(self):
        # reference: the same-iteration variant whose requirement row
        # entry is largest (the NaN diagonal drops the variant itself)
        cat = grover_catalog()
        req_m = catalog_matrices(cat)[1]
        for v in cat:
            mu = v.timing.mean
            verdict, _ = co_identify(runs_trace([mu, mu]), cat)
            assert verdict.label.startswith(f"iterations={v.iterations} ")
            start = 8 * (v.iterations - 1)
            row = req_m[v.index - 1, start : start + 8]
            rival = cat[start + int(np.nanargmax(row))]
            d = effect_size(v.timing, rival.timing)
            self.check(verdict, d, True)
