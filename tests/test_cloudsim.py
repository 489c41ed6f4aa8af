import numpy as np
import pytest

from qleak.attacks import uc_classify
from qleak.baseline import HARDWARE, bundled_table
from qleak.cloudsim import (
    DURATION_FLOOR,
    JOB_COLUMNS,
    MAX_REPETITIONS,
    DeviceProfile,
    Scenario,
    ScenarioError,
    ground_truth_durations,
    load_reference_devices,
    load_scenario,
    run_simulation,
)
from qleak.csvout import write_csv
from qleak.stats import TimingDistribution
from qleak.trace import reconstruct


def make_device(gap=0.0, victim_var=0.3):
    return DeviceProfile(
        name="dev",
        circuit_timings={
            "victim": TimingDistribution(2.0, victim_var),
            "probe": TimingDistribution(0.05, 1e-4),
        },
        inter_job_gap=gap,
    )


def make_scenario(reps=20, k=1, seed=0, gap=0.0, victim_var=0.3):
    return Scenario(
        device=make_device(gap, victim_var),
        victim_circuit="victim",
        victim_repetitions=reps,
        attacker_probe_circuit="probe",
        probe_every=k,
        seed=seed,
    )


# float.hex of the clock readings of two seeded logs, frozen from the
# simulator that built its log one job record at a time. A change to the
# order of the duration draws, or to the order in which the clock is
# summed, moves these bits.
GAPPED_STARTED = (
    "0x0.0p+0", "0x1.ef9391dc64637p-3", "0x1.b7730ebeb2214p+0",
    "0x1.e3e997416a24ap+1", "0x1.8d7e9f8b2ac5bp+2", "0x1.9e38c0c9ed309p+2",
    "0x1.176f05de37e2ep+3", "0x1.5425b9cd60fb4p+3", "0x1.8ccadc65222ebp+3",
    "0x1.950832bb61a55p+3", "0x1.f815c6dd5ca11p+3",
)
GAPPED_ENDED = (
    "0x1.57e7e10b2b275p-5", "0x1.843fdb8b7eee1p+0", "0x1.ca4ffda7d08b0p+1",
    "0x1.80b1d2be5df8ep+2", "0x1.916bf3fd2063cp+2", "0x1.11089f77d17c8p+3",
    "0x1.4dbf5366fa94ep+3", "0x1.866475febbc85p+3", "0x1.8ea1cc54fb3efp+3",
    "0x1.f1af6076f63abp+3", "0x1.f9c5b8d72d260p+3",
)
TRUNCATING_ENDED = (
    "0x1.206563599ef12p-4", "0x1.20666fc918fc8p-4", "0x1.fe5352219b57ep-4",
    "0x1.fa6504fc45958p-1", "0x1.08d6a957dfcacp+0", "0x1.4d39f47f5b2e0p+1",
    "0x1.510a722df0dc9p+1", "0x1.0ad5434a89abap+2", "0x1.0d7ab4d312333p+2",
    "0x1.9b696093b05e8p+3", "0x1.9d157943f0450p+3", "0x1.c683f8839fa6dp+3",
    "0x1.c8068716e57f0p+3", "0x1.dd4541a0b57b2p+3", "0x1.de886b1debf36p+3",
    "0x1.02c2c481e7027p+4", "0x1.03a34edf00f1dp+4", "0x1.1c0113b2ae87ap+4",
    "0x1.1cf51b536c65bp+4", "0x1.369053e42c025p+4", "0x1.375e1f123efcfp+4",
    "0x1.88d57c5c6cdf8p+4", "0x1.89b89d01b885ep+4", "0x1.998dc78da9c02p+4",
    "0x1.9a531725d3f00p+4", "0x1.cb9f128245a1ep+4", "0x1.ccbb222d75d89p+4",
    "0x1.e41a675e6d320p+4", "0x1.e4dd3a45602fep+4", "0x1.1278171f4d228p+5",
    "0x1.12cc55eb4e53ep+5", "0x1.1e217315afc18p+5", "0x1.1e99ec87d65eap+5",
    "0x1.37e309a112bccp+5", "0x1.384b4fd71cf2cp+5", "0x1.53040f2f2b46bp+5",
    "0x1.533089de606c1p+5", "0x1.7387cfafa5efep+5", "0x1.73da8ec8a79adp+5",
    "0x1.73da8f4edf57dp+5", "0x1.74469f147d71ap+5",
)

# float.hex of what `reconstruct` and `uc_classify` (hardware column) make
# of a batched and a gapped seeded session, frozen from the reconstruction
# that listed its counts in Python and took the trace's moments per verdict:
# (durations, inferred counts, UC statistic, UC confidence)
BATCHED_TRACE = (
    ("0x1.cb4d4b40af196p+2", "0x1.6f2c375407b35p+2", "0x1.c7f5676a07632p+2",
     "0x1.23cb2ceb95aa8p+1"),
    [1, 1, 1, 1], "0x1.6d06041c9623ep-1", "0x1.267f1302c597ap-1",
)
GAPPED_TRACE = (
    ("0x1.000d68d5cf041p+0", "0x1.0b6500084e0fep+1", "0x1.2415b60b30637p+1",
     "0x1.22f087c798b6ep+1", "0x1.0e15d1f2c0a3cp+1", "0x1.0e15d1f2c0a3cp+1",
     "0x1.1a7a433bf2278p+1", "0x1.045d41882acb8p+1", "0x1.17cd315f919e8p+1",
     "0x1.2279b1af09980p+1", "0x1.25313260cf080p+1", "0x1.9f933dca8cff8p+1",
     "0x1.0fc7782e7a3c8p+1"),
    [1, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1], "-0x1.4e56dc286bb10p-3",
    "0x1.cb2b77e50e4b3p-5",
)


class TestSimulation:
    def test_deterministic(self):
        a = run_simulation(make_scenario(seed=42))
        b = run_simulation(make_scenario(seed=42))
        assert np.array_equal(a.ended_at, b.ended_at)

    def test_seed_changes_outcome(self):
        a = run_simulation(make_scenario(seed=1))
        b = run_simulation(make_scenario(seed=2))
        assert not np.array_equal(a.ended_at, b.ended_at)

    def test_job_counts(self):
        log = run_simulation(make_scenario(reps=20, k=1))
        assert log.victim.sum() == 20
        # probes bracket every victim batch: one leading plus one per batch
        assert (~log.victim).sum() == 21

    def test_batched_probe_count(self):
        log = run_simulation(make_scenario(reps=20, k=4))
        assert (~log.victim).sum() == 6

    def test_ragged_final_batch(self):
        log = run_simulation(make_scenario(reps=10, k=4))
        assert (~log.victim).sum() == 4
        assert not log.victim[-1] and log.victim[-3:-1].all()

    def test_serial_and_gapped(self):
        log = run_simulation(make_scenario(gap=0.5))
        assert log.started_at[1:] == pytest.approx(log.ended_at[:-1] + 0.5)
        assert np.array_equal(log.queued_at[1:], log.ended_at[:-1])

    def test_duration_floor(self):
        # a mean near zero draws negative durations that get clamped
        scenario = make_scenario(victim_var=4.0, seed=3)
        log = run_simulation(scenario)
        assert log.truncations > 0
        assert min(log.ended_at - log.started_at) == pytest.approx(DURATION_FLOOR)

    def test_seeded_logs_are_frozen(self):
        gapped = run_simulation(make_scenario(reps=7, k=3, gap=0.2, seed=5))
        assert [x.hex() for x in gapped.started_at.tolist()] == list(GAPPED_STARTED)
        assert [x.hex() for x in gapped.ended_at.tolist()] == list(GAPPED_ENDED)
        assert gapped.truncations == 0
        truncating = run_simulation(make_scenario(victim_var=4.0, seed=3))
        ended = [x.hex() for x in truncating.ended_at.tolist()]
        assert ended == list(TRUNCATING_ENDED)
        # no gap: every job starts the instant the previous one ends
        started = [x.hex() for x in truncating.started_at.tolist()]
        assert started == ["0x0.0p+0", *TRUNCATING_ENDED[:-1]]
        assert truncating.truncations == 2

    @pytest.mark.parametrize("scenario,frozen", [
        (make_scenario(reps=10, k=3, seed=4), BATCHED_TRACE),
        (make_scenario(reps=12, k=1, gap=0.2, seed=3), GAPPED_TRACE),
    ], ids=["batched", "gapped"])
    def test_seeded_reconstructions_are_frozen(self, scenario, frozen):
        durations, counts, statistic, confidence = frozen
        trace = reconstruct(run_simulation(scenario))
        assert tuple(x.hex() for x in trace.durations.tolist()) == durations
        assert trace.inferred_counts == counts
        verdict = uc_classify(trace, bundled_table(), HARDWARE)
        assert verdict.statistic.hex() == statistic
        assert verdict.confidence.hex() == confidence

    @pytest.mark.parametrize("gap", [0, 1])
    def test_integer_gap_keeps_the_clock_float(self, gap):
        as_int = run_simulation(make_scenario(reps=7, k=3, gap=gap, seed=5))
        as_float = run_simulation(make_scenario(reps=7, k=3, gap=float(gap), seed=5))
        for column in ("queued_at", "started_at", "ended_at"):
            a, b = getattr(as_int, column), getattr(as_float, column)
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()

    def test_ground_truth(self):
        log = run_simulation(make_scenario(reps=15))
        xs = ground_truth_durations(log)
        assert xs.shape == (15,)
        assert np.all(xs > 0)

    def test_log_csv(self, tmp_path):
        log = run_simulation(make_scenario(reps=5))
        path = tmp_path / "log.csv"
        write_csv(path, JOB_COLUMNS, log.rows(), digits=12)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(log) + 1
        assert lines[0] == "job_id,owner,circuit,queued_at,started_at,ended_at"
        assert lines[1].split(",")[:3] == ["0", "attacker", "probe"]
        assert lines[2].split(",")[:3] == ["1", "victim", "victim"]
        assert lines[-1].split(",")[:3] == [str(len(log) - 1), "attacker", "probe"]
        last_end = float(lines[-1].split(",")[-1])
        assert last_end == pytest.approx(log.ended_at[-1], rel=1e-11)


class TestValidation:
    def test_unknown_circuit(self):
        with pytest.raises(ScenarioError):
            Scenario(
                device=make_device(),
                victim_circuit="missing",
                victim_repetitions=5,
                attacker_probe_circuit="probe",
            )

    def test_bad_repetitions(self):
        with pytest.raises(ScenarioError):
            make_scenario(reps=0)

    def test_repetitions_are_bounded(self):
        # checked when the scenario is built, so nothing here allocates
        make_scenario(reps=MAX_REPETITIONS)
        for reps in (MAX_REPETITIONS + 1, 10**9):
            message = (r"^victim_repetitions \('repetitions' in a scenario file\) "
                       rf"must be between 1 and 10000000, got {reps}$")
            with pytest.raises(ScenarioError, match=message):
                make_scenario(reps=reps)

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            make_device(gap=-1.0)

    @pytest.mark.parametrize("field,value", [
        ("victim_repetitions", 10.0),
        ("probe_every", 2.5),
        ("probe_every", True),
        ("seed", 1.5),
    ], ids=["repetitions-float", "probe-every-float", "probe-every-bool", "seed-float"])
    def test_counts_and_seed_must_be_integers(self, field, value):
        # a float once failed inside numpy's indexing, and True ran as 1
        kwargs = {"victim_repetitions": 5, field: value}
        with pytest.raises(ScenarioError, match=f"{field} must be an integer"):
            Scenario(make_device(), "victim", attacker_probe_circuit="probe", **kwargs)

    def test_numpy_integers_are_counts(self):
        s = make_scenario(reps=np.int64(5), k=np.int32(2), seed=np.uint16(3))
        assert len(run_simulation(s)) == 9

    def test_negative_seed(self):
        # numpy rejected it at simulation time, naming no key
        with pytest.raises(ScenarioError, match=r"^seed must be non-negative, got -3$"):
            make_scenario(seed=-3)

    def test_device_name_must_be_non_empty(self):
        with pytest.raises(ValueError, match="device name must be non-empty"):
            DeviceProfile("", {"probe": TimingDistribution(0.05, 1e-4)})

    @pytest.mark.parametrize("gap", [float("nan"), float("inf")])
    def test_non_finite_gap(self, gap):
        # a NaN gap printed empty clock cells, an infinite one printed inf
        with pytest.raises(ValueError, match="inter_job_gap must be finite"):
            make_device(gap=gap)


SCENARIO_YAML = """
device:
  name: dev
  inter_job_gap: 0.0
  circuits:
    victim: {mean: 2.0, variance: 0.3}
    probe: {mean: 0.05, variance: 0.0001}
victim: {circuit: victim, repetitions: 12}
attacker: {probe_circuit: probe, every_k: 3}
seed: 9
reference_devices:
  - name: a
    circuits: {victim: {mean: 2.0, variance: 0.3}}
  - name: b
    circuits: {victim: {mean: 3.1, variance: 0.3}}
"""


class TestYaml:
    def test_load(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML)
        s = load_scenario(p)
        assert s.victim_repetitions == 12
        assert s.probe_every == 3
        assert s.seed == 9

    def test_seed_override(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML)
        assert load_scenario(p, seed=77).seed == 77

    def test_reference_devices(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML)
        devs = load_reference_devices(p)
        assert [d.name for d in devs] == ["a", "b"]

    @pytest.mark.parametrize("old,new,loader,error", [
        ("every_k: 3", "evry_k: 3", load_scenario, "unknown key"),
        ("seed: 9", "sed: 9", load_scenario, "unknown key"),
        ("  inter_job_gap: 0.0", "  gap: 0.0", load_scenario, "unknown key"),
        ("victim: {mean: 2.0, variance: 0.3}\n    probe",
         "victim: {mean: 2.0, varaince: 0.3}\n    probe", load_scenario,
         "unknown key"),
        ("repetitions: 12", "repetitions: 12, seed: 1", load_scenario,
         "unknown key"),
        ("  - name: b", "  - name: b\n    every_k: 2", load_reference_devices,
         "unknown key"),
        ("reference_devices:", "reference_device:", load_reference_devices,
         "unknown key"),
        (SCENARIO_YAML, "- reference_devices: []\n", load_reference_devices,
         "must be a mapping"),
    ], ids=["attacker", "top-level", "device", "circuit", "victim",
            "reference-device", "reference-devices-top-level",
            "reference-devices-list-file"])
    def test_unknown_key(self, tmp_path, old, new, loader, error):
        assert SCENARIO_YAML.count(old) == 1
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML.replace(old, new))
        with pytest.raises(ScenarioError, match=error):
            loader(p)

    @pytest.mark.parametrize("value", [
        "3", "\n  a: {circuits: {victim: {mean: 2.0, variance: 0.3}}}", "",
    ], ids=["scalar", "mapping", "null"])
    def test_reference_devices_must_be_a_list(self, tmp_path, value):
        head = SCENARIO_YAML[: SCENARIO_YAML.index("reference_devices:")]
        p = tmp_path / "s.yaml"
        p.write_text(f"{head}reference_devices: {value}\n")
        with pytest.raises(ScenarioError, match="reference_devices must be a list"):
            load_reference_devices(p)

    @pytest.mark.parametrize("old,new,key", [
        ("repetitions: 12", "repetitions: 2.5", "'repetitions' in victim"),
        ("repetitions: 12", "repetitions: true", "'repetitions' in victim"),
        ("every_k: 3", "every_k: 1.9", "'every_k' in attacker"),
        ("seed: 9", "seed: 2.5", "'seed' in scenario"),
    ], ids=["repetitions-float", "repetitions-bool", "every_k-float", "seed-float"])
    def test_counts_and_seed_must_be_integers(self, tmp_path, old, new, key):
        # int() would run 2 repetitions, 1 repetition, k = 1 and seed 2
        assert SCENARIO_YAML.count(old) == 1
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML.replace(old, new))
        with pytest.raises(ScenarioError, match=f"{key} must be an integer"):
            load_scenario(p)

    @pytest.mark.parametrize("gap,message", [
        ("fast", "'inter_job_gap' in reference_devices[1] must be a number, got 'fast'"),
        ("-1.0", "bad inter_job_gap in reference_devices[1]: "
                 "inter_job_gap must not be negative"),
        (".nan", "bad inter_job_gap in reference_devices[1]: "
                 "inter_job_gap must be finite, got nan"),
        (".inf", "bad inter_job_gap in reference_devices[1]: "
                 "inter_job_gap must be finite, got inf"),
    ], ids=["not-a-number", "negative", "nan", "inf"])
    def test_bad_gap_names_its_device_block(self, tmp_path, gap, message):
        assert SCENARIO_YAML.count("  - name: b\n") == 1
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML.replace(
            "  - name: b\n", f"  - name: b\n    inter_job_gap: {gap}\n"
        ))
        with pytest.raises(ScenarioError) as info:
            load_reference_devices(p)
        assert str(info.value) == message

    @pytest.mark.parametrize("old,new,message", [
        ("mean: 2.0, variance: 0.3}\n    probe", "mean: abc, variance: 0.3}\n    probe",
         "'mean' in device.circuits.victim must be a number, got 'abc'"),
        ("mean: 2.0, variance: 0.3}\n    probe", "mean: true, variance: 0.3}\n    probe",
         "'mean' in device.circuits.victim must be a number, got True"),
        ("mean: 2.0, variance: 0.3}\n    probe", "mean: 2.0, variance: [1]}\n    probe",
         "'variance' in device.circuits.victim must be a number, got [1]"),
        ("inter_job_gap: 0.0", "inter_job_gap:",
         "'inter_job_gap' in device must be a number, got None"),
    ], ids=["string", "bool", "list", "null"])
    def test_unreadable_number_names_its_key(self, tmp_path, old, new, message):
        assert SCENARIO_YAML.count(old) == 1
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML.replace(old, new))
        with pytest.raises(ScenarioError) as info:
            load_scenario(p)
        assert str(info.value) == message

    @pytest.mark.parametrize("old,new,loader,message", [
        ("  - name: a", "  - name:", load_reference_devices,
         "'name' in reference_devices[0] must be a non-empty string, got None"),
        ("  - name: a", '  - name: ""', load_reference_devices,
         "'name' in reference_devices[0] must be a non-empty string, got ''"),
        ("  name: dev", "  name: 7", load_scenario,
         "'name' in device must be a non-empty string, got 7"),
        ("circuit: victim", "circuit: null", load_scenario,
         "'circuit' in victim must be a non-empty string, got None"),
        ("probe_circuit: probe", "probe_circuit: ''", load_scenario,
         "'probe_circuit' in attacker must be a non-empty string, got ''"),
    ], ids=["null-reference-name", "empty-reference-name", "int-device-name",
            "null-victim-circuit", "empty-probe-circuit"])
    def test_names_must_be_non_empty_strings(self, tmp_path, old, new, loader, message):
        # str() once made a device called 'None' and a circuit called '7'
        assert SCENARIO_YAML.count(old) == 1
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML.replace(old, new))
        with pytest.raises(ScenarioError) as info:
            loader(p)
        assert str(info.value) == message

    def test_gap_in_exponent_form(self, tmp_path):
        # PyYAML reads 1e-3 (no dot) as a string
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML.replace("inter_job_gap: 0.0", "inter_job_gap: 1e-3"))
        assert load_scenario(p).device.inter_job_gap == 0.001

    def test_yaml_syntax_error_is_a_scenario_error(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML.replace("name: dev", "name: [1"))
        with pytest.raises(ScenarioError, match="invalid YAML") as info:
            load_scenario(p)
        assert "\n" not in str(info.value)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text("device:\n  name: d\n  circuits:\n    x: {mean: 1, variance: 1}\n")
        with pytest.raises(ScenarioError):
            load_scenario(p)
