import numpy as np
import pytest

from qleak.cloudsim import (
    ATTACKER,
    DURATION_FLOOR,
    VICTIM,
    DeviceProfile,
    JobRecord,
    Scenario,
    ScenarioError,
    ground_truth_durations,
    load_reference_devices,
    load_scenario,
    run_simulation,
)
from qleak.csvout import write_records
from qleak.stats import TimingDistribution


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


class TestSimulation:
    def test_deterministic(self):
        a = run_simulation(make_scenario(seed=42))
        b = run_simulation(make_scenario(seed=42))
        assert [r.ended_at for r in a] == [r.ended_at for r in b]

    def test_seed_changes_outcome(self):
        a = run_simulation(make_scenario(seed=1))
        b = run_simulation(make_scenario(seed=2))
        assert [r.ended_at for r in a] != [r.ended_at for r in b]

    def test_job_counts(self):
        log = run_simulation(make_scenario(reps=20, k=1))
        assert len(log.by_owner(VICTIM)) == 20
        # probes bracket every victim batch: one leading plus one per batch
        assert len(log.by_owner(ATTACKER)) == 21

    def test_batched_probe_count(self):
        log = run_simulation(make_scenario(reps=20, k=4))
        assert len(log.by_owner(ATTACKER)) == 6

    def test_ragged_final_batch(self):
        log = run_simulation(make_scenario(reps=10, k=4))
        assert len(log.by_owner(ATTACKER)) == 4

    def test_serial_and_gapped(self):
        log = run_simulation(make_scenario(gap=0.5))
        records = list(log)
        for prev, cur in zip(records[:-1], records[1:]):
            assert cur.started_at == pytest.approx(prev.ended_at + 0.5)

    def test_duration_floor(self):
        # a mean near zero draws negative durations that get clamped
        scenario = make_scenario(victim_var=4.0, seed=3)
        log = run_simulation(scenario)
        assert log.truncations > 0
        assert min(r.duration for r in log) == pytest.approx(DURATION_FLOOR)

    def test_ground_truth(self):
        log = run_simulation(make_scenario(reps=15))
        xs = ground_truth_durations(log)
        assert xs.shape == (15,)
        assert np.all(xs > 0)

    def test_log_csv(self, tmp_path):
        log = run_simulation(make_scenario(reps=5))
        path = tmp_path / "log.csv"
        write_records(path, JobRecord, log, digits=12)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(log) + 1
        assert lines[0] == "job_id,owner,circuit,queued_at,started_at,ended_at"
        last = log.records[-1]
        assert lines[-1].split(",")[:3] == [str(last.job_id), last.owner, last.circuit]
        assert float(lines[-1].split(",")[-1]) == pytest.approx(last.ended_at, rel=1e-11)


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

    def test_bad_gap(self):
        with pytest.raises(ValueError):
            make_device(gap=-1.0)


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

    @pytest.mark.parametrize("old,new,loader", [
        ("every_k: 3", "evry_k: 3", load_scenario),
        ("seed: 9", "sed: 9", load_scenario),
        ("  inter_job_gap: 0.0", "  gap: 0.0", load_scenario),
        ("victim: {mean: 2.0, variance: 0.3}\n    probe",
         "victim: {mean: 2.0, varaince: 0.3}\n    probe", load_scenario),
        ("repetitions: 12", "repetitions: 12, seed: 1", load_scenario),
        ("  - name: b", "  - name: b\n    every_k: 2", load_reference_devices),
    ], ids=["attacker", "top-level", "device", "circuit", "victim", "reference-device"])
    def test_unknown_key(self, tmp_path, old, new, loader):
        assert SCENARIO_YAML.count(old) == 1
        p = tmp_path / "s.yaml"
        p.write_text(SCENARIO_YAML.replace(old, new))
        with pytest.raises(ScenarioError, match="unknown key"):
            loader(p)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "s.yaml"
        p.write_text("device:\n  name: d\n  circuits:\n    x: {mean: 1, variance: 1}\n")
        with pytest.raises(ScenarioError):
            load_scenario(p)
