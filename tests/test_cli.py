import csv
import io

import pytest

from qleak.baseline import HARDWARE, SIMULATOR
from qleak.cli import EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main
from table1_divergences import divergent_names

SCENARIO_YAML = """
device:
  name: dev
  inter_job_gap: 0.0
  circuits:
    GHZ: {mean: 2.779299043, variance: 0.3}
    probe: {mean: 0.05, variance: 0.0001}
victim: {circuit: GHZ, repetitions: 120}
attacker: {probe_circuit: probe, every_k: 1}
seed: 11
reference_devices:
  - name: dev_a
    circuits:
      GHZ: {mean: 2.779299043, variance: 0.3}
  - name: dev_b
    circuits:
      GHZ: {mean: 4.0, variance: 0.3}
"""


@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "scenario.yaml"
    p.write_text(SCENARIO_YAML)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    return list(csv.reader(io.StringIO(out)))


class TestUsage:
    def test_no_command(self, capsys):
        code, _, _ = run_cli(capsys, )
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_attack_requires_scenario(self, capsys):
        code, _, err = run_cli(capsys, "attack", "--attack", "uc")
        assert code == EXIT_USAGE

    def test_missing_scenario_file(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", "/nonexistent.yaml"
        )
        assert code == EXIT_USAGE

    def test_power_needs_effect(self, capsys):
        code, _, _ = run_cli(capsys, "power")
        assert code == EXIT_USAGE


class TestPower:
    def test_effect_size(self, capsys):
        code, out, _ = run_cli(capsys, "power", "--effect-size", "0.28")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[0] == ["effect_size", "alpha", "power", "required_n"]
        assert float(rows[1][3]) == pytest.approx(202.0, rel=0.01)

    def test_delta_and_variance(self, capsys):
        code, out, _ = run_cli(
            capsys, "power", "--delta-mean", "0.136900185", "--variance", "0.003"
        )
        assert code == EXIT_OK
        assert float(parse_csv(out)[1][3]) == pytest.approx(3.7628, rel=1e-3)


class TestReproduceTable:
    def test_qc_column_clean(self, capsys):
        code, out, err = run_cli(capsys, "reproduce-table", "--backend", "qc")
        rows = parse_csv(out)
        assert len(rows) == 27
        # the hardware column reproduces except the five published divergent cells
        fails = [r[0] for r in rows[1:] if r[-1] == "FAIL"]
        assert code == EXIT_TOLERANCE
        assert sorted(fails) == divergent_names(HARDWARE)
        assert len(fails) == 5

    def test_sim_column(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce-table", "--backend", "sim")
        rows = parse_csv(out)
        fails = [r[0] for r in rows[1:] if r[-1] == "FAIL"]
        assert sorted(fails) == divergent_names(SIMULATOR)
        assert len(fails) == 2


    def test_rel_err_column(self, capsys):
        # one formula on every row, the cells printed as 1 included; those
        # pass only when the solver also reports a single measurement. The
        # 9-digit computed column limits the check to about 1e-8.
        code, out, _ = run_cli(capsys, "reproduce-table")
        rows = parse_csv(out)[1:]
        assert len(rows) == 52
        for name, backend, _, printed, computed, rel, status in rows:
            p, c = float(printed), float(computed)
            assert float(rel) == pytest.approx(abs(c - p) / p, rel=2e-3, abs=1e-8)
            if p == 1.0:
                assert status == ("ok" if c == 1.0 else "FAIL")
        ones = sorted((r[1], r[0]) for r in rows if r[3] == "1")
        assert ones == [
            (HARDWARE, "Quantum State Tomography"),
            (HARDWARE, "Rabi Oscillations"),
            (HARDWARE, "Randomized Benchmarking"),
            (HARDWARE, "T1/Qubit Lifetimes"),
            (HARDWARE, "T2/Decoherence"),
            (HARDWARE, "Tphi Dephase Benchmark"),
            (SIMULATOR, "Tphi Dephase Benchmark"),
        ]


class TestMatrix:
    def test_stdout_long_form(self, capsys):
        code, out, err = run_cli(capsys, "matrix")
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[0] == ["i", "j", "ovl", "required_n"]
        assert len(rows) == 1 + 24 * 23

    def test_out_dir(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "matrix", "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        assert (tmp_path / "grover_ovl.csv").exists()
        assert (tmp_path / "grover_required.csv").exists()
        assert (tmp_path / "grover_pairs.csv").exists()


class TestSimulateAndAttack:
    def test_simulate(self, capsys, scenario_file):
        code, out, err = run_cli(capsys, "simulate", "--scenario", scenario_file)
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert len(rows) == 1 + 120 + 121

    def test_simulate_stdout_matches_out_dir(self, capsys, scenario_file, tmp_path):
        _, out, _ = run_cli(capsys, "simulate", "--scenario", scenario_file)
        code, _, _ = run_cli(
            capsys, "simulate", "--scenario", scenario_file, "--out-dir", str(tmp_path)
        )
        assert code == EXIT_OK
        assert parse_csv(out) == parse_csv((tmp_path / "jobs.csv").read_text())

    def test_attack_uc(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, "attack", "--scenario", scenario_file,
            "--attack", "uc", "--backend", "qc",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[1][1] == "GHZ"

    def test_attack_qp(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, "attack", "--scenario", scenario_file, "--attack", "qp"
        )
        assert code == EXIT_OK
        assert parse_csv(out)[1][1] == "dev_a"

    def test_attack_qp_power(self, capsys, scenario_file):
        argv = ["attack", "--scenario", scenario_file, "--attack", "qp"]
        _, out, _ = run_cli(capsys, *argv)
        code, out_90, _ = run_cli(capsys, *argv, "--power", "0.9")
        assert code == EXIT_OK
        default, stricter = parse_csv(out), parse_csv(out_90)
        col = default[0].index("planned_n")
        assert float(stricter[1][col]) > float(default[1][col])

    def test_attack_null(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, "attack", "--scenario", scenario_file, "--attack", "qm",
            "--seed", "2",
        )
        assert code == EXIT_OK
        assert parse_csv(out)[1][1] == "indistinguishable"

    def test_seed_env(self, capsys, scenario_file, monkeypatch):
        monkeypatch.setenv("QLEAK_SEED", "33")
        code1, out1, _ = run_cli(capsys, "simulate", "--scenario", scenario_file)
        code2, out2, _ = run_cli(capsys, "simulate", "--scenario", scenario_file)
        assert out1 == out2


class TestMitigate:
    def test_timer_noise(self, capsys):
        code, out, _ = run_cli(
            capsys, "mitigate", "--kind", "timer-noise",
            "--victim", "GHZ", "--reference", "Quantum Phase Estimation",
            "--added-variance", "0.3", "--backend", "qc",
        )
        assert code == EXIT_OK
        row = parse_csv(out)[1]
        assert float(row[3]) == pytest.approx(2.0, rel=1e-3)

    def test_unknown_victim(self, capsys):
        code, _, _ = run_cli(
            capsys, "mitigate", "--kind", "timer-noise",
            "--victim", "nope", "--reference", "GHZ",
            "--added-variance", "0.1",
        )
        assert code == EXIT_USAGE
