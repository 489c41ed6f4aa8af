import argparse
import csv
import io
import shlex
from pathlib import Path

import pytest

from qleak.baseline import HARDWARE, SIMULATOR
from qleak.cli import EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, build_parser, main
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

    def test_unknown_scenario_key(self, capsys, tmp_path):
        p = tmp_path / "typo.yaml"
        p.write_text(SCENARIO_YAML.replace("every_k: 1", "evry_k: 3"))
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(p))
        assert code == EXIT_USAGE
        assert out == "" and "evry_k" in err

    def test_reference_devices_not_a_list(self, capsys, tmp_path):
        p = tmp_path / "scalar.yaml"
        head = SCENARIO_YAML[: SCENARIO_YAML.index("reference_devices:")]
        p.write_text(f"{head}reference_devices: 3\n")
        code, out, err = run_cli(
            capsys, "attack", "--scenario", str(p), "--attack", "qp"
        )
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert "reference_devices must be a list" in err

    @pytest.mark.parametrize("attack", ["ca", "qm", "qp"])
    def test_trace_too_short(self, capsys, tmp_path, attack):
        # one victim run leaves one duration: nothing to compare a curve on
        p = tmp_path / "one.yaml"
        p.write_text(SCENARIO_YAML.replace("repetitions: 120", "repetitions: 1"))
        code, out, err = run_cli(
            capsys, "attack", "--scenario", str(p), "--attack", attack
        )
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert err.startswith(f"attack {attack}: ") and err.count("\n") == 1

    def test_power_needs_effect(self, capsys):
        code, _, _ = run_cli(capsys, "power")
        assert code == EXIT_USAGE


#: the options each subcommand declares: exactly those some run of it reads
OPTIONS = {
    "reproduce-table": {"table", "backend", "alpha", "power", "seed", "mc-check"},
    "matrix": {"out-dir"},
    "power": {"alpha", "power", "seed", "mc-check", "effect-size", "delta-mean",
              "variance"},
    "simulate": {"scenario", "seed", "out-dir"},
    "attack": {"scenario", "attack", "table", "backend", "alpha", "power", "seed",
               "out-dir"},
    "mitigate": {"table", "backend", "alpha", "power", "kind", "victim",
                 "reference", "added-variance", "layout-spread", "layouts",
                 "pad-toward", "pad-fraction", "batch-factor"},
}

#: a valid run of each subcommand, to which one unread flag is added
BASE_ARGV = {
    "reproduce-table": [],
    "matrix": [],
    "power": ["--effect-size", "1.0"],
    "simulate": ["--scenario", "SCENARIO"],
    "attack": ["--scenario", "SCENARIO", "--attack", "uc"],
    "mitigate": ["--kind", "timer-noise", "--victim", "GHZ",
                 "--reference", "Quantum Phase Estimation", "--added-variance", "0.3"],
}

FLAG_VALUE = {"--table": ["/nonexistent.csv"], "--backend": ["qc"], "--seed": ["1"],
              "--mc-check": [], "--out-dir": ["OUT"], "--alpha": ["0.05"],
              "--power": ["0.8"]}

UNREAD = [
    ("reproduce-table", "--out-dir"),
    *[("matrix", f) for f in ("--table", "--backend", "--seed", "--mc-check",
                               "--alpha", "--power")],
    *[("power", f) for f in ("--table", "--backend", "--out-dir")],
    *[("simulate", f) for f in ("--table", "--backend", "--alpha", "--power",
                                "--mc-check")],
    ("attack", "--mc-check"),
    *[("mitigate", f) for f in ("--seed", "--out-dir", "--mc-check")],
]


class TestProbabilityFlags:
    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("power", "--alpha", "nan"),
            ("power", "--power", "1.5"),
            ("reproduce-table", "--alpha", "2"),
            ("attack", "--power", "0"),
            ("attack", "--alpha", "inf"),
            ("attack", "--power", "x"),
        ],
    )
    def test_outside_unit_interval_is_a_usage_error(
        self, capsys, scenario_file, command, flag, value
    ):
        argv = [scenario_file if a == "SCENARIO" else a for a in BASE_ARGV[command]]
        code, out, err = run_cli(capsys, command, *argv, flag, value)
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert f"argument {flag}: must be a number in (0, 1)" in err


class TestFlags:
    def test_option_sets(self):
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        declared = {
            name: {
                opt[2:]
                for action in sp._actions
                for opt in action.option_strings
                if opt.startswith("--") and opt != "--help"
            }
            for name, sp in sub.choices.items()
        }
        assert declared == OPTIONS
        assert sum(map(len, declared.values())) == 38
        # with the 19 unread flags the subcommands declared 57
        assert len(UNREAD) == 19

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_flag_is_usage_error(
        self, capsys, scenario_file, tmp_path, command, flag
    ):
        fill = {"SCENARIO": scenario_file, "OUT": str(tmp_path)}
        argv = [*BASE_ARGV[command], flag, *FLAG_VALUE[flag]]
        code, out, err = run_cli(capsys, command, *(fill.get(a, a) for a in argv))
        assert code == EXIT_USAGE
        assert out == "" and f"unrecognized arguments: {flag}" in err

    def test_simulate_requires_scenario(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == EXIT_USAGE
        assert "--scenario" in err

    def test_readme_examples_parse(self):
        # the documented commands name only flags their subcommand declares
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [
            shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("qleak ")
        ]
        assert {argv[1] for argv in commands} == set(OPTIONS)
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv[1:])


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

    def test_overflowing_plan_prints_inf(self, capsys):
        code, out, err = run_cli(capsys, "power", "--effect-size", "1e-200")
        assert code == EXIT_OK and err == ""
        assert parse_csv(out)[1] == ["1e-200", "0.05", "0.8", "inf"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--effect-size", "nan"),
            ("--delta-mean", "1", "--variance", "nan"),
            ("--delta-mean", "1", "--variance", "inf"),
            ("--delta-mean", "1", "--variance", "0"),
            ("--delta-mean", "1", "--variance", "-1"),
            ("--delta-mean", "nan", "--variance", "1"),
        ],
    )
    def test_bad_input_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "power", *argv)
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert err.startswith("power: ") and err.count("\n") == 1


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


    def test_mc_check_follows_backend(self, capsys):
        code, out, err = run_cli(
            capsys, "reproduce-table", "--backend", "sim", "--mc-check"
        )
        checks = [line for line in err.splitlines() if line.startswith("mc-check")]
        assert len(checks) == 2
        assert all(line.startswith("mc-check simulator ") for line in checks)

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

    def test_co_matrix_has_the_same_labels(self, capsys, scenario_file, tmp_path):
        run_cli(capsys, "matrix", "--out-dir", str(tmp_path))
        code, _, _ = run_cli(
            capsys, "attack", "--scenario", scenario_file, "--attack", "co",
            "--out-dir", str(tmp_path),
        )
        assert code == EXIT_OK
        co = (tmp_path / "co_required.csv").read_bytes()
        assert co == (tmp_path / "grover_required.csv").read_bytes()
        assert co.startswith(b",i1k000,i1k001,")


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

    @pytest.mark.parametrize("attack", ["uc", "qp"])
    def test_attack_out_dir_holds_the_verdict(
        self, capsys, scenario_file, tmp_path, attack
    ):
        argv = ["attack", "--scenario", scenario_file, "--attack", attack]
        _, out, _ = run_cli(capsys, *argv)
        code, _, _ = run_cli(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        saved = (tmp_path / f"{attack}_verdict.csv").read_bytes()
        assert saved.replace(b"\r\n", b"\n") == out.encode()

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

    def test_foreign_parameter_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "mitigate", "--kind", "timer-noise",
            "--victim", "GHZ", "--reference", "Quantum Phase Estimation",
            "--added-variance", "0.3", "--layouts", "7",
        )
        assert code == EXIT_USAGE
        assert out == "" and "timer-noise does not read layouts" in err

    def test_unknown_victim(self, capsys):
        code, _, _ = run_cli(
            capsys, "mitigate", "--kind", "timer-noise",
            "--victim", "nope", "--reference", "GHZ",
            "--added-variance", "0.1",
        )
        assert code == EXIT_USAGE
