import argparse
import csv
import io
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from qleak import attacks
from qleak.baseline import (
    _CSV_HEADER,
    HARDWARE,
    SIMULATOR,
    bundled_table_path,
    catalog_matrices,
    grover_catalog,
)
from qleak.cli import EXIT_OK, EXIT_PIPE, EXIT_TOLERANCE, EXIT_USAGE, build_parser, main
from qleak.stats import PowerSpec
from table1_divergences import divergent_names

ROOT = Path(__file__).resolve().parents[1]

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


#: a simulate run on the edited scenario file the test writes
BAD_SCENARIO = ["simulate", "--scenario", "TMP/bad.yaml"]
#: an attack on the unedited scenario file the test writes
ATTACK = ["attack", "--scenario", "TMP/scenario.yaml", "--attack"]


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

    @pytest.mark.parametrize("argv", [
        ["simulate"], *(["attack", "--attack", a] for a in ("uc", "co", "ca", "qm")),
    ], ids=["simulate", "uc", "co", "ca", "qm"])
    def test_every_scenario_reader_checks_reference_devices(self, capsys, tmp_path, argv):
        # only qp once read the block, so the others ran on a malformed file
        p = tmp_path / "scalar.yaml"
        head = SCENARIO_YAML[: SCENARIO_YAML.index("reference_devices:")]
        p.write_text(f"{head}reference_devices: 3\n")
        _, _, qp_err = run_cli(capsys, "attack", "--scenario", str(p), "--attack", "qp")
        code, out, err = run_cli(capsys, *argv, "--scenario", str(p))
        where = " ".join(a for a in argv if not a.startswith("--"))
        assert code == EXIT_USAGE and out == ""
        assert err == qp_err.replace("attack qp: ", f"{where}: ")
        assert err == f"{where}: reference_devices must be a list of devices\n"

    @pytest.mark.parametrize("edit", [
        ("inter_job_gap: 0.0", "inter_job_gap: 1.0e+308"),
        ("GHZ: {mean: 2.779299043", "GHZ: {mean: 1.0e+308"),
    ], ids=["gap", "mean"])
    @pytest.mark.parametrize("argv", [["simulate"], ["attack", "--attack", "uc"]],
                             ids=["simulate", "attack"])
    def test_overflowing_clock_is_a_usage_error(self, capsys, tmp_path, edit, argv):
        # simulate once printed inf clock cells and exited 0, and uc blamed
        # the probe times
        p = tmp_path / "huge.yaml"
        p.write_text(SCENARIO_YAML.replace(*edit)
                     .replace("repetitions: 120", "repetitions: 3"))
        code, out, err = run_cli(capsys, *argv, "--scenario", str(p))
        where = " ".join(a for a in argv if not a.startswith("--"))
        assert code == EXIT_USAGE and out == ""
        assert err == (f"{where}: the session's clock overflows: its durations "
                       "and gaps sum past the largest float\n")

    def test_no_reference_devices(self, capsys, tmp_path):
        p = tmp_path / "none.yaml"
        p.write_text(SCENARIO_YAML[: SCENARIO_YAML.index("reference_devices:")])
        code, out, err = run_cli(
            capsys, "attack", "--scenario", str(p), "--attack", "qp"
        )
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert err.startswith("attack qp: ") and err.count("\n") == 1
        assert "two device names" in err

    def test_repeated_device_names(self, capsys, tmp_path):
        p = tmp_path / "twins.yaml"
        p.write_text(SCENARIO_YAML.replace("name: dev_b", "name: dev_a"))
        code, out, err = run_cli(
            capsys, "attack", "--scenario", str(p), "--attack", "qp"
        )
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert err.startswith("attack qp: ") and err.count("\n") == 1

    @pytest.mark.parametrize("attack", ["ca", "qm"])
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

    def test_repetitions_past_the_bound(self, capsys, tmp_path):
        # a billion runs once asked numpy for about 15 GiB and ended in a
        # memory-error traceback with exit 1
        p = tmp_path / "huge.yaml"
        p.write_text(SCENARIO_YAML.replace("repetitions: 120", f"repetitions: {10**9}"))
        code, out, err = run_cli(capsys, "simulate", "--scenario", str(p))
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert err == (
            "simulate: victim_repetitions ('repetitions' in a scenario file) "
            "must be between 1 and 10000000, got 1000000000\n")

    def test_power_needs_effect(self, capsys):
        code, _, _ = run_cli(capsys, "power")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv,edit",
        [
            (BAD_SCENARIO, ("repetitions: 120", "repetitions: abc")),
            (BAD_SCENARIO, ("seed: 11", "seed: x1")),
            (BAD_SCENARIO, ("inter_job_gap: 0.0", "inter_job_gap: -1.0")),
            (BAD_SCENARIO, ("inter_job_gap: 0.0", "inter_job_gap: fast")),
            (BAD_SCENARIO, ("inter_job_gap: 0.0", "inter_job_gap: .nan")),
            (BAD_SCENARIO, ("inter_job_gap: 0.0", "inter_job_gap: .inf")),
            (BAD_SCENARIO, ("mean: 2.779299043, variance: 0.3}\n    probe",
                            "mean: .inf, variance: 0.3}\n    probe")),
            (BAD_SCENARIO, ("name: dev\n", "name: [1\n")),
            (BAD_SCENARIO, ("inter_job_gap: 0.0", "inter_job_gap: true")),
            (BAD_SCENARIO, ("mean: 2.779299043, variance: 0.3}\n    probe",
                            "mean: yes, variance: 0.3}\n    probe")),
            (BAD_SCENARIO, ("variance: 0.3}\n    probe", "variance: true}\n    probe")),
            (["reproduce-table", "--table", "TMP"], None),
            (["matrix", "--out-dir", "TMP/file/sub"], None),
            ([*ATTACK, "co", "--backend", "sim", "--table", "/nonexistent"], None),
            ([*ATTACK, "qm", "--alpha", "0.01"], None),
            (["power", "--effect-size", "1", "--mc-check", "--seed", "-1"], None),
            (BAD_SCENARIO, ("name: dev\n", 'name: ""\n')),
        ],
        ids=["repetitions-not-a-number", "seed-not-a-number", "negative-gap",
             "gap-not-a-number", "nan-gap", "infinite-gap", "infinite-mean",
             "yaml-syntax", "bool-gap", "bool-mean", "bool-variance",
             "table-is-a-directory",
             "out-dir-under-a-file", "co-with-backend-and-table", "qm-with-alpha",
             "power-negative-seed", "empty-device-name"],
    )
    def test_rejected_input_is_one_line(self, capsys, tmp_path, argv, edit):
        # each of these once ended in a traceback and exit 1, ignored a flag,
        # printed a NaN or infinite clock with exit 0, printed a result
        # before rejecting a negative seed, or ran a device named ''
        (tmp_path / "file").write_text("")
        (tmp_path / "scenario.yaml").write_text(SCENARIO_YAML)
        if edit:
            assert SCENARIO_YAML.count(edit[0]) == 1
            (tmp_path / "bad.yaml").write_text(SCENARIO_YAML.replace(*edit))
        code, out, err = run_cli(capsys, *(a.replace("TMP", str(tmp_path)) for a in argv))
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        where = f"attack {argv[4]}" if argv[:4] == ATTACK else argv[0]
        assert err.startswith(f"{where}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv,edit,message",
        [
            (["simulate", "--scenario", "TMP", "--seed", "-1"], None,
             "simulate: --seed must be non-negative, got -1"),
            (["attack", "--scenario", "TMP", "--attack", "qm", "--seed", "-1"], None,
             "attack qm: --seed must be non-negative, got -1"),
            (["power", "--effect-size", "1", "--mc-check", "--seed", "-1"], None,
             "power: --seed must be non-negative, got -1"),
            (["simulate", "--scenario", "TMP"], ("seed: 11", "seed: -3"),
             "simulate: seed must be non-negative, got -3"),
            (["attack", "--scenario", "TMP", "--attack", "qp"], ("name: dev_a", "name:"),
             "attack qp: 'name' in reference_devices[0] must be a non-empty string, "
             "got None"),
            (["attack", "--scenario", "TMP", "--attack", "qp"],
             ("name: dev_a", 'name: ""'),
             "attack qp: 'name' in reference_devices[0] must be a non-empty string, "
             "got ''"),
            (["simulate", "--scenario", "TMP"], ("circuit: GHZ", "circuit: null"),
             "simulate: 'circuit' in victim must be a non-empty string, got None"),
        ],
        ids=["simulate-seed", "attack-seed", "power-seed", "scenario-seed",
             "null-reference-name", "empty-reference-name", "null-victim-circuit"],
    )
    def test_rejection_names_its_flag_or_key(self, capsys, tmp_path, argv, edit, message):
        # numpy's "expected non-negative integer" named neither; a null
        # name made a processor called None and an empty one failed only
        # at verdict time, naming no key
        assert edit is None or SCENARIO_YAML.count(edit[0]) == 1
        path = tmp_path / "s.yaml"
        path.write_text(SCENARIO_YAML.replace(*edit) if edit else SCENARIO_YAML)
        code, out, err = run_cli(capsys, *(str(path) if a == "TMP" else a for a in argv))
        assert (code, out, err) == (EXIT_USAGE, "", message + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("column", [1, 3], ids=["latency", "required"])
    def test_non_finite_table_cell_names_its_line(self, capsys, tmp_path, column, value):
        # a NaN requirement once printed a NaN rel_err and exit 1, and a
        # non-finite latency a message naming neither file nor row
        lines = bundled_table_path().read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[column] = value
        p = tmp_path / "table.csv"
        p.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        code, out, err = run_cli(capsys, "reproduce-table", "--table", str(p))
        assert code == EXIT_USAGE
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"reproduce-table: {p}:2: ")

    def test_closed_stdout_ends_quietly(self, tmp_path):
        # 20,000 runs print far more than a pipe holds, so a write must fail
        p = tmp_path / "long.yaml"
        p.write_text(SCENARIO_YAML.replace("repetitions: 120", "repetitions: 20000"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "qleak.cli", "simulate", "--scenario", str(p)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        ) as proc:
            assert proc.stdout.readline().startswith(b"job_id,")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == EXIT_PIPE
        assert err == b""

    @pytest.mark.parametrize("argv,reason", [
        (["simulate", "--scenario", "TMP/" + "a" * 300], "File name too long"),
        (["simulate", "--scenario", "TMP/scenario.yaml",
          "--out-dir", "TMP/" + "a" * 300], "File name too long"),
        (["simulate", "--scenario", "TMP/loop"], "Too many levels of symbolic links"),
        (["reproduce-table", "--table", "TMP/wide.csv"],
         "TMP/wide.csv:2: field larger than field limit (131072)"),
        (["simulate", "--scenario", "TMP/deep.yaml"],
         "invalid YAML: maximum recursion depth exceeded"),
    ], ids=["long-scenario-name", "long-out-dir-name", "symlink-loop",
            "field-past-the-csv-limit", "nesting-past-the-stack"])
    def test_unusable_file_is_one_line(self, capsys, tmp_path, argv, reason):
        # each of these once ended in a traceback and exit 1
        (tmp_path / "scenario.yaml").write_text(SCENARIO_YAML)
        os.symlink("loop", tmp_path / "loop")
        (tmp_path / "wide.csv").write_text(
            f"{','.join(_CSV_HEADER)}\nGHZ,{'1' * 200_000},2.7,,\n")
        depth = 5 * sys.getrecursionlimit()
        (tmp_path / "deep.yaml").write_text("[" * depth + "]" * depth + "\n")
        code, out, err = run_cli(capsys, *(a.replace("TMP", str(tmp_path)) for a in argv))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"{argv[0]}: ") and err.count("\n") == 1
        assert reason.replace("TMP", str(tmp_path)) in err

    def test_a_bug_is_not_a_usage_error(self, capsys, scenario_file, monkeypatch):
        # an internal KeyError once printed `attack uc: boom` and exited 2
        def boom(*args, **kwargs):
            raise KeyError("boom")

        monkeypatch.setattr(attacks, "uc_classify", boom)
        with pytest.raises(KeyError, match="boom"):
            main(["attack", "--scenario", scenario_file, "--attack", "uc"])

    @pytest.mark.parametrize("out_dir", ["file", "file/sub"],
                             ids=["a-regular-file", "under-a-regular-file"])
    def test_out_dir_is_made_before_the_subcommand_runs(
        self, capsys, scenario_file, tmp_path, out_dir
    ):
        # the directory is made first, so nothing is printed when it cannot be
        (tmp_path / "file").write_text("")
        code, out, err = run_cli(
            capsys, "attack", "--scenario", scenario_file, "--attack", "uc",
            "--out-dir", str(tmp_path / out_dir),
        )
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert err.startswith("attack uc: ") and err.count("\n") == 1


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
        # PowerSpec's check prints the subcommand's one line; a value that
        # is not a number stays argparse's flag error
        argv = [scenario_file if a == "SCENARIO" else a for a in BASE_ARGV[command]]
        code, out, err = run_cli(capsys, command, *argv, flag, value)
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        if value == "x":
            assert f"argument {flag}: invalid float value: 'x'" in err
        else:
            where = "attack uc" if command == "attack" else command
            assert err == f"{where}: {flag[2:]} must be in (0,1), got {float(value)}\n"

    @pytest.mark.parametrize("argv", [
        ["power", "--effect-size", "1"],
        ["reproduce-table"],
        ["attack", "--scenario", "SCENARIO", "--attack", "co"],
        ["mitigate", *BASE_ARGV["mitigate"]],
    ], ids=["power", "reproduce-table", "attack-co", "mitigate"])
    def test_alpha_that_rounds_away(self, capsys, scenario_file, argv):
        # 1 - alpha/2 rounds to 1: the planner's quantile once failed
        # with a message that named no flag
        argv = [scenario_file if a == "SCENARIO" else a for a in argv]
        code, out, err = run_cli(capsys, *argv, "--alpha", "1e-300")
        where = "attack co" if argv[0] == "attack" else argv[0]
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"{where}: alpha must exceed 2**-53, got 1e-300\n"


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
            ("--effect-size", "-0.5"),
            ("--effect-size", "0.5", "--delta-mean", "9", "--variance", "1"),
            ("--effect-size", "0.5", "--variance", "1"),
        ],
    )
    def test_bad_input_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "power", *argv)
        assert code == EXIT_USAGE
        assert out == "" and "Traceback" not in err
        assert err.startswith("power: ") and err.count("\n") == 1

    @pytest.mark.parametrize("d,reason", [
        ("inf", "effect size is inf"), ("0", "planned n is inf"),
        # 3.1e11 draws, about 1.7 hours of oracle work
        ("0.001", "planned n is 15697722, past the oracle's 65536"),
    ])
    def test_mc_check_skips_an_undrawable_pair(self, capsys, d, reason):
        # an infinite effect size printed its CSV, then exited 2 over a
        # latency mean the user never gave
        code, out, err = run_cli(capsys, "power", "--effect-size", d, "--mc-check")
        assert code == EXIT_OK and len(parse_csv(out)) == 2
        assert err == f"mc-check d={float(d):g}: skipped ({reason})\n"

    def test_mc_check_far_from_target_exits_1(self, capsys):
        # n = 3 reaches well past the target power of 0.8
        code, out, err = run_cli(capsys, "power", "--effect-size", "5", "--mc-check")
        assert code == EXIT_TOLERANCE and len(parse_csv(out)) == 2
        assert err == "mc-check d=5: n=3 empirical power 0.968 (target 0.8)\n"


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

    def test_mc_check_skips_an_infinite_plan(self, capsys, tmp_path):
        # equal simulator latencies plan inf: math.ceil(inf) once ended the
        # run in an OverflowError traceback after the CSV
        p = tmp_path / "t.csv"
        p.write_text("name,sim_latency_s,qc_latency_s,sim_required,qc_required\n"
                     "A,1.0,2.0,,\nB,1.0,3.0,,\n")
        code, out, err = run_cli(capsys, "reproduce-table", "--table", str(p), "--mc-check")
        assert code == EXIT_OK and len(parse_csv(out)) == 5
        checks = [line for line in err.splitlines() if line.startswith("mc-check")]
        assert checks[:2] == [f"mc-check simulator {pair}: skipped (planned n is inf)"
                              for pair in ("'A' vs 'B'", "'B' vs 'A'")]
        assert [line.startswith("mc-check hardware ") and "empirical power" in line
                for line in checks[2:]] == [True, True]

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
        # `matrix` writes the catalog at the default spec, the CO attack at
        # its own --alpha and --power
        run_cli(capsys, "matrix", "--out-dir", str(tmp_path))
        grover = (tmp_path / "grover_required.csv").read_bytes()
        cat = grover_catalog()
        for flags, spec in (((), PowerSpec()),
                            (("--alpha", "0.01", "--power", "0.9"), PowerSpec(0.01, 0.9))):
            out = tmp_path / f"alpha{spec.alpha}"
            code, _, _ = run_cli(
                capsys, "attack", "--scenario", scenario_file, "--attack", "co",
                "--out-dir", str(out), *flags,
            )
            assert code == EXIT_OK
            co = (out / "co_required.csv").read_bytes()
            assert co.startswith(b",i1k000,i1k001,")
            assert (co == grover) is (spec == PowerSpec())
            cells = [[float(c or "nan") for c in row[1:]]
                     for row in parse_csv(co.decode())[1:]]
            np.testing.assert_allclose(cells, catalog_matrices(cat, spec)[1], rtol=1e-8)


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

    def test_empty_out_dir_means_none(self, capsys, scenario_file):
        argv = ["simulate", "--scenario", scenario_file]
        assert run_cli(capsys, *argv, "--out-dir", "") == run_cli(capsys, *argv)

    def test_attack_uc(self, capsys, scenario_file):
        code, out, _ = run_cli(
            capsys, "attack", "--scenario", scenario_file,
            "--attack", "uc", "--backend", "qc",
        )
        assert code == EXIT_OK
        rows = parse_csv(out)
        assert rows[1][1] == "GHZ"

    @pytest.mark.parametrize("attack", ["uc", "co", "qp"])
    def test_a_plan_no_scenario_can_hold_is_named(self, capsys, scenario_file, attack):
        # CO's key stage plans about 1.9e7 runs, past MAX_REPETITIONS, and
        # once said only "(under-powered)"
        code, out, err = run_cli(
            capsys, "attack", "--scenario", scenario_file, "--attack", attack
        )
        planned_n = float(dict(zip(*parse_csv(out)))["planned_n"])
        assert code == EXIT_OK
        assert (planned_n > 10**7) is (attack == "co")
        lines = err.splitlines()
        assert len(lines) == 1 + (attack == "co")
        if attack == "co":
            assert lines[0] == ("CO: the plan of 18837266.2 runs is past 10000000, "
                                "so no scenario can hold it")

    def test_attack_qp_reads_its_scenario_once(self, capsys, monkeypatch):
        # the reference devices once came from a second parse of the file
        reads = []

        def counting_load(stream, load=yaml.safe_load):
            reads.append(stream.name)
            return load(stream)

        monkeypatch.setattr(yaml, "safe_load", counting_load)
        path = str(ROOT / "demos" / "scenarios" / "ghz_hardware.yaml")
        code, _, _ = run_cli(capsys, "attack", "--scenario", path, "--attack", "qp")
        assert code == EXIT_OK and reads == [path]

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

    @pytest.mark.parametrize("attack", ["uc", "co", "qp"])
    def test_one_run_is_an_underpowered_verdict(self, capsys, tmp_path, attack):
        # one victim run leaves one duration: a label, flagged under-powered
        p = tmp_path / "one.yaml"
        p.write_text(SCENARIO_YAML.replace("repetitions: 120", "repetitions: 1"))
        code, out, err = run_cli(
            capsys, "attack", "--scenario", str(p), "--attack", attack
        )
        assert code == EXIT_OK
        fields = dict(zip(*parse_csv(out)))
        assert fields["measurements_used"] == "1"
        assert fields["underpowered"] == "1"
        assert err.endswith(" n=1 (under-powered)\n")

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
        # no environment variable sets the seed
        argv = ["simulate", "--scenario", scenario_file]
        monkeypatch.delenv("QLEAK_SEED", raising=False)
        unset = run_cli(capsys, *argv)
        monkeypatch.setenv("QLEAK_SEED", "33")
        assert run_cli(capsys, *argv) == unset

    def test_scenario_seed_is_the_default(self, capsys, scenario_file):
        # the file says seed: 11; --seed overrides it

        def simulate(*seed):
            return run_cli(capsys, "simulate", "--scenario", scenario_file, *seed)[1]

        assert simulate() == simulate("--seed", "11") != simulate("--seed", "0")

    def test_null_attack_sessions_follow_the_scenario_seed(
        self, capsys, scenario_file, tmp_path
    ):
        # the second session runs at the scenario's seed + 1
        curves = []
        for out, seed in (("default", ()), ("eleven", ("--seed", "11"))):
            run_cli(capsys, "attack", "--scenario", scenario_file, "--attack", "ca",
                    "--out-dir", str(tmp_path / out), *seed)
            curves.append((tmp_path / out / "ca_dom.csv").read_text())
        assert curves[0] == curves[1]


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

    def test_layout_variances_a_rounding_apart(self, capsys):
        # the two mixtures' variances differ in the last bit
        code, out, err = run_cli(
            capsys, "mitigate", "--kind", "compile-randomness",
            "--layout-spread", "0.7", "--layouts", "7", "--backend", "sim",
            "--victim", "Quantum State Tomography", "--reference", "T1/Qubit Lifetimes",
        )
        assert code == EXIT_OK, err
        row = dict(zip(*parse_csv(out)))
        assert 0 < float(row["overlap_after"]) < 1

    def test_compile_spread_names_the_short_circuit(self, capsys):
        # GHZ's simulator latency is 0.168 s, below the spread's half; this
        # once exited with "latency mean must be positive and finite"
        code, out, err = run_cli(
            capsys, "mitigate", "--kind", "compile-randomness",
            "--layout-spread", "0.5", "--backend", "sim",
            "--victim", "GHZ", "--reference", "Quantum Phase Estimation",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "mitigate: compile-randomness layout_spread 0.5 needs every circuit "
            "mean above layout_spread / 2 = 0.25, but 'GHZ' has mean 0.168084145\n")

    def test_pad_toward_defaults_to_the_reference(self, capsys):
        argv = ["mitigate", "--kind", "circuit-padding", "--pad-fraction", "0.5",
                "--victim", "GHZ", "--reference", "Quantum Phase Estimation"]
        default = run_cli(capsys, *argv)
        assert default[0] == EXIT_OK
        assert default == run_cli(capsys, *argv, "--pad-toward", argv[-1])

    def test_unknown_circuit_is_named(self, capsys):
        code, out, err = run_cli(
            capsys, "mitigate", "--kind", "timer-noise",
            "--victim", "GHZZ", "--reference", "GHZ", "--added-variance", "0.1",
        )
        assert code == EXIT_USAGE
        assert out == "" and err == "mitigate: unknown circuit 'GHZZ'\n"

    def test_same_victim_and_reference_is_a_usage_error(self, capsys):
        # once reported inflation xinf against an attack with nothing to
        # tell apart
        code, out, err = run_cli(
            capsys, "mitigate", "--kind", "timer-noise", "--added-variance", "1",
            "--victim", "GHZ", "--reference", "GHZ",
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "mitigate: victim and reference are the same circuit 'GHZ'\n"

    def test_unknown_victim(self, capsys):
        code, _, _ = run_cli(
            capsys, "mitigate", "--kind", "timer-noise",
            "--victim", "nope", "--reference", "GHZ",
            "--added-variance", "0.1",
        )
        assert code == EXIT_USAGE
