"""The seeded outputs a user sees, pinned by their sha256.

`pinned_outputs.json`, next to this file, holds for the standard set of
CLI commands (`COMMANDS`) the exit code and the sha256 of stdout, stderr
and every written file; for each demo, the sha256 of its stdout; and
each `ACCEPTANCE k` line of `test_acceptance.py` as printed.
`test_pinned_outputs.py`, `test_demos.py` and `test_acceptance.py` check
them. A change that moves an output reruns

    PYTHONPATH=src python tests/pins.py

which rewrites the data file, and names each moved output in CHANGES.md:
the diff of the data file is the exact list.
"""
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from qleak.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINS_PATH = Path(__file__).with_name("pinned_outputs.json")
SCENARIO = str(ROOT / "demos" / "scenarios" / "ghz_hardware.yaml")
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
#: stands for the --out-dir path in stdout and stderr, which name it
OUT = "OUT"

_MITIGATE = ["mitigate", "--victim", "GHZ", "--reference", "Quantum Phase Estimation",
             "--kind"]
#: name -> argv; OUT is replaced by a fresh directory for each run
COMMANDS = {
    "reproduce-table": ["reproduce-table"],
    "matrix": ["matrix"],
    "matrix --out-dir": ["matrix", "--out-dir", OUT],
    "power 0.08": ["power", "--effect-size", "0.08"],
    "power 0.3 --mc-check": ["power", "--effect-size", "0.3", "--mc-check"],
    "simulate": ["simulate", "--scenario", SCENARIO],
    **{f"attack {kind}": ["attack", "--scenario", SCENARIO, "--attack", kind,
                          "--out-dir", OUT]
       for kind in ("uc", "co", "ca", "qm", "qp")},
    "mitigate timer-noise": [*_MITIGATE, "timer-noise", "--added-variance", "0.3"],
    "mitigate compile-randomness": [*_MITIGATE, "compile-randomness",
                                    "--layout-spread", "0.5", "--layouts", "4"],
    "mitigate circuit-padding": [*_MITIGATE, "circuit-padding", "--pad-fraction", "0.5"],
    "mitigate scheduler-batching": [*_MITIGATE, "scheduler-batching",
                                    "--batch-factor", "3"],
}


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_command(argv: list[str]) -> dict:
    """Exit code and hashes of one in-process `cli.main` run, with any
    --out-dir in a fresh temporary directory."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(out_dir) if a == OUT else a for a in argv])
        files = {p.relative_to(out_dir).as_posix(): sha256(p.read_bytes())
                 for p in sorted(out_dir.rglob("*")) if p.is_file()}
    return {
        "exit": code,
        "stdout": sha256(out.getvalue().replace(str(out_dir), OUT)),
        "stderr": sha256(err.getvalue().replace(str(out_dir), OUT)),
        "files": files,
    }


def _run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    """`python <args>` in a fresh interpreter, from the repository root."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        encoding="utf-8", timeout=300,
    )


def run_demo(script: str) -> subprocess.CompletedProcess:
    """One demo in a fresh interpreter, from the repository root."""
    return _run_fresh([str(ROOT / "demos" / script)])


def run_command_fresh(argv: list[str]) -> dict:
    """Exit code and stdout and stderr hashes of one `python -m qleak.cli`
    run in a fresh interpreter, for a command without --out-dir."""
    proc = _run_fresh(["-m", "qleak.cli", *argv])
    return {"exit": proc.returncode, "stdout": sha256(proc.stdout),
            "stderr": sha256(proc.stderr)}


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def acceptance_lines() -> dict[str, str]:
    """{k: printed line} from a run of the acceptance criteria; the lines
    are printed before their pin is checked, so a moved line is read too."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    found = {m[1]: m[0] for m in
             re.finditer(r"^ACCEPTANCE (\d+) .*$", proc.stdout, re.MULTILINE)}
    if len(found) != 7:
        raise RuntimeError(f"expected seven ACCEPTANCE lines:\n{proc.stdout}")
    return found


if __name__ == "__main__":
    pins = {
        "commands": {name: run_command(argv) for name, argv in COMMANDS.items()},
        "demos": {script: sha256(run_demo(script).stdout) for script in DEMOS},
        "acceptance": acceptance_lines(),
    }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {PINS_PATH}")
