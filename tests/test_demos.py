"""Each demo runs to the end and prints its closing result."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script,marker",
    [
        ("01_required_measurements.py", "empirical power"),
        ("02_spy_on_the_queue.py", "[QP] processor:"),
        ("03_harden_the_service.py", "scheduler-batching"),
    ],
)
def test_demo_runs(script, marker):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
