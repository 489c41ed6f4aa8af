"""Each demo runs to the end, prints its closing result and the pinned
stdout."""
import pytest

from pins import load_pins, run_demo, sha256


@pytest.mark.parametrize(
    "script,marker",
    [
        ("01_required_measurements.py", "empirical power"),
        ("02_spy_on_the_queue.py", "[QP] processor:"),
        ("03_harden_the_service.py", "scheduler-batching"),
    ],
)
def test_demo_runs(script, marker):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
    assert sha256(proc.stdout) == load_pins()["demos"][script]
