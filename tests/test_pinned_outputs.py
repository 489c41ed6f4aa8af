"""The standard set of seeded CLI commands gives the pinned exit code,
stdout, stderr and written files; see `pins.py` for how to rewrite the
pins after a change that moves an output."""
import pytest

from pins import COMMANDS, load_pins, run_command, run_command_fresh

PINS = load_pins()


def test_every_command_is_pinned():
    assert sorted(PINS["commands"]) == sorted(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_output_is_pinned(name):
    assert run_command(COMMANDS[name]) == PINS["commands"][name]


@pytest.mark.parametrize("name", ["power 0.3 --mc-check", "simulate", "mitigate timer-noise"])
def test_fresh_process_output_is_pinned(name):
    """The in-process pins run after the tests have imported scipy.special;
    a fresh interpreter loads `cython_special` without it."""
    pin = PINS["commands"][name]
    assert not pin["files"]
    want = {k: pin[k] for k in ("exit", "stdout", "stderr")}
    assert run_command_fresh(COMMANDS[name]) == want
