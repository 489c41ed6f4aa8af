"""The standard set of seeded CLI commands gives the pinned exit code,
stdout, stderr and written files; see `pins.py` for how to rewrite the
pins after a change that moves an output."""
import pytest

from pins import COMMANDS, load_pins, run_command

PINS = load_pins()


def test_every_command_is_pinned():
    assert sorted(PINS["commands"]) == sorted(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_output_is_pinned(name):
    assert run_command(COMMANDS[name]) == PINS["commands"][name]
