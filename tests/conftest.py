"""Fixtures shared by the test modules."""
import pytest

from qleak.baseline import BaselineTable, bundled_table


@pytest.fixture(scope="session")
def table() -> BaselineTable:
    """The bundled Table 1; a frozen dataclass, so one copy serves every
    test."""
    return bundled_table()
