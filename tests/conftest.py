import pytest

from finsemi import suites


@pytest.fixture
def run_suite():
    """run_suite(name, config=None): the report of one suite, run through
    the suite runner."""
    return lambda name, config=None: suites.run_all(config or {}, [name])[0]
