import pytest

from spiderweb import qgates, schedule


def _empty_caches() -> None:
    schedule._plans.clear()
    qgates._layouts.clear()


@pytest.fixture
def cold_caches():
    """Empty the per-process caches (the simulator's step-body plans and the
    register layouts of ``qgates``) before the test.  The fixture's value empties
    them again, for a test that runs one input cold and then warm."""
    _empty_caches()
    return _empty_caches
