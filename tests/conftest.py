import pytest

from spiderweb import qgates, schedule


def _empty_caches() -> None:
    schedule._plans.clear()
    schedule._parsed.clear()
    schedule._pieces.clear()
    qgates._layout.cache_clear()


@pytest.fixture
def cold_caches():
    """Empty the per-process caches that fill with their inputs (the simulator's step-body
    plans ``schedule._plans``, the parser's bodies by text ``schedule._parsed``, the writers'
    slot pieces ``schedule._pieces`` and the ``functools.cache`` of register layouts
    ``qgates._layout``) before the test.  The fixture's value empties them again, for a test
    that runs one input cold and then warm."""
    _empty_caches()
    return _empty_caches
