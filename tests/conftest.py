import pytest

from bernsym import quotients


@pytest.fixture
def cold_store():
    """The process-wide series store, emptied: for tests whose series must
    all be built during the test, not read from an earlier one."""
    quotients._stored.cache_clear()
    return quotients._stored
