import pytest
from hypothesis import settings

from hyqa import corpus

# Derandomized examples and no per-example deadline, so property tests give
# the same verdict on every run, however loaded the host.
settings.register_profile("hyqa", derandomize=True, deadline=None)
settings.load_profile("hyqa")


@pytest.fixture(autouse=True)
def _empty_token_table_slot():
    """Start every test with corpus.token_table holding no table, so no
    test takes a table another test built or counts fewer terms calls."""
    corpus._last_table.clear()
