import os

import pytest
from hypothesis import settings

from hyqa import corpus, syngen

# Derandomized examples and no per-example deadline, so property tests give
# the same verdict on every run, however loaded the host.
settings.register_profile("hyqa", derandomize=True, deadline=None)
settings.load_profile("hyqa")


@pytest.fixture(autouse=True)
def _empty_token_table_slot():
    """Start every test with corpus.token_table holding no table, so no
    test takes a table another test built or counts fewer terms calls."""
    corpus._last_table.clear()


@pytest.fixture(autouse=True)
def _no_child_process_left():
    """Fail a test that leaves a child process unreaped, running or exited,
    such as a shard of token_table, generate or mine, which corpus.sharded
    splits."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "still running" if pid == 0 else f"process {pid} exited with status {status} and was never waited for"
    pytest.fail(f"the test left a child process unreaped: {state}")


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set how many CPUs os.sched_getaffinity reports usable, and so into
    how many shards corpus.sharded splits token_table, generate and
    mine."""

    def set_usable(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_usable


@pytest.fixture
def count_forks(monkeypatch):
    """count_forks() returns a list that gets one entry for each os.fork
    from then on."""

    def start() -> list:
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    return start


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 2 texts in token_table's interning, and of 2 passages and
    3 examples in the sharded syngen stages, generate and mine, so small
    inputs span several shards."""
    monkeypatch.setattr(corpus, "_INTERN_BLOCK", 2)
    monkeypatch.setattr(syngen, "_NUCLEUS_CHUNK", 2)
    monkeypatch.setattr(syngen, "_MINE_BLOCK", 3)
