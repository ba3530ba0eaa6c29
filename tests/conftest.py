"""Shared fixtures, the ``stress`` marker's per-test timeout, and the
``--model-examples`` option the version-store model reads.

Threaded hammer tests are marked ``@pytest.mark.stress``; a deadlock
in one must fail CI, not hang it.  There is no pytest-timeout in the
baked toolchain, so the timeout is a SIGALRM armed around the test
call (tests run in the main thread, where the signal is delivered).
On platforms without SIGALRM the tests simply run unguarded.
"""

import signal

import pytest

from repro.core.database import SpitzDatabase
from repro.forkbase.chunk_store import ChunkStore

#: Default per-test budget for @pytest.mark.stress, seconds.  Generous:
#: the hammer tests finish in a few seconds; only a real deadlock or
#: livelock gets anywhere near it.
STRESS_TIMEOUT_SECONDS = 60


def pytest_addoption(parser):
    parser.addoption(
        "--model-examples", type=int, default=50,
        help="examples for tests/property/test_version_model.py "
        "(same fixed profile; CI's own step runs more)",
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    marker = item.get_closest_marker("stress")
    if marker is None or not hasattr(signal, "SIGALRM"):
        return (yield)
    timeout = int(marker.kwargs.get("timeout", STRESS_TIMEOUT_SECONDS))

    def _on_alarm(signum, frame):
        pytest.fail(
            f"stress test exceeded its {timeout}s timeout "
            "(deadlock or livelock?)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(timeout)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def store():
    """A fresh content-addressed chunk store."""
    return ChunkStore()


@pytest.fixture
def db():
    """A fresh single-node Spitz database."""
    return SpitzDatabase()


@pytest.fixture
def loaded_db():
    """A Spitz database preloaded with 200 sequential KV records."""
    database = SpitzDatabase()
    for i in range(200):
        database.put(f"key{i:04d}".encode(), f"value{i}".encode())
    return database
