"""Fixtures shared by the test modules."""

import tracemalloc

import pytest


def _peak_bytes(run) -> int:
    """The most memory tracemalloc traced at once while run() ran, in bytes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_bytes():
    """_peak_bytes, for the tests that hold a step to its memory."""
    return _peak_bytes
