"""Shared helpers for the tests; tests import them as `from conftest import ...`."""

import tracemalloc


def traced_peak(fn) -> int:
    """Bytes `fn()` allocated at its peak, above what was allocated when
    it started, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
