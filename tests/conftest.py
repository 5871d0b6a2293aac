"""Shared helpers for the tests; tests import them as `from conftest import ...`."""

import gc
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


def traced_held(fn) -> int:
    """Bytes that `fn()` allocated and that stay allocated while its result
    is kept alive, as tracemalloc counts them (garbage collected first)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()  # noqa: F841 -- kept alive while its bytes are counted
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
