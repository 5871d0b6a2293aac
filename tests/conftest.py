"""Shared helpers for the tests; tests import them as `from conftest import ...`."""

import gc
import tracemalloc

import numpy as np


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


def pixel_centers(grid) -> tuple[np.ndarray, np.ndarray]:
    """Centre coordinates (m) of every pixel of `grid`, flat in pixel-id order."""
    return grid.centers(*grid.rowcol_of_id(np.arange(grid.npixels)))
