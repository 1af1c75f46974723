"""Helpers shared by the test modules."""

import tracemalloc
from typing import Any, NamedTuple


class Traced(NamedTuple):
    """What :func:`traced_peak` saw of one call."""

    result: Any
    peak: int  # bytes traced at the peak of the call
    held: int  # bytes still traced when it returned


def traced_peak(call) -> Traced:
    """``call()`` under tracemalloc, which is stopped again however it ends."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return Traced(result, peak, held)
