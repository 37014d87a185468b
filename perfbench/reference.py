"""A fixed piece of interpreter work that measures the machine's speed.

The benchmark machine shares its cores with other tenants.  Its speed
swings between levels that last about a second, and the share of time it
spends at the slow level drifts over minutes, so a plain host time says
as much about the machine as about the program.  The benchmark therefore
times :func:`reference_s` next to every timed stretch of the program, on
the same CPU, and reports the stretch at the reference speed (see
:func:`to_reference_speed`).  A change to the program moves the
program's times and not the reference times; the machine's swings move
both.
"""

from __future__ import annotations

import time

#: Wall time of ``reference_s``'s work when the benchmark machine runs
#: at its fast speed (there its reference times range 3.75-4.2 ms).
#: Only the unit of the reference-scaled times depends on it.
REFERENCE_S = 0.004


def reference_s() -> float:
    """Wall time of a fixed piece of interpreter work (about 4 ms)."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(40000):
        table[i & 255] = table.get((i * 7) & 255, 0) + i
    return time.perf_counter() - started


def to_reference_speed(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` scaled by ``REFERENCE_S`` over the mean of the
    reference times taken just before and just after it."""
    return elapsed * REFERENCE_S * 2.0 / (before + after)
