"""Statistics and the output oracle comparator of the benchmark.

Kept free of ``repro`` imports so the unit tests run on their own.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Sequence

#: float tolerance of the oracle comparison.  The compiled engines sum
#: in another order than the direct interpreter (partial aggregates per
#: partition, then a merge), so floats may differ in the last digits.
REL_TOL = 1e-9
ABS_TOL = 1e-12

#: a tail percentile is reported only with at least this many samples
#: strictly beyond it
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """The median (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def percentile(values: Sequence[float], q: float) -> float | None:
    """The q-th percentile (0 < q < 100) by nearest rank.

    Returns ``None`` unless at least :data:`MIN_TAIL_SAMPLES` samples lie
    beyond the chosen rank, so a tail figure is never read off a handful
    of samples (p95 needs 200 samples).
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(values)
    rank = math.ceil(q / 100 * n)  # 1-based nearest rank
    if rank < 1 or n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def _flatten(value: Any) -> tuple[Any, tuple[float, ...]]:
    """Split a result row into its exact part and its float leaves.

    Dataclasses flatten to (type name, fields...), sequences to their
    elements; float leaves are replaced by a placeholder in the exact
    part and returned separately in order.
    """
    floats: list[float] = []

    def walk(v: Any) -> Any:
        if isinstance(v, float):
            floats.append(v)
            return ("<float>",)
        if dataclasses.is_dataclass(v) and not isinstance(v, type):
            return (type(v).__name__,) + tuple(
                walk(getattr(v, f.name)) for f in dataclasses.fields(v)
            )
        if isinstance(v, (tuple, list)):
            return (type(v).__name__,) + tuple(walk(x) for x in v)
        return v

    return walk(value), tuple(floats)


def _sort_key(flat: tuple[Any, tuple[float, ...]]) -> tuple[str, tuple]:
    exact, floats = flat
    return repr(exact), floats


def compare_multisets(actual: Sequence[Any], expected: Sequence[Any]) -> str | None:
    """Compare two result row lists as multisets.

    Rows must match exactly except for float leaves, which must agree
    within :data:`REL_TOL`/:data:`ABS_TOL`.  Returns ``None`` when they
    match, else a one-line description of the first difference.
    """
    if len(actual) != len(expected):
        return f"row count {len(actual)} != oracle {len(expected)}"
    got = sorted((_flatten(r) for r in actual), key=_sort_key)
    want = sorted((_flatten(r) for r in expected), key=_sort_key)
    for (g_exact, g_floats), (w_exact, w_floats) in zip(got, want):
        if g_exact != w_exact or len(g_floats) != len(w_floats):
            return f"row {g_exact!r} has no oracle counterpart"
        for g, w in zip(g_floats, w_floats):
            if not math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return f"row {g_exact!r}: {g!r} != oracle {w!r}"
    return None


def rows_of(bag: Any) -> list[Any]:
    """The rows of a returned ``DataBag``, in collection order."""
    return list(bag.fetch())
