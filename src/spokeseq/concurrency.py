"""The one map over independent per-degree work items.

Per-degree computations (the columns of an Ext table, the degrees of the
axiom suite) are independent; ``deterministic_map`` applies the function to
each item in order and returns the results positionally.  Keeping it a named
function gives the per-degree loops one place where a span recorder (see
``perfbench/tracer.py``) can time them and count their items.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def deterministic_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    return [fn(item) for item in items]
