"""The benchmark's workloads: the argv lists each run passes to
``spokeseq.cli.main``.

Every workload is a closed loop with one client: a run answers its queries
one after the other in one fresh interpreter.  The headline workloads are
fixed configurations; only ``desk-mix`` draws its queries from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


def _argv(text: str) -> list[str]:
    return text.split()


SEGAL = _argv("segal --p 3 --n-max 3 --window -6:1:-8:8 --s-max 4")
EXT_RESOLUTION = _argv("ext --p 3 --n 2 --window -10:6:-12:12 --s-max 4")
CROSSCHECK = "--p 3 --n 2 --window -1:0:-1:0 --s-max 2"

SMOKE_SEGAL = _argv("segal --p 3 --n-max 3 --window -4:1:-6:6 --s-max 2")
SMOKE_EXT_RESOLUTION = _argv("ext --p 3 --n 2 --window -2:2:-2:2 --s-max 2")
SMOKE_CROSSCHECK = "--p 3 --n 1 --window -1:1:-1:1 --s-max 2"


def crosscheck_pair(common: str) -> list[list[str]]:
    """The same Ext window by the literal cobar route, then by the resolution."""
    return [_argv(f"ext --route cobar {common}"), _argv(f"ext --route resolution {common}")]


# desk-mix: one pool per entry of the menu, and every pool gets the same
# number of slots, DESK_SLOTS, so that no entry is weighted by hand.  Each
# pool's size divides DESK_SLOTS and a stream holds every member equally
# often: the seed changes only the order of the stream, not its work.
DESK_SLOTS = 15
_VARIANTS = ("full", "a_free", "a_inverted", "a_completed_inverted", "spoke_suspension")
_TINY_WINDOWS = ("-2:2:-2:2", "-1:1:-1:1", "-2:1:-1:1", "-1:1:-2:2", "-2:2:-1:1")

DESK_POOLS: dict[str, list[str]] = {
    "pi-hfp": [
        f"pi-hfp --p {p} --variant {v} --window -6:6:-8:8" for p in (3, 5, 7) for v in _VARIANTS
    ],
    "mk": [f"mk --p 3 --k-max {k}" for k in (4, 6, 8, 10, 12)]
    + [f"mk --p 5 --k-max {k}" for k in (4, 5, 6, 7, 8)]
    + [f"mk --p 7 --k-max {k}" for k in (2, 3, 4, 5, 6)],
    "check": [
        f"check --preset {preset} --p {p}"
        for preset in ("sthh", "geometric", "truncated")
        for p in (3, 5, 7, 11, 13)
    ],
    "ext": [
        f"ext --route {route} --p 3 --n {n} --window {w} --s-max 2"
        for route, n in (("resolution", 1), ("resolution", 2), ("cobar", 1))
        for w in _TINY_WINDOWS
    ],
    "may-svg": [f"may --p {p} --n 1 --window -1:1:-2:2 --svg" for p in (3, 5, 7)],
    "segal": [f"segal --p {p} --n-max 2 --window -1:0:-2:2 --s-max 2" for p in (3, 5, 7)],
    "error": [
        "mk --p 4",
        "pi-hfp --p 9",
        "ext --p 3 --beta 3",
        "ext --p 3 --window 2:1:0:0",
        "segal --p 3 --window -2:2:-2:2",
    ],
}

# the smoke stream takes one query from each cheap pool
SMOKE_DESK = ("pi-hfp", "mk", "check", "ext", "may-svg", "error")


def desk_stream(rng: random.Random, pools=tuple(DESK_POOLS), slots=DESK_SLOTS) -> list[list[str]]:
    picks = []
    for name in pools:
        pool = DESK_POOLS[name]
        order = rng.sample(pool, len(pool))
        picks += [order[i % len(order)] for i in range(slots)]
    rng.shuffle(picks)
    return [_argv(text) for text in picks]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (p, n) pairs whose truncated_hopf, descent_algebroid and may_e1 a run
    # builds before its first query
    setup: tuple[tuple[int, int], ...]
    queries: Callable[[random.Random], list[list[str]]]
    smoke: Callable[[random.Random], list[list[str]]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "segal-p3",
            "The headline a-inversion verdict: the May page engine is most of it and "
            "the enumerator and cobar barely appear, so enumerator changes should not move it.",
            ((3, 1), (3, 2), (3, 3)),
            lambda rng: [SEGAL],
            lambda rng: [SMOKE_SEGAL],
        ),
        Workload(
            "ext-resolution-p3n2",
            "Resolution-route Ext with labels: the monomial enumerator does most of the "
            "work over thousands of tiny fp problems, and the May pages are absent.",
            ((3, 2),),
            lambda rng: [EXT_RESOLUTION],
            lambda rng: [SMOKE_EXT_RESOLUTION],
        ),
        Workload(
            "cobar-crosscheck-p3n2",
            "The only load on the literal cobar build, tensor normalisation and the d-square "
            "check, and it keeps the two-route Ext cross-check running.",
            ((3, 2),),
            lambda rng: crosscheck_pair(CROSSCHECK),
            lambda rng: crosscheck_pair(SMOKE_CROSSCHECK),
        ),
        Workload(
            "desk-mix",
            "A seeded stream of small queries over every command and the error path, cold "
            "per-query state and some dense p=7 ranks: a cost to small queries shows here.",
            ((3, 1), (5, 1), (7, 1)),
            desk_stream,
            lambda rng: desk_stream(rng, SMOKE_DESK, slots=1),
        ),
    )
}


def every_query() -> list[list[str]]:
    """Every distinct argv any workload can send, smoke runs included."""
    out = [SEGAL, EXT_RESOLUTION, SMOKE_SEGAL, SMOKE_EXT_RESOLUTION]
    out += crosscheck_pair(CROSSCHECK) + crosscheck_pair(SMOKE_CROSSCHECK)
    out += [_argv(text) for pool in DESK_POOLS.values() for text in pool]
    return out
