"""The bigraded degree lattice m + n@ and the tri-grading of spectral sequences.

A degree is a pair (m, n): m counts integer suspensions, n counts spoke
suspensions.  Two spokes make one rotation plane, so the plane degree is
(0, 2) and the spoke degree is (0, 1); a degree written as V - spoke is
always reduced to (m, n) coordinates.

Text syntax (used by the CLI and all reports): ``m+n@`` with signed
integers, e.g. ``2-2@`` for (2, -2); tri-degrees print as ``m+n@|s|f``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import ConfigError, WindowError

_DEGREE_RE = re.compile(r"^([+-]?\d+)([+-]\d+)@$")
_WINDOW_PART_RE = re.compile(r"[+-]?[0-9]+")


class SpokeDegree(NamedTuple):
    """Element m + n@ of the free rank-2 grading group.

    A tuple (m, n): hashing, equality and the (m, n) order are the tuple's.
    Addition, subtraction and scaling are componentwise, not the tuple's
    concatenation and repetition."""

    m: int
    n: int

    def __add__(self, other: "SpokeDegree") -> "SpokeDegree":
        return SpokeDegree(self.m + other.m, self.n + other.n)

    def __sub__(self, other: "SpokeDegree") -> "SpokeDegree":
        return SpokeDegree(self.m - other.m, self.n - other.n)

    def __mul__(self, k: int) -> "SpokeDegree":
        return SpokeDegree(self.m * k, self.n * k)

    __rmul__ = __mul__

    @property
    def virtual_dim(self) -> int:
        """Underlying (virtual) dimension m + n; a group homomorphism to Z."""
        return self.m + self.n

    @property
    def koszul_parity(self) -> int:
        """Sign parity used for graded commutation: the parity of m.

        The spoke coordinate never contributes a sign (an odd-order cyclic
        group acts on its rotation plane through rotations, which are
        homotopic to the identity), so only integer suspensions do.  Under
        this parity every polynomial generator in the engine is even and
        every exterior one odd.
        """
        return self.m & 1

    def format(self) -> str:
        return f"{self.m}{self.n:+d}@"

    @staticmethod
    def parse(text: str) -> "SpokeDegree":
        match = _DEGREE_RE.match(text.strip())
        if not match:
            raise ConfigError(f"bad degree syntax {text!r}; expected like '2-2@'")
        return SpokeDegree(int(match.group(1)), int(match.group(2)))

    def __str__(self) -> str:
        return self.format()


class TriDegree(NamedTuple):
    """(total degree, cohomological degree s, filtration f).

    The internal degree is total + (s, 0); differentials of every complex in
    the engine preserve it, so a page-r differential moves (total, s, f) by
    exactly (-(1,0), +1, +r): mayss.turn_page looks for its target cell
    there, and the arrows it records obey this rule.
    """

    total: SpokeDegree
    s: int
    f: int

    def format(self) -> str:
        return f"{self.total.format()}|{self.s}|{self.f}"

    @staticmethod
    def parse(text: str) -> "TriDegree":
        parts = text.strip().split("|")
        if len(parts) != 3:
            raise ConfigError(f"bad tri-degree syntax {text!r}; expected 'm+n@|s|f'")
        return TriDegree(SpokeDegree.parse(parts[0]), int(parts[1]), int(parts[2]))


class _DegreeWindow(NamedTuple):
    m_min: int
    m_max: int
    n_min: int
    n_max: int
    s_max: int


class DegreeWindow(_DegreeWindow):
    """Rectangle of total degrees plus a cohomological cap."""

    __slots__ = ()

    def __new__(cls, m_min: int, m_max: int, n_min: int, n_max: int, s_max: int):
        if m_min > m_max or n_min > n_max:
            raise WindowError(f"empty window m:[{m_min},{m_max}] n:[{n_min},{n_max}]")
        if s_max < 0:
            raise WindowError(f"negative s_max {s_max}")
        return super().__new__(cls, m_min, m_max, n_min, n_max, s_max)

    def contains(self, d: SpokeDegree) -> bool:
        return self.m_min <= d.m <= self.m_max and self.n_min <= d.n <= self.n_max

    def degrees(self) -> list[SpokeDegree]:
        """All lattice points, lexicographic in (m, n)."""
        return [
            SpokeDegree(m, n)
            for m in range(self.m_min, self.m_max + 1)
            for n in range(self.n_min, self.n_max + 1)
        ]

    def format(self) -> str:
        return f"{self.m_min}:{self.m_max}:{self.n_min}:{self.n_max}"

    @staticmethod
    def parse(text: str, s_max: int) -> "DegreeWindow":
        """Four ':'-separated ASCII integers [+-]?[0-9]+.  Other spellings
        that int() would take (digit separators, other scripts' digits,
        inner spaces) are a ConfigError."""
        parts = text.strip().split(":")
        if len(parts) != 4 or not all(_WINDOW_PART_RE.fullmatch(p) for p in parts):
            raise ConfigError(f"bad window syntax {text!r}; expected 'm0:m1:n0:n1'")
        return DegreeWindow(*map(int, parts), s_max)
