"""Closed-form spoke-graded homotopy of the constant mod-p Eilenberg-MacLane
object: positive cone, a-power-torsion negative cone, and the localized /
completed variants, with their multiplication.

Positive cone: F_p[a, ul]<us> with |a| = (0,-1), |ul| = (2,-2), |us| = (1,-1).
Negative cone: one F_p per triple (eps, j, k), eps in {0,1}, j,k >= 1,
labelled S^-1 * us^eps * ul^-j * a^-k.  Writing theta for the class with
(eps, j, k) = (1, 1, 1), the negative cone is {theta/x : x in positive cone}
and multiplication is division of labels: g * (theta/x) = theta/(x/g) when g
divides x, else 0.  Products of two negative-cone classes are set to zero
(no target classes exist in the relevant degrees).
"""

from __future__ import annotations

from enum import Enum
from functools import cache
from typing import NamedTuple

from .algebra import EXT, INV, POLY, GeneratorSpec, Monomial, Presentation, monomials_in_degree
from .errors import ConfigError
from .grading import SpokeDegree

D = SpokeDegree


class HfpVariant(Enum):
    FULL = "full"
    A_FREE = "a_free"
    A_INVERTED = "a_inverted"
    A_COMPLETED_INVERTED = "a_completed_inverted"
    SPOKE_SUSPENSION = "spoke_suspension"


def positive_cone(p: int, a_kind: str = POLY, ul_kind: str = POLY) -> Presentation:
    """The coefficient generators a, ul, us, in this order; every ring built
    on them (the descent algebroid, the truncated Hopf algebra's comodule,
    the first May page) starts with this presentation's generators."""
    return Presentation(
        p,
        [
            GeneratorSpec("a", D(0, -1), a_kind),
            GeneratorSpec("ul", D(2, -2), ul_kind),
            GeneratorSpec("us", D(1, -1), EXT),
        ],
    )


@cache
def variant_presentation(p: int, variant: HfpVariant) -> Presentation:
    """The positive-cone presentation of a variant, built once per (p, variant)
    so that every degree of a table shares its enumerator memo."""
    if variant in (HfpVariant.FULL, HfpVariant.A_FREE, HfpVariant.SPOKE_SUSPENSION):
        return positive_cone(p)
    if variant == HfpVariant.A_INVERTED:
        return positive_cone(p, a_kind=INV)
    if variant == HfpVariant.A_COMPLETED_INVERTED:
        return positive_cone(p, a_kind=INV, ul_kind=INV)
    raise ConfigError(f"unknown variant {variant}")


class PosClass(NamedTuple):
    """Monomial a^i * ul^j * us^eps of the positive cone."""

    a: int
    ul: int
    us: int

    @property
    def degree(self) -> SpokeDegree:
        return D(0, -1) * self.a + D(2, -2) * self.ul + D(1, -1) * self.us


class _NegClass(NamedTuple):
    eps: int
    j: int
    k: int


class NegClass(_NegClass):
    """S^-1 * us^eps * ul^-j * a^-k with eps in {0,1}, j, k >= 1."""

    __slots__ = ()

    def __new__(cls, eps: int, j: int, k: int):
        self = super().__new__(cls, eps, j, k)
        if eps not in (0, 1) or j < 1 or k < 1:
            raise ConfigError(f"bad negative-cone label {self!r}")
        return self

    @property
    def degree(self) -> SpokeDegree:
        return (
            D(-1, 0)
            + D(1, -1) * self.eps
            + D(-2, 2) * self.j
            + D(0, 1) * self.k
        )

    def label(self) -> str:
        parts = ["S^-1"]
        if self.eps:
            parts.append("us")
        parts.append(f"ul^-{self.j}")
        parts.append(f"a^-{self.k}")
        return "*".join(parts)

    def as_theta_fraction(self) -> PosClass:
        """The x with self = theta/x."""
        return PosClass(a=self.k - 1, ul=self.j - 1, us=1 - self.eps)


THETA = NegClass(eps=1, j=1, k=1)  # degree (lambda - 2) = (-2, 2)


def negative_basis_in_degree(d: SpokeDegree) -> list[NegClass]:
    """Solve for (eps, j, k); at most one solution per degree."""
    eps = (d.m + 1) % 2
    j2 = eps - 1 - d.m
    if j2 % 2:
        return []
    j = j2 // 2
    k = d.n + eps - 2 * j
    if j >= 1 and k >= 1:
        return [NegClass(eps, j, k)]
    return []


def basis_in_degree(p: int, variant: HfpVariant, d: SpokeDegree) -> list[str]:
    """Complete basis labels of the variant in one degree."""
    if variant != HfpVariant.SPOKE_SUSPENSION:
        return _presented_basis(p, variant, d)
    main = [f"{lab}*1s" for lab in _presented_basis(p, HfpVariant.FULL, d - D(0, 1))]
    tilde = []
    # F_p[ul^{+-1}]{1t_i}: degree j*(2,-2) + (0,1)
    if d.m % 2 == 0 and d.n == 1 - d.m:
        j = d.m // 2
        ul_part = "" if j == 0 else ("ul*" if j == 1 else f"ul^{j}*")
        tilde = [f"{ul_part}1t{i}" for i in range(1, p - 1)]
    return main + tilde


def _presented_basis(p: int, variant: HfpVariant, d: SpokeDegree) -> list[str]:
    """Basis labels of a variant with a presentation: its monomials, and for
    the full variant the negative classes too."""
    pres = variant_presentation(p, variant)
    labels = [pres.format_monomial(m) for m in monomials_in_degree(pres, d)]
    if variant == HfpVariant.FULL:
        labels += [c.label() for c in negative_basis_in_degree(d)]
    return labels


def multiply_full(x, y):
    """Product of two full-variant classes; returns a class or None (= zero).

    All structure constants are +1: the unit ambiguity in kappa = a*us is
    fixed to 1, and negative x negative products are 0 by decision.
    """
    if isinstance(x, NegClass) and isinstance(y, NegClass):
        return None
    if isinstance(x, PosClass) and isinstance(y, PosClass):
        if x.us and y.us:
            return None
        return PosClass(x.a + y.a, x.ul + y.ul, x.us + y.us)
    pos, neg = (x, y) if isinstance(x, PosClass) else (y, x)
    frac = neg.as_theta_fraction()
    rem = PosClass(frac.a - pos.a, frac.ul - pos.ul, frac.us - pos.us)
    if rem.a < 0 or rem.ul < 0 or rem.us < 0:
        return None
    return NegClass(eps=1 - rem.us, j=rem.ul + 1, k=rem.a + 1)


def a_torsion_order(neg: NegClass) -> int:
    """Smallest t with a^t * neg = 0; equals the a-exponent k of the label."""
    t = 0
    current = neg
    while current is not None:
        current = multiply_full(PosClass(1, 0, 0), current)
        t += 1
    return t
