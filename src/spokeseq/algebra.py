"""Finitely presented graded-commutative F_p-algebras.

A presentation is an ordered list of generators, each polynomial,
invertible-polynomial, exterior, or truncated-polynomial.  Monomials are
exponent tuples over that list; elements are homogeneous F_p-linear
combinations of monomials.  Exterior generators sit in odd integer degree
(odd m), everything else in even m, and the commutation sign of two
monomials only counts transpositions of exterior factors.

``Element`` works over any ring of hashable monomial keys that provides
``p``, ``degree_of``, ``unit_monomial``, ``is_unit_monomial``,
``unit_inverse``, ``mul_monomials`` and ``format_monomial``: a
``Presentation``, or a tensor power (``hopf.TensorContext``) whose keys are
tuples of slot monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import (
    ConfigError,
    HomogeneityError,
    InvertibilityError,
    WindowIncompleteError,
)
from .grading import SpokeDegree

Monomial = tuple[int, ...]

POLY = "poly"
INV = "inv"
EXT = "ext"
TRUNC = "trunc"


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    degree: SpokeDegree
    kind: str
    bound: int | None = None  # x^bound = 0, for kind == trunc

    def __post_init__(self):
        if self.kind not in (POLY, INV, EXT, TRUNC):
            raise ConfigError(f"unknown generator kind {self.kind!r}")
        if self.kind == TRUNC and (self.bound is None or self.bound < 1):
            raise ConfigError(f"truncated generator {self.name} needs bound >= 1")
        if self.kind != TRUNC and self.bound is not None:
            raise ConfigError(f"generator {self.name}: bound only valid for trunc")
        odd = self.degree.koszul_parity == 1
        if self.kind == EXT and not odd:
            raise ConfigError(
                f"exterior generator {self.name} must have odd parity, degree {self.degree}"
            )
        if self.kind != EXT and odd:
            raise ConfigError(
                f"generator {self.name} of kind {self.kind} must have even parity, "
                f"degree {self.degree}"
            )
        if self.degree == SpokeDegree(0, 0):
            raise ConfigError(f"generator {self.name} may not sit in degree 0+0@")


class Presentation:
    """Ordered generator list with unique names."""

    def __init__(self, p: int, generators: Sequence[GeneratorSpec]):
        self.p = p
        self.generators = tuple(generators)
        self.names = tuple(g.name for g in self.generators)
        if len(set(self.names)) != len(self.names):
            raise ConfigError("generator names must be unique")
        self.index = {name: i for i, name in enumerate(self.names)}
        self.degrees = tuple(g.degree for g in self.generators)
        self.kinds = tuple(g.kind for g in self.generators)
        self.bounds = tuple(g.bound for g in self.generators)
        self._ext = tuple(i for i, g in enumerate(self.generators) if g.kind == EXT)
        # monomials_in_degree answers per (m, n), and the enumeration plan
        # (see _plan) that its first certified call builds
        self._monomial_memo: dict[tuple[int, int], tuple[Monomial, ...]] = {}
        self._plan: Callable[[int, int], tuple[Monomial, ...]] | None = None

    def __len__(self) -> int:
        return len(self.generators)

    def generator(self, name: str) -> GeneratorSpec:
        return self.generators[self.index[name]]

    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.generators)

    def monomial(self, **exponents: int) -> Monomial:
        exps = [0] * len(self.generators)
        for name, e in exponents.items():
            if name not in self.index:
                raise ConfigError(f"unknown generator {name!r}")
            exps[self.index[name]] = e
        mono = tuple(exps)
        self.check_monomial(mono)
        return mono

    def check_monomial(self, mono: Monomial) -> None:
        if len(mono) != len(self.generators):
            raise ConfigError("monomial length mismatch")
        for e, g in zip(mono, self.generators):
            if g.kind == EXT and e not in (0, 1):
                raise ConfigError(f"exterior {g.name} exponent {e}")
            if g.kind == TRUNC and not (0 <= e < g.bound):
                raise ConfigError(f"truncated {g.name} exponent {e} not in [0,{g.bound})")
            if g.kind == POLY and e < 0:
                raise ConfigError(f"polynomial {g.name} exponent {e} < 0")

    def degree_of(self, mono: Monomial) -> SpokeDegree:
        m = n = 0
        for e, d in zip(mono, self.degrees):
            if e:
                m += e * d.m
                n += e * d.n
        return SpokeDegree(m, n)

    def parity_of(self, mono: Monomial) -> int:
        return sum(mono[i] for i in self._ext) & 1

    def is_unit_monomial(self, mono: Monomial) -> bool:
        """True iff the monomial is invertible (only inv generators occur)."""
        return all(e == 0 or k == INV for e, k in zip(mono, self.kinds))

    def unit_inverse(self, mono: Monomial) -> Monomial:
        """The inverse of an invertible monomial."""
        return tuple(-e for e in mono)

    def mul_monomials(self, a: Monomial, b: Monomial) -> tuple[Monomial | None, int]:
        """(product, sign); product None when it vanishes (ext square, trunc overflow)."""
        out = []
        for ea, eb, g in zip(a, b, self.generators):
            e = ea + eb
            if g.kind == EXT and e > 1:
                return None, 0
            if g.kind == TRUNC and e >= g.bound:
                return None, 0
            out.append(e)
        sign = 1
        ext_a = [i for i in self._ext if a[i]]
        ext_b = [i for i in self._ext if b[i]]
        for i in ext_a:
            for j in ext_b:
                if i > j:
                    sign = -sign
        return tuple(out), sign

    def format_monomial(self, mono: Monomial) -> str:
        parts = []
        for name, e in zip(self.names, mono):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"


class Element:
    """Homogeneous linear combination of monomials of one ring.

    The ring is a ``Presentation`` or a ``hopf.TensorContext`` (see the
    module docstring).  ``degree`` is None exactly for the zero element.
    Inhomogeneous sums are rejected at construction: every object in this
    engine is graded, and a degree mismatch always means a structural bug
    upstream.
    """

    __slots__ = ("ring", "degree", "coeffs")

    def __init__(self, ring, coeffs: Mapping):
        self.ring = ring
        self.degree = None
        self.coeffs = {}
        clean = {}
        degree: SpokeDegree | None = None
        for mono, c in coeffs.items():
            c %= ring.p
            if not c:
                continue
            d = ring.degree_of(mono)
            if degree is None:
                degree = d
            elif d != degree:
                raise HomogeneityError(
                    f"mixing degrees {degree} and {d} in one element"
                )
            clean[mono] = c
        self.degree = degree
        self.coeffs = dict(sorted(clean.items()))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ring) -> "Element":
        return Element(ring, {})

    @staticmethod
    def one(ring) -> "Element":
        return Element(ring, {ring.unit_monomial(): 1})

    @staticmethod
    def from_monomial(pres: Presentation, mono: Monomial) -> "Element":
        pres.check_monomial(mono)
        return Element(pres, {mono: 1})

    @staticmethod
    def generator(pres: Presentation, name: str) -> "Element":
        return Element.from_monomial(pres, pres.monomial(**{name: 1}))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "Element") -> "Element":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        acc = dict(self.coeffs)
        for mono, c in other.coeffs.items():
            acc[mono] = acc.get(mono, 0) + c
        return Element(self.ring, acc)

    def scale(self, c: int) -> "Element":
        return Element(self.ring, {m: v * c for m, v in self.coeffs.items()})

    def __mul__(self, other: "Element") -> "Element":
        acc = {}
        ring = self.ring
        p = ring.p
        for ma, ca in self.coeffs.items():
            for mb, cb in other.coeffs.items():
                mono, sign = ring.mul_monomials(ma, mb)
                if mono is None:
                    continue
                acc[mono] = (acc.get(mono, 0) + sign * ca * cb) % p
        return Element(ring, acc)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for mono, c in self.coeffs.items():
            label = self.ring.format_monomial(mono)
            parts.append(label if c == 1 else f"{c}*{label}")
        return " + ".join(parts)


def invert(elt: Element) -> Element:
    """Inverse of a unit: one invertible term plus nilpotent terms.

    Writing elt = c*u + nu with u the one monomial the ring calls a unit,
    the inverse is u_inv * sum_k (-nu*u_inv)^k, and the series must
    terminate (nu nilpotent via truncation or exterior relations).
    """
    ring = elt.ring
    units = [(mono, c) for mono, c in elt.coeffs.items() if ring.is_unit_monomial(mono)]
    if len(units) != 1:
        raise InvertibilityError(
            f"element {elt!r} has {len(units)} invertible terms; need exactly 1"
        )
    ((mono, c),) = units
    u_inv = Element(ring, {ring.unit_inverse(mono): pow(c, ring.p - 2, ring.p)})
    one = Element.one(ring)
    # step = 1 - elt*u_inv = -nu*u_inv
    step = one + (elt * u_inv).scale(-1)
    total = power = one
    for _ in range(10_000):
        power = power * step
        if power.is_zero():
            return u_inv * total
        total = total + power
    raise InvertibilityError(f"geometric series for {elt!r} does not terminate")


class GradedMap:
    """Multiplicative map from a presentation to a ring, given on generators.

    The target is a ``Presentation`` or a ``hopf.TensorContext``, and the
    images are ``Element``s of it.  Every generator image must be
    homogeneous of the generator's own degree; this check is what catches
    wrong structure-map exponents immediately.
    """

    def __init__(self, source: Presentation, target, images: Mapping[str, Element]):
        self.source = source
        self.target = target
        self.images = dict(images)
        for name in source.names:
            if name not in self.images:
                raise ConfigError(f"map missing image of generator {name!r}")
            img = self.images[name]
            want = source.generator(name).degree
            got = img.degree
            if got is not None and got != want:
                raise HomogeneityError(
                    f"image of {name} has degree {got}, generator has {want}"
                )
        self._pow_cache: dict[tuple[str, int], Element] = {}
        self._mono_cache: dict[Monomial, Element] = {}

    def _generator_power(self, name: str, e: int) -> Element:
        """The e-th power (e != 0) of a generator's image by repeated
        squaring; a negative power squares the one inverse of the image."""
        key = (name, e)
        cached = self._pow_cache.get(key)
        if cached is not None:
            return cached
        if e == 1:
            out = self.images[name]
        elif e == -1:
            out = invert(self.images[name])
        else:
            sign = 1 if e > 0 else -1
            half = self._generator_power(name, sign * (abs(e) // 2))
            out = half * half
            if e & 1:
                out = out * self._generator_power(name, sign)
        self._pow_cache[key] = out
        return out

    def apply_monomial(self, mono: Monomial) -> Element:
        cached = self._mono_cache.get(mono)
        if cached is not None:
            return cached
        out = Element.one(self.target)
        for name, e in zip(self.source.names, mono):
            if e:
                out = out * self._generator_power(name, e)
        self._mono_cache[mono] = out
        return out

    def apply(self, elt: Element) -> Element:
        out = Element.zero(self.target)
        for mono, c in elt.coeffs.items():
            out = out + self.apply_monomial(mono).scale(c)
        return out


# ---------------------------------------------------------------------------
# per-degree monomial enumeration


def monomials_in_degree(pres: Presentation, degree: SpokeDegree) -> tuple[Monomial, ...]:
    """All monomials of the given degree, exponent-lex ordered.

    Completeness is certified by a shape analysis of ``pres`` (``_plan``).
    Exterior and truncated generators have finite exponent ranges (a
    polynomial generator that needs a bound is declared truncated).  What
    remains must be solvable exactly:

    * invertible generators are solved by linear algebra at the leaves
      (at most two, with independent degrees);
    * polynomial generators are enumerated with budget pruning, which
      requires a positive functional on their degrees that kills the
      invertible ones.  The last of them is not looped over but solved at
      the leaf: jointly with the invertible generator by a 2x2 integer
      (Cramer) solve, or by one division when there is none.

    The analysis (classification, validation, the functional, the loop
    order and the leaf determinant) runs once per presentation, on its
    first call, and is kept on ``pres``.  Per degree only the recursion and
    the leaf solves run, so a module of the shape F_p[a, ul^{+-1}]<us>
    costs O(output) per degree.

    A presentation outside those shapes raises WindowIncompleteError rather
    than silently returning a partial basis.  A failed analysis is not
    kept, so such a shape is checked again, and raises, on every call.

    Results are memoised on ``pres`` per degree, and the same tuple is
    returned to every caller, so it is immutable.
    """
    key = (degree.m, degree.n)
    hit = pres._monomial_memo.get(key)
    if hit is not None:
        return hit
    if pres._plan is None:
        pres._plan = _plan(pres)
    out = pres._monomial_memo[key] = pres._plan(*key)
    return out


def _plan(pres: Presentation) -> Callable[[int, int], tuple[Monomial, ...]]:
    """Check that the shape of ``pres`` enumerates completely, and return
    the function that lists the monomials of degree m + n@, sorted."""
    finite: list[tuple[int, range]] = []  # (gen index, exponent range)
    free_poly: list[int] = []
    inv: list[int] = []
    for i, g in enumerate(pres.generators):
        if g.kind == EXT:
            finite.append((i, range(2)))
        elif g.kind == TRUNC:
            finite.append((i, range(g.bound)))
        elif g.kind == INV:
            inv.append(i)
        else:
            free_poly.append(i)

    if len(inv) > 2:
        raise WindowIncompleteError("more than two invertible generators")
    if len(inv) == 2:
        w1, w2 = pres.degrees[inv[0]], pres.degrees[inv[1]]
        if w1.m * w2.n - w1.n * w2.m == 0:
            raise WindowIncompleteError("invertible generators with dependent degrees")
        if free_poly:
            raise WindowIncompleteError(
                "polynomial generators alongside a rank-2 invertible lattice"
            )

    # Functional L with L(invertible degrees) = 0, used to bound free
    # polynomial exponents; with no invertible generators L is unconstrained
    # and we use both coordinates, m first.
    if free_poly:
        if len(inv) == 0:
            # require m >= 0 on free gens; m = 0 gens must share the sign of n
            zero_m_signs = set()
            for i in free_poly:
                d = pres.degrees[i]
                if d.m < 0:
                    raise WindowIncompleteError(
                        f"cannot bound generator {pres.names[i]} with negative m"
                    )
                if d.m == 0:
                    zero_m_signs.add(1 if d.n > 0 else -1)
            if len(zero_m_signs) > 1:
                raise WindowIncompleteError(
                    "unbounded m=0 generators with opposite spoke signs"
                )
            functional = None
        else:
            w = pres.degrees[inv[0]]
            functional = (w.n, -w.m)  # L(d) = w.n*d.m - w.m*d.n, L(w) = 0
            values = []
            for i in free_poly:
                d = pres.degrees[i]
                values.append(functional[0] * d.m + functional[1] * d.n)
            if any(v == 0 for v in values):
                raise WindowIncompleteError(
                    "free polynomial generator parallel to an invertible one"
                )
            if len({1 if v > 0 else -1 for v in values}) > 1:
                raise WindowIncompleteError(
                    "free polynomial generators on both sides of the invertible line"
                )
            if values[0] < 0:
                functional = (-functional[0], -functional[1])

    # free gens with larger |m| first prunes fastest; the last one is solved
    free_order = sorted(free_poly, key=lambda i: -abs(pres.degrees[i].m))
    last = free_order.pop() if free_order else None

    # with no invertible generators every generator has m >= 0 (validated
    # above for the free ones; enforce for pruning only when true of all)
    can_prune_m = not inv and all(
        pres.degrees[i].m >= 0 for i, _ in finite
    )

    # the recursion below reads generator degrees as plain ints
    deg = [(d.m, d.n) for d in pres.degrees]
    finite_steps = [(i, rng, *deg[i]) for i, rng in finite]
    free_steps = [(i, *deg[i]) for i in free_order]
    dm, dn = deg[last] if last is not None else (0, 0)
    wm, wn = deg[inv[0]] if inv else (0, 0)
    vm, vn = deg[inv[1]] if len(inv) == 2 else (0, 0)
    # when the leaf solves two generators (last and the invertible one, or
    # both invertible ones) their degrees are independent, so det != 0; in
    # the first case det = L(last)
    det = dm * wn - dn * wm if last is not None else wm * vn - wn * vm

    def enumerate_degree(m: int, n: int) -> tuple[Monomial, ...]:
        results: list[Monomial] = []
        exps = [0] * len(deg)

        # Each leaf solves the remaining degree (rm, rn) in at most two
        # generators with independent degrees: floor division gives the only
        # candidate, and substituting it back accepts exactly the integral one.
        def solve_leaf(rm: int, rn: int) -> None:
            if last is not None and inv:
                # e*d + z*w = r, and e = L(r) / L(d) must be a nonnegative integer
                e = (rm * wn - rn * wm) // det
                z = (dm * rn - dn * rm) // det
                if e < 0 or e * dm + z * wm != rm or e * dn + z * wn != rn:
                    return
                exps[last], exps[inv[0]] = e, z
            elif last is not None:
                e = rm // dm if dm else rn // dn  # dm >= 0 and d != 0 (validated)
                if e < 0 or e * dm != rm or e * dn != rn:
                    return
                exps[last] = e
            elif len(inv) == 2:
                z1 = (rm * vn - rn * vm) // det
                z2 = (wm * rn - wn * rm) // det
                if z1 * wm + z2 * vm != rm or z1 * wn + z2 * vn != rn:
                    return
                exps[inv[0]], exps[inv[1]] = z1, z2
            elif inv:
                z = rm // wm if wm else rn // wn
                if z * wm != rm or z * wn != rn:
                    return
                exps[inv[0]] = z
            elif rm or rn:
                return
            results.append(tuple(exps))
            if last is not None:
                exps[last] = 0
            for i in inv:
                exps[i] = 0

        def enum_free(idx: int, rm: int, rn: int) -> None:
            if idx == len(free_steps):
                solve_leaf(rm, rn)
                return
            i, gm, gn = free_steps[idx]
            if len(inv) == 0:
                if gm > 0:
                    ub = rm // gm
                else:
                    if rn * gn < 0:
                        ub = 0
                    elif gn != 0:
                        ub = abs(rn) // abs(gn)
                    else:  # pragma: no cover - excluded at validation
                        ub = 0
            else:
                lv = functional[0] * gm + functional[1] * gn
                budget = functional[0] * rm + functional[1] * rn
                ub = budget // lv if budget >= 0 else -1
            for e in range(max(ub, -1) + 1):
                exps[i] = e
                enum_free(idx + 1, rm - e * gm, rn - e * gn)
            exps[i] = 0

        def enum_finite(idx: int, rm: int, rn: int) -> None:
            if can_prune_m and rm < 0:
                return
            if idx == len(finite_steps):
                enum_free(0, rm, rn)
                return
            i, rng, gm, gn = finite_steps[idx]
            for e in rng:
                if can_prune_m and gm > 0 and rm - e * gm < 0:
                    break
                exps[i] = e
                enum_finite(idx + 1, rm - e * gm, rn - e * gn)
            exps[i] = 0

        enum_finite(0, m, n)
        # the recursive closures hold their own cells; emptying the cells
        # breaks those cycles, so the closures die with this call
        del enum_free, enum_finite
        results.sort()
        return tuple(results)

    return enumerate_degree
