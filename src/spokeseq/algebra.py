"""Finitely presented graded-commutative F_p-algebras.

A presentation is an ordered list of generators, each polynomial,
invertible-polynomial, exterior, or truncated-polynomial.  Monomials are
exponent tuples over that list; elements are homogeneous F_p-linear
combinations of monomials.  Exterior generators sit in odd integer degree
(odd m), everything else in even m, and the commutation sign of two
monomials only counts transpositions of exterior factors.

``Element`` works over any ring of hashable monomial keys that provides
``p``, ``lanes_of``, ``unit_monomial``, ``mul_monomials`` and
``format_monomial``, and a ``GradedMap`` into it reads ``is_unit_monomial``
and ``unit_inverse`` too: a ``Presentation``, or a tensor power
(``hopf.TensorContext``) whose keys are tuples of slot monomials.
``lanes_of`` gives a key's degree as a pair (m, n), so the homogeneity
check compares int pairs: a ``Presentation`` memoises each monomial's
``SpokeDegree``, which an element keeps, and a tensor power sums its slots'.
"""

from __future__ import annotations

from itertools import count
from operator import add
from typing import Callable, Mapping, NamedTuple, Sequence

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


class _GeneratorSpec(NamedTuple):
    name: str
    degree: SpokeDegree
    kind: str
    bound: int | None  # x^bound = 0: trunc, and 2 for ext


class GeneratorSpec(_GeneratorSpec):
    """One generator: its name, degree and kind, and ``bound`` when x^bound = 0.

    The bound is the one exponent range every enumeration reads: a
    truncated generator is given one, and an exterior generator has bound 2
    (x^2 = 0), set here when it is given none.  Polynomial and invertible
    generators have none.  The kind still decides parity, the Koszul sign,
    invertibility and the resolution strands.
    """

    __slots__ = ()

    def __new__(cls, name: str, degree: SpokeDegree, kind: str, bound: int | None = None):
        if kind not in (POLY, INV, EXT, TRUNC):
            raise ConfigError(f"unknown generator kind {kind!r}")
        if kind == EXT and bound is None:
            bound = 2
        if kind == TRUNC and (bound is None or bound < 1):
            raise ConfigError(f"truncated generator {name} needs bound >= 1")
        if kind != TRUNC and bound != (2 if kind == EXT else None):
            raise ConfigError(f"generator {name}: bound only valid for trunc, and 2 for ext")
        odd = degree.koszul_parity == 1
        if kind == EXT and not odd:
            raise ConfigError(f"exterior generator {name} must have odd parity, degree {degree}")
        if kind != EXT and odd:
            raise ConfigError(
                f"generator {name} of kind {kind} must have even parity, degree {degree}"
            )
        if degree == SpokeDegree(0, 0):
            raise ConfigError(f"generator {name} may not sit in degree 0+0@")
        return super().__new__(cls, name, degree, kind, bound)


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
        self._bounded = tuple((i, b) for i, b in enumerate(self.bounds) if b)
        # lanes_of answers per monomial
        self._lanes_memo: dict[Monomial, SpokeDegree] = {}
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
            if g.kind != INV and (e < 0 or g.bound and e >= g.bound):
                raise ConfigError(f"{g.kind} {g.name} exponent {e} not in [0,{g.bound})")

    def lanes_of(self, mono: Monomial) -> SpokeDegree:
        """The degree of a monomial, memoised per monomial."""
        lanes = self._lanes_memo.get(mono)
        if lanes is None:
            m = n = 0
            for e, (dm, dn) in zip(mono, self.degrees):
                if e:
                    m += e * dm
                    n += e * dn
            lanes = self._lanes_memo[mono] = SpokeDegree(m, n)
        return lanes

    def parity_of(self, mono: Monomial) -> int:
        return sum(mono[i] for i in self._ext) & 1

    def is_unit_monomial(self, mono: Monomial) -> bool:
        """True iff the monomial is invertible (only inv generators occur)."""
        return all(e == 0 or k == INV for e, k in zip(mono, self.kinds))

    def is_nilpotent_monomial(self, mono: Monomial) -> bool:
        """True iff the monomial has a truncated or exterior factor."""
        return any(mono[i] for i, _ in self._bounded)

    def unit_inverse(self, mono: Monomial) -> Monomial:
        """The inverse of an invertible monomial."""
        return tuple(-e for e in mono)

    def mul_monomials(self, a: Monomial, b: Monomial) -> tuple[Monomial | None, int]:
        """(product, sign); product None when it vanishes (an exponent reaches
        its generator's bound: an ext square, a trunc overflow).

        The sign counts the exterior pairs that change order, a factor of a
        after a factor of b, in one pass over the exterior generators."""
        out = tuple(map(add, a, b))
        for i, bound in self._bounded:
            if out[i] >= bound:
                return None, 0
        inversions = seen_b = 0  # seen_b: exterior factors of b so far
        for i in self._ext:
            if a[i]:
                inversions += seen_b
            if b[i]:
                seen_b += 1
        return out, -1 if inversions & 1 else 1

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
        p = ring.p
        lanes_of = ring.lanes_of
        clean = {}
        lanes: tuple[int, int] | None = None
        for mono, c in coeffs.items():
            c %= p
            if not c:
                continue
            d = lanes_of(mono)
            if lanes is None:
                lanes = d
            elif d != lanes:
                raise HomogeneityError(
                    f"mixing degrees {SpokeDegree(*lanes)} and {SpokeDegree(*d)} "
                    "in one element"
                )
            clean[mono] = c
        # a presentation's lanes are a SpokeDegree already, a tensor power's a pair
        self.degree = SpokeDegree(*lanes) if type(lanes) is tuple else lanes
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
        one = Element.one(target)
        # apply_monomial answers per monomial, and every prefix it passes
        self._mono_cache: dict[Monomial, Element] = {source.unit_monomial(): one}
        # _generator_power answers per (generator, exponent), and per (generator,
        # sign) the powers it reads: of c*u, or of its inverse, and of rest
        self._pow_cache: dict[tuple[str, int], Element] = {}
        self._series: dict[tuple[str, int], tuple[list[Element], list[Element]]] = {}
        for name, kind, want in zip(source.names, source.kinds, source.degrees):
            if name not in self.images:
                raise ConfigError(f"map missing image of generator {name!r}")
            img = self.images[name]
            if img.degree is not None and img.degree != want:
                raise HomogeneityError(
                    f"image of {name} has degree {img.degree}, generator has {want}"
                )
            units = [mono for mono in img.coeffs if target.is_unit_monomial(mono)]
            if kind == INV and len(units) != 1:
                raise InvertibilityError(
                    f"image of invertible generator {name} has {len(units)} unit terms, not 1"
                )
            # c*u is an invertible generator's one unit term, else the first term
            rest = dict(img.coeffs)
            u = units[0] if kind == INV else next(iter(rest), None)
            cu = {u: rest.pop(u)} if rest else {}
            if kind == INV and not all(map(target.is_nilpotent_monomial, rest)):
                raise InvertibilityError(
                    f"image of invertible generator {name} has a non-unit term with no "
                    "truncated or exterior factor, so it has no inverse"
                )
            rests = [one, Element(target, rest)]
            self._series[name, 1] = [one, Element(target, cu)], rests
            if kind == INV:
                inverse = {target.unit_inverse(u): pow(cu[u], -1, target.p)}
                self._series[name, -1] = [one, Element(target, inverse)], rests

    def _generator_power(self, name: str, e: int) -> Element:
        """The e-th power (e != 0) of a generator's image c*u + rest, as the
        binomial series sum_k C(e, k) (c*u)^(e-k) rest^k.

        Only an even generator takes a power other than the first, and the
        terms of its image commute, so the series holds.  It runs over k <= e
        for e > 0, and for e < 0 until rest^k = 0 (__init__ checks u a unit and
        rest nilpotent: each term has a truncated or exterior factor).
        C(e, k + 1) = C(e, k) (e - k) / (k + 1) is exact, then taken mod p."""
        out = self._pow_cache.get((name, e))
        if out is not None:
            return out
        mul = self.target.mul_monomials
        sign = 1 if e > 0 else -1
        cu_pows, rest_pows = self._series[name, sign]
        acc: dict = {}
        binom = 1
        for k in range(e + 1) if e > 0 else count():
            while len(rest_pows) <= k:
                rest_pows.append(rest_pows[-1] * rest_pows[1])
            if rest_pows[k].is_zero():
                break
            j = abs(e) - sign * k  # (c*u)^(e-k) is cu_pows[j], one term or none
            while len(cu_pows) <= j:
                cu_pows.append(cu_pows[-1] * cu_pows[1])
            c_k = binom % self.target.p
            for u_mono, cu in cu_pows[j].coeffs.items() if c_k else ():
                for key, c in rest_pows[k].coeffs.items():
                    mono, s = mul(u_mono, key)
                    if mono is not None:
                        acc[mono] = acc.get(mono, 0) + s * c_k * cu * c
            binom = binom * (e - k) // (k + 1)
        out = self._pow_cache[name, e] = Element(self.target, acc)
        return out

    def apply_monomial(self, mono: Monomial) -> Element:
        """The image one * g1^e1 * g2^e2 * ..., multiplied in generator order.

        A new monomial walks down to a cached prefix, dropping its last
        generator each step, then multiplies back up by that generator's
        power, caching each product."""
        cache = self._mono_cache
        out = cache.get(mono)
        if out is not None:
            return out
        steps = []
        while mono not in cache:
            last = max(i for i, e in enumerate(mono) if e)
            steps.append((mono, last))
            mono = mono[:last] + (0,) + mono[last + 1 :]
        out = cache[mono]
        names = self.source.names
        for mono, last in reversed(steps):
            out = cache[mono] = out * self._generator_power(names[last], mono[last])
        return out

    def apply(self, elt: Element) -> Element:
        acc: dict = {}
        for mono, c in elt.coeffs.items():
            for key, c2 in self.apply_monomial(mono).coeffs.items():
                acc[key] = acc.get(key, 0) + c * c2
        return Element(self.target, acc)


# ---------------------------------------------------------------------------
# per-degree monomial enumeration


def monomials_in_degree(pres: Presentation, degree: SpokeDegree) -> tuple[Monomial, ...]:
    """All monomials of the given degree, exponent-lex ordered.

    Completeness is certified by a shape analysis of ``pres`` (``_plan``).
    A generator with a bound (exterior: 2, truncated: its own) has a finite
    exponent range; a polynomial generator that needs a bound is declared
    truncated.  What remains must be solvable exactly:

    * invertible generators are solved by linear algebra at the leaves
      (at most two, with independent degrees);
    * polynomial generators are enumerated with budget pruning, which
      requires a positive functional on their degrees that kills the
      invertible ones.  The last of them is not looped over but solved at
      the leaf, jointly with the invertible ones.

    The analysis (classification, validation, the functional, the loop
    order and the leaf determinant) runs once per presentation, on its
    first call, and is kept on ``pres``.  Per degree only the frontier loop
    and the leaf solves run, so a module of the shape F_p[a, ul^{+-1}]<us>
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
    the function that lists the monomials of degree m + n@, sorted.

    That function extends a frontier of partial exponent vectors by one
    generator per step: every generator with a bound, over its exponent
    range, then every free polynomial generator but the last.  One leaf
    solve per frontier entry fills in the rest.

    * Bound.  A looped free generator g has a functional L that is positive
      on g and nonnegative on every free generator looped after it, so the
      remaining degree r leaves room for e <= L(r) // L(g), and for none
      when L(r) < 0.  With an invertible generator w, L(d) = +-(w.n d.m -
      w.m d.n), which vanishes on w.  Without one, L = m for g with m > 0
      and L = sign * n for g with m = 0; these share the sign of n and are
      looped last.
    * Leaf.  The last free generator and the invertible ones are at most
      two unknowns with independent degrees: two are a Cramer solve, one a
      division, and none require r = 0.  Floor division gives the only
      candidate, substituting it back accepts exactly the integral one,
      and the last free exponent must be >= 0.
    """
    bounded = [i for i, g in enumerate(pres.generators) if g.bound is not None]
    inv = [i for i, kind in enumerate(pres.kinds) if kind == INV]
    free_poly = [i for i, kind in enumerate(pres.kinds) if kind == POLY]
    deg = pres.degrees

    if len(inv) > 2:
        raise WindowIncompleteError("more than two invertible generators")
    if len(inv) == 2:
        (wm, wn), (vm, vn) = deg[inv[0]], deg[inv[1]]
        if wm * vn - wn * vm == 0:
            raise WindowIncompleteError("invertible generators with dependent degrees")
        if free_poly:
            raise WindowIncompleteError(
                "polynomial generators alongside a rank-2 invertible lattice"
            )

    # the functional (L(m), L(n)) of each free generator
    if inv:
        wm, wn = deg[inv[0]]
        values = [wn * deg[i][0] - wm * deg[i][1] for i in free_poly]  # L(w) = 0
        if 0 in values:
            raise WindowIncompleteError(
                "free polynomial generator parallel to an invertible one"
            )
        if len({v > 0 for v in values}) > 1:
            raise WindowIncompleteError(
                "free polynomial generators on both sides of the invertible line"
            )
        sign = 1 if values and values[0] > 0 else -1
        functional = {i: (sign * wn, -sign * wm) for i in free_poly}
    else:
        for i in free_poly:
            if deg[i][0] < 0:
                raise WindowIncompleteError(
                    f"cannot bound generator {pres.names[i]} with negative m"
                )
        if len({deg[i][1] > 0 for i in free_poly if deg[i][0] == 0}) > 1:
            raise WindowIncompleteError(
                "unbounded m=0 generators with opposite spoke signs"
            )
        functional = {
            i: (1, 0) if deg[i][0] else (0, 1 if deg[i][1] > 0 else -1)
            for i in free_poly
        }

    # free gens with larger |m| first prunes fastest (and puts m = 0 last);
    # the last one is solved
    free_order = sorted(free_poly, key=lambda i: -abs(deg[i][0]))
    last = free_order.pop() if free_order else None

    # with no invertible generators every generator has m >= 0 (validated
    # above for the free ones; enforce for pruning only when true of all)
    can_prune_m = not inv and all(deg[i][0] >= 0 for i in bounded)

    finite_steps = [(i, range(pres.bounds[i]), *deg[i]) for i in bounded]
    free_steps = []
    for i in free_order:
        (gm, gn), (lm, ln) = deg[i], functional[i]
        free_steps.append((i, gm, gn, lm, ln, lm * gm + ln * gn))
    # the leaf's unknowns, the last free generator first, and their degrees
    # u and v, (0, 0) where there is no unknown; det != 0 for two (validated)
    leaf = ([last] if last is not None else []) + inv
    (um, un), (vm, vn) = ([deg[i] for i in leaf] + [(0, 0), (0, 0)])[:2]
    det = um * vn - un * vm
    n_leaf = len(leaf)

    def enumerate_degree(m: int, n: int) -> tuple[Monomial, ...]:
        # each partial is (exponents so far, the degree still to fill)
        frontier = [((0,) * len(deg), m, n)]
        for i, rng, gm, gn in finite_steps:
            frontier = [
                (exps[:i] + (e,) + exps[i + 1 :], rm - e * gm, rn - e * gn)
                for exps, rm, rn in frontier
                for e in rng
                if not (can_prune_m and rm - e * gm < 0)
            ]
        for i, gm, gn, lm, ln, lg in free_steps:
            # lg > 0, so a budget below 0 gives an empty range
            frontier = [
                (exps[:i] + (e,) + exps[i + 1 :], rm - e * gm, rn - e * gn)
                for exps, rm, rn in frontier
                for e in range((lm * rm + ln * rn) // lg + 1)
            ]
        results: list[Monomial] = []
        for exps, rm, rn in frontier:
            # x u + y v = r
            if n_leaf == 2:
                x, y = (rm * vn - rn * vm) // det, (um * rn - un * rm) // det
            elif n_leaf:
                x, y = rm // um if um else rn // un, 0
            else:
                x = y = 0
            if x * um + y * vm != rm or x * un + y * vn != rn:
                continue
            if last is not None and x < 0:
                continue
            mono = list(exps)
            for i, e in zip(leaf, (x, y)):
                mono[i] = e
            results.append(tuple(mono))
        results.sort()
        return tuple(results)

    return enumerate_degree
