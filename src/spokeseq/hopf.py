"""Hopf algebroids, Hopf algebras and comodules, presented by generator images.

An algebroid is (A, G, eta_L, eta_R, Delta, epsilon) with A and G generator
presentations, eta_L the inclusion of a name-prefix, and the other structure
maps multiplicative maps given on generators.  A tensor power over A is a
``TensorContext``: a ring whose monomial keys are tuples of slot monomials,
so its elements are plain ``algebra.Element``s.  Keys are kept in a
canonical form: slot 0 holds an arbitrary monomial, later slots hold
monomials in the non-base generators only, and base material appearing in a
later slot is pushed one slot left through eta_R (the defining relation
x*a (x) y = x (x) a*y of the tensor product over A).  ``normalize`` brings raw
keys to that form and ``element`` wraps the result; a product of canonical
keys is canonical already.

The module also houses the Weyl-action matrix on the degree-2 generators of
the underlying ring and the free-summand count m_k, with both the binomial
formula and the Jordan-block rank oracle.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Mapping, Sequence

from . import fp
from .algebra import (
    EXT,
    INV,
    POLY,
    TRUNC,
    Element,
    GeneratorSpec,
    GradedMap,
    Monomial,
    Presentation,
    monomials_in_degree,
)
from .concurrency import deterministic_map
from .errors import BookkeepingError, ConfigError
from .fp import SparseMatFp, check_odd_prime, check_unit
from .grading import DegreeWindow, SpokeDegree
from .hfp import positive_cone

D = SpokeDegree

TensorKey = tuple[Monomial, ...]


class TensorContext:
    """k-fold tensor product of presentations over the algebroid base.

    A ring for ``algebra.Element`` with keys in canonical slot form.  It
    holds the algebroid's base, total ring and eta_R, not the algebroid, so
    the algebroid's cache of contexts is no reference cycle.
    """

    def __init__(
        self,
        slots: Sequence[Presentation],
        base: Presentation,
        total: Presentation,
        eta_R: GradedMap,
    ):
        if not slots:
            raise ConfigError("tensor context needs at least one slot")
        self.slots = tuple(slots)
        self.base = base
        self.total = total
        self.eta_R = eta_R
        self.p = slots[0].p
        # per slot, (base index, slot index) of each base generator the
        # slot's presentation has
        self._base_pairs = tuple(
            tuple(
                (bi, pres.index[name]) for bi, name in enumerate(base.names) if name in pres.index
            )
            for pres in self.slots
        )
        self._slot_lanes = tuple(pres.lanes_of for pres in self.slots)
        # the slots whose presentation has exterior generators, the only
        # ones a Koszul sign reads
        self._odd_slots = tuple(
            (i, pres) for i, pres in enumerate(self.slots) if EXT in pres.kinds
        )

    def push_left(self, slot: int, base_mono: Monomial) -> Element:
        """The right action of a base monomial on the given slot, as an
        element of that slot's presentation."""
        pres = self.slots[slot]
        if pres is self.total:
            # right action of the base on the total ring goes through eta_R
            return self.eta_R.apply_monomial(base_mono)
        # slot 0 of a comodule: right action through the named inclusion
        return Element.from_monomial(pres, _translate_monomial(self.base, base_mono, pres))

    # -- ring interface of algebra.Element ----------------------------------

    def lanes_of(self, key: TensorKey) -> tuple[int, int]:
        """The sum of the slot degrees, as the integer pair (m, n)."""
        m = n = 0
        for slot_lanes_of, mono in zip(self._slot_lanes, key):
            dm, dn = slot_lanes_of(mono)
            m += dm
            n += dn
        return m, n

    def unit_monomial(self) -> TensorKey:
        return tuple(pres.unit_monomial() for pres in self.slots)

    def is_unit_monomial(self, key: TensorKey) -> bool:
        return all(pres.is_unit_monomial(m) for pres, m in zip(self.slots, key))

    def is_nilpotent_monomial(self, key: TensorKey) -> bool:
        return any(pres.is_nilpotent_monomial(m) for pres, m in zip(self.slots, key))

    def unit_inverse(self, key: TensorKey) -> TensorKey:
        return tuple(pres.unit_inverse(m) for pres, m in zip(self.slots, key))

    def mul_monomials(self, ka: TensorKey, kb: TensorKey) -> tuple[TensorKey | None, int]:
        """Slot-wise product, with the sign of moving each factor of kb left
        past the later factors of ka; None when a slot product vanishes."""
        parts = []
        sign = 1
        for pres, ma, mb in zip(self.slots, ka, kb):
            prod, s = pres.mul_monomials(ma, mb)
            if prod is None:
                return None, 0
            sign *= s
            parts.append(prod)
        parity_b = 0  # parity of kb's factors before the current slot
        for i, pres in self._odd_slots:
            if parity_b and pres.parity_of(ka[i]):
                sign = -sign
            parity_b ^= pres.parity_of(kb[i])
        return tuple(parts), sign

    def format_monomial(self, key: TensorKey) -> str:
        return "[" + " (x) ".join(
            pres.format_monomial(m) for pres, m in zip(self.slots, key)
        ) + "]"

    # -- canonical form ------------------------------------------------------

    def _split_base(self, slot: int, mono: Monomial):
        """Split slot monomial into (base monomial, residue) or None if pure."""
        pairs = self._base_pairs[slot]
        if not any(mono[idx] for _, idx in pairs):
            return None
        base_exps = [0] * len(self.base)
        residue = list(mono)
        for bi, idx in pairs:
            base_exps[bi] = mono[idx]
            residue[idx] = 0
        return tuple(base_exps), tuple(residue)

    def normalize(self, raw: Mapping[TensorKey, int]) -> Mapping[TensorKey, int]:
        """raw, its keys brought to canonical slot form, as {key: coeff}.

        Coefficients are not reduced, and some may be 0 mod p.  Over a Hopf
        algebra (no base) raw is canonical already and comes back as is;
        ``element`` reduces it and checks that it is homogeneous."""
        if not self.base.names:
            # Hopf algebra over F_p: nothing to push, already canonical
            return raw
        out: dict[TensorKey, int] = {}
        stack = [(key, c) for key, c in raw.items()]
        while stack:
            key, c = stack.pop()
            if not c % self.p:
                continue
            for j in range(len(key) - 1, 0, -1):
                split = self._split_base(j, key[j])
                if split is None:
                    continue
                base_mono, residue = split
                image = self.push_left(j - 1, base_mono)
                if image.is_zero():
                    break
                for tgt_mono, c2 in image.coeffs.items():
                    prod, sign = self.slots[j - 1].mul_monomials(key[j - 1], tgt_mono)
                    if prod is None:
                        continue
                    new_key = key[: j - 1] + (prod, residue) + key[j + 1 :]
                    stack.append((new_key, c * c2 * sign))
                break
            else:
                out[key] = (out.get(key, 0) + c) % self.p
        return out

    def element(self, raw: Mapping[TensorKey, int]) -> Element:
        return Element(self, self.normalize(raw))


class HopfAlgebroid:
    """(A, G) with structure maps; A = F_p (no generators) for Hopf algebras."""

    __slots__ = (
        "p",
        "base",
        "total",
        "eta_R_images",
        "epsilon_images",
        "delta_images",
        "eta_L",
        "eta_R",
        "epsilon",
        "_tensor_cache",
        "tensor_square",
        "delta",
    )

    def __init__(
        self,
        p: int,
        base: Presentation,
        total: Presentation,
        eta_R_images: Mapping[str, Element],
        epsilon_images: Mapping[str, Element],
        delta_images: Mapping[str, Mapping[TensorKey, int]],
    ):
        if total.names[: len(base)] != base.names:
            raise ConfigError("base generators must be a name-prefix of the total ring")
        for bn in base.names:
            if base.generator(bn).degree != total.generator(bn).degree:
                raise ConfigError(f"generator {bn} changes degree between base and total")
        self.p = p
        self.base = base
        self.total = total
        self.eta_R_images = eta_R_images
        self.epsilon_images = epsilon_images
        self.delta_images = delta_images
        self.eta_L = GradedMap(
            self.base,
            self.total,
            {n: Element.generator(self.total, n) for n in self.base.names},
        )
        self.eta_R = GradedMap(self.base, self.total, self.eta_R_images)
        self.epsilon = GradedMap(self.total, self.base, self.epsilon_images)
        # tensor_power_of answers per tuple of slot presentations
        self._tensor_cache: dict[tuple[int, ...], TensorContext] = {}
        self.tensor_square = self.tensor_power_of([self.total, self.total])
        # delta images are raw {key: coeff} dicts; they need the tensor
        # context above, so the map is built last
        delta_elements = {
            name: self.tensor_square.element(raw)
            for name, raw in self.delta_images.items()
        }
        self.delta = (
            GradedMap(self.total, self.tensor_square, delta_elements)
            if len(self.total)
            else None
        )

    @property
    def is_hopf_algebra(self) -> bool:
        return len(self.base) == 0

    def tensor_power_of(self, slots: Sequence[Presentation]) -> TensorContext:
        key = tuple(id(s) for s in slots)
        ctx = self._tensor_cache.get(key)
        if ctx is None:
            ctx = self._tensor_cache[key] = TensorContext(
                slots, self.base, self.total, self.eta_R
            )
        return ctx


def _translate_monomial(src: Presentation, mono: Monomial, dst: Presentation) -> Monomial:
    exps = [0] * len(dst)
    for name, e in zip(src.names, mono):
        if e:
            exps[dst.index[name]] = e
    return tuple(exps)


class Comodule:
    """Comodule algebra (M, psi) over a Hopf algebroid.

    psi_images are raw {tensor key: coeff} dicts over slots (M, G).
    """

    __slots__ = ("algebroid", "module", "psi_images", "tensor", "psi")

    def __init__(
        self,
        algebroid: HopfAlgebroid,
        module: Presentation,
        psi_images: Mapping[str, Mapping[TensorKey, int]],
    ):
        self.algebroid = algebroid
        self.module = module
        self.psi_images = psi_images
        self.tensor = algebroid.tensor_power_of([module, algebroid.total])
        images = {name: self.tensor.element(raw) for name, raw in psi_images.items()}
        self.psi = GradedMap(module, self.tensor, images)


# ---------------------------------------------------------------------------
# slot operations of the axiom checks and the cobar complex (counit: 2-tensors only)


def splice_at(raw: dict[TensorKey, int], gmap: GradedMap, key: TensorKey, slot: int, c: int):
    """Add c * key, with gmap applied at the given slot, into raw {key: coeff}."""
    head, tail = key[:slot], key[slot + 1 :]
    for ikey, c2 in gmap.apply_monomial(key[slot]).coeffs.items():
        new_key = head + ikey + tail
        raw[new_key] = raw.get(new_key, 0) + c * c2


def apply_coproduct_at(H: HopfAlgebroid, elt: Element, slot: int, gmap: GradedMap) -> Element:
    """Insert gmap (Delta, or a comodule's psi at slot 0) at the given slot."""
    ctx = elt.ring
    out_ctx = H.tensor_power_of(ctx.slots[:slot] + gmap.target.slots + ctx.slots[slot + 1 :])
    raw: dict[TensorKey, int] = {}
    for key, c in elt.coeffs.items():
        splice_at(raw, gmap, key, slot, c)
    return out_ctx.element(raw)


def apply_counit_at(H: HopfAlgebroid, elt: Element, slot: int) -> Element:
    """Contract slot 0 or slot 1 of a 2-tensor with epsilon, into an element
    of the kept slot's own presentation: a (x) g -> eta_L(eps(a)) * g at
    slot 0, and g (x) a -> g * (right action of eps(a)) at slot 1."""
    ctx = elt.ring
    kept = ctx.slots[1 - slot]
    mul = kept.mul_monomials
    raw: dict[Monomial, int] = {}
    for key, c in elt.coeffs.items():
        g = key[1 - slot]
        for amono, c2 in H.epsilon.apply_monomial(key[slot]).coeffs.items():
            factor = ctx.push_left(0, amono) if slot else H.eta_L.apply_monomial(amono)
            for tmono, c3 in factor.coeffs.items():
                prod, sign = mul(g, tmono) if slot else mul(tmono, g)
                if prod is not None:
                    raw[prod] = raw.get(prod, 0) + c * c2 * c3 * sign
    return Element(kept, raw)


# ---------------------------------------------------------------------------
# instantiations


def descent_total_ring(p: int) -> Presentation:
    return Presentation(
        p,
        [
            *positive_cone(p).generators,
            GeneratorSpec("Nm", D(2, 2 * (p - 1)), POLY),
            GeneratorSpec("mu", D(1, 1), EXT),
        ],
    )


def descent_algebroid(p: int, beta: int = 1, beta_prime: int = 1) -> HopfAlgebroid:
    """The flat algebroid (pi(point), pi(one-fold tensor)) of the descent map.

    eta_R(ul) = ul + beta * a^(2p) * Nm and eta_R(us) = us + beta' * a^2 * mu;
    the a-exponents are forced by homogeneity (2p and 2 for every odd p).
    """
    check_odd_prime(p)
    beta = check_unit(p, beta, "beta")
    beta_prime = check_unit(p, beta_prime, "beta_prime")
    base = positive_cone(p)
    total = descent_total_ring(p)
    gen = lambda n: Element.generator(total, n)
    mono = lambda **kw: Element.from_monomial(total, total.monomial(**kw))
    eta_R = {
        "a": gen("a"),
        "ul": gen("ul") + mono(a=2 * p, Nm=1).scale(beta),
        "us": gen("us") + mono(a=2, mu=1).scale(beta_prime),
    }
    epsilon = {
        "a": Element.generator(base, "a"),
        "ul": Element.generator(base, "ul"),
        "us": Element.generator(base, "us"),
        "Nm": Element.zero(base),
        "mu": Element.zero(base),
    }
    unit = total.unit_monomial()

    def m(name):
        return total.monomial(**{name: 1})

    delta = {
        "a": {(m("a"), unit): 1},
        "ul": {(m("ul"), unit): 1},
        "us": {(m("us"), unit): 1},
        "Nm": _primitive_coproduct(total, "Nm"),
        "mu": _primitive_coproduct(total, "mu"),
    }
    return HopfAlgebroid(
        p=p,
        base=base,
        total=total,
        eta_R_images=eta_R,
        epsilon_images=epsilon,
        delta_images=delta,
    )


def _primitive_coproduct(total: Presentation, name: str) -> dict[TensorKey, int]:
    """Delta(g) = g (x) 1 + 1 (x) g, as a raw tensor dict."""
    g = total.monomial(**{name: 1})
    unit = total.unit_monomial()
    return {(g, unit): 1, (unit, g): 1}


def primitive_hopf(p: int, generators: Sequence[GeneratorSpec]) -> HopfAlgebroid:
    """The Hopf algebra over F_p (empty base, no eta_R) on the given
    generators, each primitive: Delta(g) = g (x) 1 + 1 (x) g, epsilon(g) = 0."""
    base = Presentation(p, [])
    total = Presentation(p, generators)
    return HopfAlgebroid(
        p=p,
        base=base,
        total=total,
        eta_R_images={},
        epsilon_images={name: Element.zero(base) for name in total.names},
        delta_images={name: _primitive_coproduct(total, name) for name in total.names},
    )


def truncated_hopf(
    p: int, n: int, beta: int = 1, beta_prime: int = 1
) -> tuple[HopfAlgebroid, Comodule]:
    """The height-n truncated primitively generated Hopf algebra and its
    coefficient comodule F_p[a, ul^{+-1}]<us>."""
    check_odd_prime(p)
    if n < 1:
        raise ConfigError(f"truncation level n must be >= 1, got {n}")
    beta = check_unit(p, beta, "beta")
    beta_prime = check_unit(p, beta_prime, "beta_prime")
    H = primitive_hopf(
        p,
        [
            GeneratorSpec("Nm", D(2, 2 * (p - 1)), TRUNC, p**n),
            GeneratorSpec("mu", D(1, 1), EXT),
        ],
    )
    unit = H.total.unit_monomial()
    m = lambda name: H.total.monomial(**{name: 1})

    module = positive_cone(p, ul_kind=INV)
    mm = lambda **kw: module.monomial(**kw)
    psi = {
        "a": {(mm(a=1), unit): 1},
        "ul": {(mm(ul=1), unit): 1, (mm(a=2 * p), m("Nm")): beta},
        "us": {(mm(us=1), unit): 1, (mm(a=2), m("mu")): beta_prime},
    }
    comodule = Comodule(H, module, psi)
    return H, comodule


def geometric_algebroid(p: int) -> HopfAlgebroid:
    """Descent algebroid of the fixed-point ring F_p[y]<x>: total ring the
    two-sided tensor with eta_L(y) = y, eta_R(y) = yb."""
    check_odd_prime(p)
    base = Presentation(
        p,
        [GeneratorSpec("y", D(2, 0), POLY), GeneratorSpec("x", D(1, 0), EXT)],
    )
    total = Presentation(
        p,
        [
            GeneratorSpec("y", D(2, 0), POLY),
            GeneratorSpec("x", D(1, 0), EXT),
            GeneratorSpec("yb", D(2, 0), POLY),
            GeneratorSpec("xb", D(1, 0), EXT),
        ],
    )
    unit = total.unit_monomial()
    m = lambda name: total.monomial(**{name: 1})
    eta_R = {"y": Element.generator(total, "yb"), "x": Element.generator(total, "xb")}
    epsilon = {
        "y": Element.generator(base, "y"),
        "x": Element.generator(base, "x"),
        "yb": Element.generator(base, "y"),
        "xb": Element.generator(base, "x"),
    }
    delta = {
        "y": {(m("y"), unit): 1},
        "x": {(m("x"), unit): 1},
        "yb": {(unit, m("yb")): 1},
        "xb": {(unit, m("xb")): 1},
    }
    return HopfAlgebroid(
        p=p,
        base=base,
        total=total,
        eta_R_images=eta_R,
        epsilon_images=epsilon,
        delta_images=delta,
    )


def base_comodule(H: HopfAlgebroid) -> Comodule:
    """The base A as a comodule over its own algebroid, psi = eta_R in A (x) G."""
    unit_base = H.base.unit_monomial()
    psi = {}
    for gname in H.base.names:
        image = H.eta_R.apply_monomial(H.base.monomial(**{gname: 1}))
        psi[gname] = {(unit_base, mono): c for mono, c in image.coeffs.items()}
    return Comodule(H, H.base, psi)


# ---------------------------------------------------------------------------
# axiom checker


class AxiomCheck:
    __slots__ = ("name", "checked", "failures")

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures


class AxiomReport:
    __slots__ = ("checks",)

    def __init__(self, checks: list[AxiomCheck]):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.ok else f"FAIL ({c.failures[0]})"
            lines.append(f"{c.name} | checked {c.checked} | {status}")
        return "\n".join(lines) + "\n"


def check_axioms(H: HopfAlgebroid, window: DegreeWindow, comodule: Comodule) -> AxiomReport:
    """Verify counit, coassociativity and comodule axioms on every basis
    monomial whose degree lies in the window.  Each degree is checked
    independently, and failures are listed in window order."""
    counit_unit = AxiomCheck("counit-of-units")
    counit_cop = AxiomCheck("counit-coproduct")
    coassoc = AxiomCheck("coassociativity")
    com_counit = AxiomCheck("comodule-counit")
    com_coassoc = AxiomCheck("comodule-coassociativity")
    M = comodule.module

    def degree_verdicts(d):
        """(axiom, failure or None) for each base, total and module monomial
        of degree d; a label is formatted only for a failure."""
        verdicts = []

        def verdict(check, ok, what, pres, mono):
            verdicts.append((check, None if ok else f"{what} on {pres.format_monomial(mono)}"))

        for mono in monomials_in_degree(H.base, d):
            x = Element.from_monomial(H.base, mono)
            left = H.epsilon.apply(H.eta_L.apply(x))
            right = H.epsilon.apply(H.eta_R.apply(x))
            verdict(counit_unit, left == x and right == x, "eps o eta", H.base, mono)
        for mono in monomials_in_degree(H.total, d):
            g = Element.from_monomial(H.total, mono)
            dg = H.delta.apply(g)
            left = apply_counit_at(H, dg, 0)
            right = apply_counit_at(H, dg, 1)
            verdict(counit_cop, left == g and right == g, "counit", H.total, mono)
            dl = apply_coproduct_at(H, dg, 0, H.delta)
            dr = apply_coproduct_at(H, dg, 1, H.delta)
            verdict(coassoc, dl.coeffs == dr.coeffs, "coassoc", H.total, mono)
        for mono in monomials_in_degree(M, d):
            x = Element.from_monomial(M, mono)
            px = comodule.psi.apply(x)
            back = apply_counit_at(H, px, 1)
            verdict(com_counit, back == x, "counit", M, mono)
            left = apply_coproduct_at(H, px, 0, comodule.psi)
            right = apply_coproduct_at(H, px, 1, H.delta)
            verdict(com_coassoc, left.coeffs == right.coeffs, "coassoc", M, mono)
        return verdicts

    for verdicts in deterministic_map(degree_verdicts, window.degrees()):
        for check, failure in verdicts:
            check.checked += 1
            if failure is not None:
                check.failures.append(failure)
    return AxiomReport([counit_unit, counit_cop, coassoc, com_counit, com_coassoc])


# ---------------------------------------------------------------------------
# Weyl action and free-summand counts


def weyl_matrix(p: int) -> SparseMatFp:
    """Action of the chosen group generator on the degree-2 classes
    mu_1..mu_{p-1}: gamma(mu_i) = mu_{i+1}, gamma(mu_{p-1}) = -sum mu_j."""
    check_odd_prime(p)
    entries = {}
    for i in range(p - 2):
        entries[(i + 1, i)] = 1
    for i in range(p - 1):
        entries[(i, p - 2)] = p - 1
    return SparseMatFp(p - 1, p - 1, p, entries)


def m_k_formula(p: int, k: int) -> int:
    return math.comb(k + p - 2, p - 2) // p


def m_k_oracle(p: int, k: int) -> int:
    """Number of free group-algebra summands of Sym^k of the reduced regular
    representation V = F_p^(p-1): the rank of N^(p-1) on Sym^k, N = gamma - 1.

    The rank is taken in a Jordan basis read off ``weyl_matrix``: y_0 = mu_1
    and y_i = N^i y_0.  Once y_0 .. y_(p-2) are checked independent and
    y_(p-1) = 0 (else BookkeepingError), gamma(y_i) = y_i + y_(i+1) exactly,
    so gamma of a monomial is a product of two-term linear forms, and
    N^p = gamma^p - 1 = 0 on V and on Sym^k.

    Only module generators are pushed through N^(p-1).  Give y^e the weight
    w = sum(i * e_i).  N raises the weight, and D, its part that raises it by
    exactly one, maps weight w - 1 to weight w.  Weight by weight, S holds
    the monomials at the non-pivot columns of the RREF of D's rows, so every
    weight-w monomial is s + D(u) = s + N(u) - (terms of weight > w) with s
    in span S.  Descending induction on the weight gives
    Sym^k = span S + N Sym^k; iterating it and N^p = 0 give
    Sym^k = sum_i N^i span S, so the image of N^(p-1) is spanned by
    N^(p-1)(S), and its rank is the rank of those |S| vectors.
    """
    check_odd_prime(p)
    _check_single_jordan_block(p)
    if k == 0:
        return 0
    nvars = p - 1
    # gamma(y_i) = y_i + y_(i+1), and y_(p-1) = 0
    linear = [(i, i + 1) for i in range(nvars - 1)] + [(nvars - 1,)]
    sym = Presentation(p, [GeneratorSpec(f"mu{i}", D(2, 0), POLY) for i in range(1, p)])

    def weight(mono: tuple[int, ...]) -> int:
        return sum(i * e for i, e in enumerate(mono))

    # an exponent tuple e is read as the monomial y^e.  Weight order keeps
    # each weight's monomials together and makes the final rank's rows
    # nearly triangular: the image of a weight-w generator starts at
    # weight w + p - 1 or above
    basis = sorted(monomials_in_degree(sym, D(2 * k, 0)), key=weight)
    index = {mono: i for i, mono in enumerate(basis)}

    poly_cache: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {
        (0,) * nvars: {(0,) * nvars: 1}
    }

    def gamma_of(mono: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        # walk down, one factor y_first at a time, to a cached monomial
        steps = []
        while mono not in poly_cache:
            first = next(i for i, e in enumerate(mono) if e)
            steps.append((mono, first))
            mono = mono[:first] + (mono[first] - 1,) + mono[first + 1 :]
        out = poly_cache[mono]
        # then multiply back up, caching each product
        for mono, first in reversed(steps):
            up: dict[tuple[int, ...], int] = {}
            for pm, c in out.items():
                for var in linear[first]:
                    new = pm[:var] + (pm[var] + 1,) + pm[var + 1 :]
                    up[new] = up.get(new, 0) + c
            out = poly_cache[mono] = {m: c % p for m, c in up.items() if c % p}
        return out

    # columns of N = gamma_Sym - I, as (row, value) pairs
    n_cols = []
    for mono in basis:
        col = dict(gamma_of(mono))
        col[mono] = (col.get(mono, 0) - 1) % p
        n_cols.append([(index[m], c) for m, c in col.items() if c])

    weights = [weight(mono) for mono in basis]
    # weight w spans basis[starts[w]:starts[w + 1]]
    starts = [bisect_left(weights, w) for w in range(weights[-1] + 2)]
    generators = list(range(starts[0], starts[1]))
    for w in range(1, len(starts) - 1):
        lo, hi = starts[w], starts[w + 1]
        rows = []
        for j in range(starts[w - 1], lo):
            row = [0] * (hi - lo)
            for i, v in n_cols[j]:
                if lo <= i < hi:
                    row[i - lo] = v
            rows.append(row)
        _, pivots = fp.rref(rows, p)
        pivoted = set(pivots)
        generators.extend(lo + c for c in range(hi - lo) if c not in pivoted)

    dim = len(basis)
    images = []
    for j in generators:
        vec = [(j, 1)]
        for _ in range(p - 1):
            acc = [0] * dim
            for jj, c in vec:
                for i, v in n_cols[jj]:
                    acc[i] += c * v
            vec = [(i, v % p) for i, v in enumerate(acc) if v % p]
        images.append(dict(vec))
    return fp.rank(SparseMatFp.from_columns(images, dim, p))


def _check_single_jordan_block(p: int) -> None:
    """Raise BookkeepingError unless N = gamma - 1 on V, gamma read off
    ``weyl_matrix(p)``, is one nilpotent Jordan block with cyclic vector
    mu_1: mu_1, N mu_1, .., N^(p-2) mu_1 of rank p - 1 and N^(p-1) mu_1 = 0."""
    gamma = weyl_matrix(p)
    chain = [{0: 1}]
    for _ in range(p - 1):
        y = chain[-1]
        image: dict[int, int] = {i: -v for i, v in y.items()}
        for (i, j), v in gamma.entries.items():
            if j in y:
                image[i] = image.get(i, 0) + v * y[j]
        chain.append({i: v % p for i, v in image.items() if v % p})
    if chain[-1] or fp.rank(SparseMatFp.from_columns(chain[:-1], p - 1, p)) != p - 1:
        raise BookkeepingError(
            f"weyl_matrix at p = {p} is not one Jordan block: mu_1 .. N^{p - 2} mu_1 "
            f"must have rank {p - 1} and N^{p - 1} mu_1 must be 0 (N = gamma - 1)"
        )
