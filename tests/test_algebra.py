import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from spokeseq.algebra import (
    EXT,
    INV,
    POLY,
    TRUNC,
    Element,
    GeneratorSpec,
    Presentation,
    GradedMap,
    monomials_in_degree,
)
from spokeseq.errors import (
    ConfigError,
    HomogeneityError,
    InvertibilityError,
    WindowIncompleteError,
)
from spokeseq.grading import SpokeDegree

from power_reference import invert

D = SpokeDegree


def point_ring(p=3):
    """F_p[a, ul]<us>: the a-free coefficient ring."""
    return Presentation(
        p,
        [
            GeneratorSpec("a", D(0, -1), POLY),
            GeneratorSpec("ul", D(2, -2), POLY),
            GeneratorSpec("us", D(1, -1), EXT),
        ],
    )


def thh_ring(p=3):
    """F_p[a, ul, Nm]<us, mu>: total ring of the descent algebroid."""
    return Presentation(
        p,
        [
            GeneratorSpec("a", D(0, -1), POLY),
            GeneratorSpec("ul", D(2, -2), POLY),
            GeneratorSpec("Nm", D(2, 2 * (p - 1)), POLY),
            GeneratorSpec("us", D(1, -1), EXT),
            GeneratorSpec("mu", D(1, 1), EXT),
        ],
    )


def test_kind_parity_enforced():
    with pytest.raises(ConfigError):
        GeneratorSpec("bad", D(1, -1), POLY)
    with pytest.raises(ConfigError):
        GeneratorSpec("bad", D(2, -2), EXT)
    with pytest.raises(ConfigError):
        GeneratorSpec("bad", D(0, 0), POLY)


def test_exterior_generators_have_bound_two():
    # x^2 = 0 bounds an exterior generator exactly like a truncated one
    assert GeneratorSpec("x", D(1, -1), EXT).bound == 2
    assert GeneratorSpec("x", D(1, -1), EXT, 2) == GeneratorSpec("x", D(1, -1), EXT)
    for kind, bound in ((EXT, 3), (EXT, 1), (POLY, 2), (INV, 2), (TRUNC, 0)):
        with pytest.raises(ConfigError):
            GeneratorSpec("g", D(1 if kind == EXT else 2, 0), kind, bound)
    ring = thh_ring()
    us = ring.monomial(us=1)
    assert ring.mul_monomials(us, us) == (None, 0)
    for bad in ((0, 0, 0, 2, 0), (-1, 0, 0, 0, 0)):  # us^2, a^-1
        with pytest.raises(ConfigError):
            ring.check_monomial(bad)


def test_monomials_point_ring():
    ring = point_ring()
    assert [ring.format_monomial(m) for m in monomials_in_degree(ring, D(2, -2))] == ["ul"]


def test_monomials_thh_ring_matches_hand_count():
    # degree 1-1@ is {us, a^2*mu}; degree 2-2@ contains ul and a^6*Nm plus the
    # exterior product monomial a^2*us*mu that complete enumeration must not drop
    ring = thh_ring()
    labels = {ring.format_monomial(m) for m in monomials_in_degree(ring, D(2, -2))}
    assert labels == {"ul", "a^6*Nm", "a^2*us*mu"}
    labels = {ring.format_monomial(m) for m in monomials_in_degree(ring, D(1, -1))}
    assert labels == {"us", "a^2*mu"}


def test_enumeration_independent_of_order():
    ring = thh_ring()
    perm = Presentation(3, [ring.generator(n) for n in ["mu", "Nm", "a", "us", "ul"]])
    for d in [D(2, -2), D(1, -1), D(4, -4), D(3, 1), D(0, -5)]:
        assert len(monomials_in_degree(ring, d)) == len(monomials_in_degree(perm, d))


def test_multiply_examples():
    ring = thh_ring()
    a = Element.generator(ring, "a")
    us = Element.generator(ring, "us")
    mu = Element.generator(ring, "mu")
    assert (a * a).degree == D(0, -2)
    assert (us * us).is_zero()
    assert (mu * mu).is_zero()
    # graded commutation: odd*odd anticommutes, even passes freely
    assert us * mu == (mu * us).scale(-1)
    assert a * us == us * a


@st.composite
def random_monomial(draw):
    # exponents within kinds for the thh ring at p=3
    return (
        draw(st.integers(0, 4)),  # a
        draw(st.integers(0, 3)),  # ul
        draw(st.integers(0, 2)),  # Nm
        draw(st.integers(0, 1)),  # us
        draw(st.integers(0, 1)),  # mu
    )


@given(random_monomial(), random_monomial(), random_monomial())
def test_multiply_associative_and_graded_commutative(ma, mb, mc):
    ring = thh_ring()
    x = Element.from_monomial(ring, ma)
    y = Element.from_monomial(ring, mb)
    z = Element.from_monomial(ring, mc)
    assert (x * y) * z == x * (y * z)
    sign = -1 if (ring.parity_of(ma) and ring.parity_of(mb)) else 1
    assert x * y == (y * x).scale(sign)


def sign_ring(p=3):
    """Four exterior generators among polynomial, invertible and truncated
    ones, so a product reorders up to six exterior pairs."""
    return Presentation(
        p,
        [
            GeneratorSpec("x1", D(1, 0), EXT),
            GeneratorSpec("y", D(2, -2), POLY),
            GeneratorSpec("x2", D(1, -1), EXT),
            GeneratorSpec("w", D(0, 2), INV),
            GeneratorSpec("x3", D(3, 1), EXT),
            GeneratorSpec("t", D(2, 4), TRUNC, 3),
            GeneratorSpec("x4", D(-1, 2), EXT),
        ],
    )


@st.composite
def sign_ring_monomial(draw):
    ring = sign_ring()
    return tuple(
        draw(st.integers(0, 1)) if g.kind == EXT
        else draw(st.integers(0, g.bound - 1)) if g.kind == TRUNC
        else draw(st.integers(-3 if g.kind == INV else 0, 4))
        for g in ring.generators
    )


def _pairwise_product(ring, a, b):
    """The product of two monomials with its sign from the pairwise loop:
    one transposition per exterior factor of a after one of b."""
    out = []
    for ea, eb, bound in zip(a, b, ring.bounds):
        e = ea + eb
        if bound and e >= bound:
            return None, 0
        out.append(e)
    sign = 1
    ext = [i for i, kind in enumerate(ring.kinds) if kind == EXT]
    ext_a = [i for i in ext if a[i]]
    ext_b = [i for i in ext if b[i]]
    for i in ext_a:
        for j in ext_b:
            if i > j:
                sign = -sign
    return tuple(out), sign


@given(sign_ring_monomial(), sign_ring_monomial())
def test_one_pass_sign_matches_pairwise_loop(a, b):
    ring = sign_ring()
    assert ring.mul_monomials(a, b) == _pairwise_product(ring, a, b)


def test_homogeneity_enforced():
    ring = point_ring()
    with pytest.raises(HomogeneityError):
        Element(ring, {ring.monomial(a=1): 1, ring.monomial(ul=1): 1})


def test_geometric_series_inverse():
    # in F_3[a][ul^+-1, Nm]/(Nm^3): (ul + a^6 Nm)^-1
    ring = Presentation(
        3,
        [
            GeneratorSpec("a", D(0, -1), POLY),
            GeneratorSpec("ul", D(2, -2), INV),
            GeneratorSpec("Nm", D(2, 4), TRUNC, 3),
        ],
    )
    u = Element.generator(ring, "ul") + Element.from_monomial(ring, ring.monomial(a=6, Nm=1))
    inv_u = invert(u)
    expected = (
        Element.from_monomial(ring, ring.monomial(ul=-1))
        + Element.from_monomial(ring, ring.monomial(ul=-2, a=6, Nm=1)).scale(-1)
        + Element.from_monomial(ring, ring.monomial(ul=-3, a=12, Nm=2))
    )
    assert inv_u == expected
    assert u * inv_u == Element.one(ring)
    # a structure map refuses an invertible generator whose image has no
    # unit term when it is built, not when a negative power is taken
    source = Presentation(3, [GeneratorSpec("ul", D(2, -2), INV)])
    no_unit = Element.from_monomial(ring, ring.monomial(a=6, Nm=1))
    with pytest.raises(InvertibilityError, match="image of invertible generator ul has 0 unit"):
        GradedMap(source, ring, {"ul": no_unit})


def test_graded_map_refuses_a_non_nilpotent_rest():
    # ul -> ul + a^6 Nm with Nm polynomial: a^6 Nm is not nilpotent, so the
    # image has no inverse and the binomial series for ul^-1 never ends.
    # The map is refused when it is built, naming the generator; with Nm
    # truncated (the geometric-series test above) the same image is a unit.
    ring = Presentation(
        3,
        [
            GeneratorSpec("a", D(0, -1), POLY),
            GeneratorSpec("ul", D(2, -2), INV),
            GeneratorSpec("Nm", D(2, 4), POLY),
        ],
    )
    source = Presentation(3, [GeneratorSpec("ul", D(2, -2), INV)])
    image = Element.generator(ring, "ul") + Element.from_monomial(ring, ring.monomial(a=6, Nm=1))
    with pytest.raises(
        InvertibilityError,
        match=r"^\[E_INVERTIBLE\] image of invertible generator ul has a non-unit term with no "
        "truncated or exterior factor",
    ):
        GradedMap(source, ring, {"ul": image})
    assert not ring.is_nilpotent_monomial(ring.monomial(a=6, Nm=1))
    assert not ring.is_nilpotent_monomial(ring.monomial(ul=-2))
    point = point_ring()
    assert point.is_nilpotent_monomial(point.monomial(a=1, us=1))


def test_graded_map_homogeneity_check():
    ring = thh_ring()
    base = point_ring()
    images = {
        "a": Element.generator(ring, "a"),
        "ul": Element.generator(ring, "ul")
        + Element.from_monomial(ring, ring.monomial(a=6, Nm=1)),
        "us": Element.generator(ring, "us")
        + Element.from_monomial(ring, ring.monomial(a=2, mu=1)),
    }
    f = GradedMap(base, ring, images)
    # multiplicativity on a random-ish pair
    x = Element.from_monomial(base, base.monomial(a=2, ul=1))
    y = Element.from_monomial(base, base.monomial(ul=2, us=1))
    assert f.apply(x * y) == f.apply(x) * f.apply(y)
    # a wrong exponent is caught instantly: as an inhomogeneous sum ...
    with pytest.raises(HomogeneityError):
        Element.generator(ring, "ul") + Element.from_monomial(
            ring, ring.monomial(a=5, Nm=1)
        )
    # ... or, if homogeneous but of the wrong degree, by the map itself
    bad = dict(images)
    bad["ul"] = Element.from_monomial(ring, ring.monomial(a=2, mu=1))
    with pytest.raises(HomogeneityError):
        GradedMap(base, ring, bad)


def test_generating_function_geometric_ring():
    # F_p[y, yb]<x, xb> with |y|=|yb|=2, |x|=|xb|=1: the Hilbert series is
    # (1+t)^2/(1-t^2)^2 = 1/(1-t)^2, so dim in degree d is d+1.
    ring = Presentation(
        3,
        [
            GeneratorSpec("y", D(2, 0), POLY),
            GeneratorSpec("yb", D(2, 0), POLY),
            GeneratorSpec("x", D(1, 0), EXT),
            GeneratorSpec("xb", D(1, 0), EXT),
        ],
    )
    series = [1, 2, 1]  # (1+t)^2
    denom = [1, 0, -2, 0, 1]  # (1-t^2)^2
    dims = []
    for d in range(21):
        # convolve: coeff of t^d in series / denom
        c = series[d] if d < len(series) else 0
        for k in range(1, d + 1):
            if k < len(denom) and denom[k]:
                c -= denom[k] * dims[d - k]
        dims.append(c)
        assert len(monomials_in_degree(ring, D(d, 0))) == c == d + 1


def test_completed_ring_two_invertibles():
    ring = Presentation(
        3,
        [
            GeneratorSpec("a", D(0, -1), INV),
            GeneratorSpec("ul", D(2, -2), INV),
            GeneratorSpec("us", D(1, -1), EXT),
        ],
    )
    # unique exponent solution in each degree
    monos = monomials_in_degree(ring, D(1, 5))
    assert len(monos) == 1
    assert ring.format_monomial(monos[0]) == "a^-6*us"
    monos = monomials_in_degree(ring, D(-3, 1))
    assert len(monos) == 1
    assert ring.format_monomial(monos[0]) == "a^2*ul^-2*us"
    # every degree has dimension exactly 1 (after fixing the spoke parity)
    for d in [D(0, 0), D(4, 7), D(-5, -5), D(2, -2)]:
        assert len(monomials_in_degree(ring, d)) == 1


def test_window_incompleteness_detected():
    # two unbounded m=0 generators with opposite spoke signs cannot be enumerated
    ring = Presentation(
        3,
        [
            GeneratorSpec("a", D(0, -1), POLY),
            GeneratorSpec("z", D(0, 1), POLY),
        ],
    )
    with pytest.raises(WindowIncompleteError):
        monomials_in_degree(ring, D(0, 0))
    # bounding one of them, by declaring it truncated, restores completeness
    assert len(monomials_in_degree(bounded_z_ring(7), D(0, 0))) == 7


def bounded_z_ring(bound):
    return Presentation(
        3,
        [
            GeneratorSpec("a", D(0, -1), POLY),
            GeneratorSpec("z", D(0, 1), TRUNC, bound),
        ],
    )


def test_repeated_enumeration_is_equal_and_uncorruptible():
    ring = bounded_z_ring(7)
    first = monomials_in_degree(ring, D(0, 0))
    assert isinstance(first, tuple) and len(first) == 7
    with pytest.raises(TypeError):
        first[0] = (9, 9)
    assert monomials_in_degree(ring, D(0, 0)) == first
    # the degree is the key
    assert len(monomials_in_degree(ring, D(0, 2))) == 5
    # an incomplete shape is refused again, not answered from the memo
    unbounded = Presentation(
        3,
        [
            GeneratorSpec("a", D(0, -1), POLY),
            GeneratorSpec("z", D(0, 1), POLY),
        ],
    )
    for _ in range(2):
        with pytest.raises(WindowIncompleteError):
            monomials_in_degree(unbounded, D(0, 0))


def test_presentations_do_not_share_enumeration_results():
    def ring(a_degree):
        return Presentation(
            3,
            [
                GeneratorSpec("a", a_degree, POLY),
                GeneratorSpec("ul", D(2, -2), INV),
            ],
        )

    thin, thick = ring(D(0, -1)), ring(D(0, -2))
    assert [thin.format_monomial(m) for m in monomials_in_degree(thin, D(0, -2))] == ["a^2"]
    assert [thick.format_monomial(m) for m in monomials_in_degree(thick, D(0, -2))] == ["a"]
    assert monomials_in_degree(thick, D(0, -1)) == ()
    assert [thin.format_monomial(m) for m in monomials_in_degree(thin, D(0, -1))] == ["a"]


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_enumeration_completeness_inverted_module(m, n):
    # coefficient-module shape: one invertible generator plus an unbounded
    # m=0 generator; compare against exhaustive boxes that provably cover
    # every solution for |m|, |n| <= 8
    ring = Presentation(
        3,
        [
            GeneratorSpec("a", D(0, -1), POLY),
            GeneratorSpec("ul", D(2, -2), INV),
            GeneratorSpec("us", D(1, -1), EXT),
        ],
    )
    target = D(m, n)
    brute = []
    for a_exp in range(0, 41):
        for ul_exp in range(-20, 21):
            for us_exp in (0, 1):
                deg = D(0, -1) * a_exp + D(2, -2) * ul_exp + D(1, -1) * us_exp
                if deg == target:
                    brute.append((a_exp, ul_exp, us_exp))
    got = monomials_in_degree(ring, target)
    assert sorted(got) == sorted(brute)


@given(st.integers(-6, 8), st.integers(-8, 6))
def test_enumeration_completeness_positive_cone(m, n):
    ring = Presentation(
        3,
        [
            GeneratorSpec("a", D(0, -1), POLY),
            GeneratorSpec("ul", D(2, -2), POLY),
            GeneratorSpec("us", D(1, -1), EXT),
        ],
    )
    target = D(m, n)
    brute = []
    for a_exp in range(0, 31):
        for ul_exp in range(0, 16):
            for us_exp in (0, 1):
                deg = D(0, -1) * a_exp + D(2, -2) * ul_exp + D(1, -1) * us_exp
                if deg == target:
                    brute.append((a_exp, ul_exp, us_exp))
    got = monomials_in_degree(ring, target)
    assert sorted(got) == sorted(brute)


def _oracle_monomials(pres, target):
    """Brute force over exponent boxes that provably hold every solution.

    For the shapes the enumerator accepts, a functional that is positive on
    the free polynomial degrees bounds their exponents, so the box of
    non-invertible exponents is finite.  Invertible exponents are bounded
    by the largest remainder (|det| >= 1) and walked in their own box,
    joined with the first box on degree.
    """
    gens = pres.generators
    inv = [i for i, g in enumerate(gens) if g.kind == INV]
    ranges = {}
    free = []
    for i, g in enumerate(gens):
        if g.kind == EXT:
            ranges[i] = range(2)
        elif g.kind == TRUNC:
            ranges[i] = range(g.bound)
        elif g.kind == POLY:
            free.append(i)
    finite_degrees = [D(0, 0)]
    for i, rng in ranges.items():
        finite_degrees = [f + gens[i].degree * e for f in finite_degrees for e in rng]

    if inv:
        w = gens[inv[0]].degree
        lin = lambda d: w.n * d.m - w.m * d.n  # vanishes on w
        sign = 1 if all(lin(gens[i].degree) > 0 for i in free) else -1
        budget = max(sign * lin(target - f) for f in finite_degrees)
        for i in free:
            ranges[i] = range(max(budget // (sign * lin(gens[i].degree)) + 1, 0))
    else:
        # free degrees have m >= 0, and those with m = 0 share the sign of n
        positive_m = [i for i in free if gens[i].degree.m > 0]
        m_budget = max(target.m - f.m for f in finite_degrees)
        for i in positive_m:
            ranges[i] = range(max(m_budget // gens[i].degree.m + 1, 0))
        n_budget = abs(target.n) + max(abs(f.n) for f in finite_degrees) + sum(
            len(ranges[i]) * abs(gens[i].degree.n) for i in positive_m
        )
        for i in free:
            if gens[i].degree.m == 0:
                ranges[i] = range(n_budget // abs(gens[i].degree.n) + 1)

    order = sorted(ranges)
    by_degree = {}
    for combo in itertools.product(*(ranges[i] for i in order)):
        deg = D(0, 0)
        for i, e in zip(order, combo):
            deg = deg + gens[i].degree * e
        by_degree.setdefault(deg, []).append(combo)
    widest = max([max(abs(g.degree.m), abs(g.degree.n)) for g in gens if g.kind == INV] or [1])
    reach = widest * max([abs((target - d).m) + abs((target - d).n) for d in by_degree] or [0])
    out = []
    for zs in itertools.product(range(-reach, reach + 1), repeat=len(inv)):
        deg = D(0, 0)
        for i, z in zip(inv, zs):
            deg = deg + gens[i].degree * z
        for combo in by_degree.get(target - deg, ()):
            mono = [0] * len(gens)
            for i, e in zip(order + inv, combo + zs):
                mono[i] = e
            out.append(tuple(mono))
    return sorted(out)


@st.composite
def small_presentations(draw):
    """A random small presentation with 0, 1 or 2 invertible generators;
    any polynomial generator may carry an exponent bound, which declares it
    truncated."""
    n_inv = draw(st.integers(0, 2))
    even_m = st.sampled_from([-2, 0, 2])
    small_n = st.integers(-2, 2)
    specs = [(INV, draw(even_m), draw(small_n), None) for _ in range(n_inv)]
    for _ in range(draw(st.integers(0, 2))):
        specs.append((EXT, draw(st.sampled_from([-1, 1])), draw(small_n), None))
    if draw(st.booleans()):
        specs.append((TRUNC, draw(even_m), draw(small_n), draw(st.integers(1, 3))))
    for _ in range(draw(st.integers(0 if n_inv else 1, 2))):
        specs.append((POLY, draw(st.sampled_from([0, 2])), draw(small_n), None))
    specs = draw(st.permutations([s for s in specs if (s[1], s[2]) != (0, 0)]))
    gens = []
    for k, (kind, m, n, bound) in enumerate(specs):
        if kind == POLY and draw(st.booleans()):
            kind, bound = TRUNC, draw(st.integers(1, 4))
        gens.append(GeneratorSpec(f"g{k}", D(m, n), kind, bound))
    return Presentation(3, gens)


@given(small_presentations(), st.integers(-4, 4), st.integers(-4, 4))
def test_enumeration_matches_brute_force_oracle(pres, m, n):
    target = D(m, n)
    try:
        got = monomials_in_degree(pres, target)
    except WindowIncompleteError:
        with pytest.raises(WindowIncompleteError):  # refused on every call
            monomials_in_degree(pres, target)
        return
    assert list(got) == _oracle_monomials(pres, target)


@settings(deadline=None)
@given(
    small_presentations(),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=12),
)
def test_one_plan_serves_every_degree(pres, degrees):
    # one presentation answers a stream of degrees, repeats included, in the
    # drawn order and then in reverse: the shape analysis is kept between
    # calls, so no call may leave state that changes a later answer
    stream = degrees + degrees[::-1]
    try:
        monomials_in_degree(pres, D(*stream[0]))
    except WindowIncompleteError:
        for m, n in stream:  # never certified, so refused on every call
            with pytest.raises(WindowIncompleteError):
                monomials_in_degree(pres, D(m, n))
        return
    for m, n in stream:
        assert list(monomials_in_degree(pres, D(m, n))) == _oracle_monomials(pres, D(m, n))


def test_enumerating_fresh_degrees_leaves_no_cyclic_garbage():
    # a degree's enumeration is one frontier loop and leaves no reference
    # cycle; a cycle would wait for the cycle collector, and a full
    # collection would land in some later, unrelated computation
    pres = thh_ring()
    monomials_in_degree(pres, D(0, 0))  # builds and keeps the plan
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for m in range(1, 5):
            for n in range(-4, 5):
                monomials_in_degree(pres, D(m, n))
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
