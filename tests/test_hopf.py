import gc
import io
import itertools
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from spokeseq import cli, fp, hopf
from spokeseq.algebra import (
    EXT,
    INV,
    POLY,
    TRUNC,
    Element,
    GeneratorSpec,
    GradedMap,
    Presentation,
    monomials_in_degree,
)
from spokeseq.errors import BookkeepingError, ConfigError, HomogeneityError
from spokeseq.fp import SparseMatFp
from spokeseq.grading import DegreeWindow, SpokeDegree
from spokeseq.hfp import positive_cone
from spokeseq.hopf import (
    Comodule,
    HopfAlgebroid,
    base_comodule,
    check_axioms,
    descent_algebroid,
    geometric_algebroid,
    m_k_formula,
    m_k_oracle,
    truncated_hopf,
    weyl_matrix,
)

from power_reference import invert, power_by_squaring
from sparse_helpers import identity

D = SpokeDegree


def test_descent_right_unit_formulas_p3():
    H = descent_algebroid(3)
    total = H.total
    ul_img = H.eta_R.apply(Element.generator(H.base, "ul"))
    expected = Element.generator(total, "ul") + Element.from_monomial(
        total, total.monomial(a=6, Nm=1)
    )
    assert ul_img == expected
    us_img = H.eta_R.apply(Element.generator(H.base, "us"))
    expected = Element.generator(total, "us") + Element.from_monomial(
        total, total.monomial(a=2, mu=1)
    )
    assert us_img == expected
    a5 = Element.from_monomial(H.base, H.base.monomial(a=5))
    assert H.eta_R.apply(a5) == Element.from_monomial(total, total.monomial(a=5))


def test_descent_right_unit_exponents_forced_general_p():
    for p in (3, 5, 7):
        H = descent_algebroid(p)
        img = H.eta_R.apply(Element.generator(H.base, "ul"))
        monos = set(img.coeffs)
        assert H.total.monomial(a=2 * p, Nm=1) in monos


def test_norm_class_primitive():
    H = descent_algebroid(5)
    d_nm = H.delta.apply(Element.generator(H.total, "Nm"))
    unit = H.total.unit_monomial()
    nm = H.total.monomial(Nm=1)
    assert d_nm.coeffs == {(nm, unit): 1, (unit, nm): 1}


def test_counit_splits_right_unit():
    H = descent_algebroid(3)
    for name in ("a", "ul", "us"):
        x = Element.generator(H.base, name)
        assert H.epsilon.apply(H.eta_R.apply(x)) == x


def test_descent_axioms_window():
    H = descent_algebroid(3)
    report = check_axioms(H, DegreeWindow(-6, 6, -8, 8, s_max=6), comodule=base_comodule(H))
    assert report.ok, report.format()


def test_descent_axioms_p5_small_window():
    H = descent_algebroid(5)
    report = check_axioms(H, DegreeWindow(-4, 4, -5, 5, s_max=6), comodule=base_comodule(H))
    assert report.ok, report.format()


def test_dropped_algebroids_leave_no_cyclic_garbage():
    # a tensor context holds the algebroid's base, total ring and eta_R, not
    # the algebroid that caches it, so a dropped algebroid is freed at once
    # instead of waiting for a full collection in some later computation
    window = DegreeWindow(-2, 2, -2, 2, s_max=2)

    def check_both():
        H, M = truncated_hopf(3, 1)
        assert check_axioms(H, window, M).ok
        G = descent_algebroid(3)
        assert check_axioms(G, window, base_comodule(G)).ok

    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        check_both()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_corrupted_right_unit_caught():
    # eta_R(ul) = ul + beta*a^5*Nm is rejected: inhomogeneous
    H = descent_algebroid(3)
    with pytest.raises(HomogeneityError):
        Element.generator(H.total, "ul") + Element.from_monomial(
            H.total, H.total.monomial(a=5, Nm=1)
        )


def test_truncated_hopf_relations():
    H, M = truncated_hopf(3, 1)
    # Nm^3 = 0 in the truncated algebra
    nm = Element.generator(H.total, "Nm")
    assert (nm * nm * nm).is_zero()
    assert not (nm * nm).is_zero()


def test_truncated_coaction_of_inverse():
    # psi(ul^-1) = ul^-1 (x) 1 - ul^-2 a^6 (x) Nm + ul^-3 a^12 (x) Nm^2  (p=3, n=1)
    H, M = truncated_hopf(3, 1)
    mod = M.module
    img = M.psi.apply(Element.from_monomial(mod, mod.monomial(ul=-1)))
    unit = H.total.unit_monomial()
    expected = {
        (mod.monomial(ul=-1), unit): 1,
        (mod.monomial(ul=-2, a=6), H.total.monomial(Nm=1)): 2,
        (mod.monomial(ul=-3, a=12), H.total.monomial(Nm=2)): 1,
    }
    assert img.coeffs == expected


def test_truncated_primitive_base_powers():
    H, M = truncated_hopf(3, 1)
    mod = M.module
    img = M.psi.apply(Element.from_monomial(mod, mod.monomial(a=3)))
    assert img.coeffs == {(mod.monomial(a=3), H.total.unit_monomial()): 1}


def test_truncated_axioms():
    H, M = truncated_hopf(3, 1, beta=2, beta_prime=1)
    report = check_axioms(H, DegreeWindow(-6, 6, -8, 8, s_max=6), comodule=M)
    assert report.ok, report.format()


def test_corrupted_coproduct_fails_the_axiom_check():
    # negative control: Delta(Nm) = Nm (x) 1 breaks the counit on Nm and the
    # comodule's coassociativity, but Delta stays coassociative
    H, M = truncated_hopf(3, 1)
    nm, unit = H.total.monomial(Nm=1), H.total.unit_monomial()
    bad = HopfAlgebroid(
        H.p, H.base, H.total, H.eta_R_images, H.epsilon_images,
        {**H.delta_images, "Nm": {(nm, unit): 1}},
    )
    report = check_axioms(bad, DegreeWindow(-6, 6, -8, 8, s_max=6), Comodule(bad, M.module, M.psi_images))
    assert not report.ok
    assert report.format() == (
        "counit-of-units | checked 1 | pass\n"
        "counit-coproduct | checked 5 | FAIL (counit on Nm)\n"
        "coassociativity | checked 5 | pass\n"
        "comodule-counit | checked 117 | pass\n"
        "comodule-coassociativity | checked 117 | FAIL (coassoc on a^12*ul^-2)\n"
    )


def test_corrupted_right_unit_fails_the_counit_of_units():
    # negative control: eta_R(a) = 2a is homogeneous, but eps o eta_R(a) =
    # 2a; the base comodule's coaction is eta_R, so its counit and
    # coassociativity fail on a as well, while Delta is untouched
    H = descent_algebroid(3)
    a = Element.generator(H.total, "a")
    bad = HopfAlgebroid(
        H.p, H.base, H.total, {**H.eta_R_images, "a": a.scale(2)}, H.epsilon_images,
        H.delta_images,
    )
    report = check_axioms(bad, DegreeWindow(-2, 2, -2, 2, s_max=6), base_comodule(bad))
    assert not report.ok
    assert report.format() == (
        "counit-of-units | checked 6 | FAIL (eps o eta on a)\n"
        "counit-coproduct | checked 18 | pass\n"
        "coassociativity | checked 18 | pass\n"
        "comodule-counit | checked 6 | FAIL (counit on a)\n"
        "comodule-coassociativity | checked 6 | FAIL (coassoc on a)\n"
    )


def geometric_with_coassociativity_broken(p):
    """The geometric algebroid with Delta(yb) = 1 (x) yb + u (x) u, where
    u = xb - x: u is primitive and eps(u) = 0, so the counit still holds,
    but (Delta (x) 1) and (1 (x) Delta) differ by u (x) u (x) 1."""
    H = geometric_algebroid(p)
    total = H.total
    g = lambda name: total.monomial(**{name: 1})
    u = (("xb", 1), ("x", -1))
    u_u = {(g(a), g(b)): ca * cb for a, ca in u for b, cb in u}
    delta_yb = {(total.unit_monomial(), g("yb")): 1, **u_u}
    return HopfAlgebroid(
        H.p, H.base, H.total, H.eta_R_images, H.epsilon_images,
        {**H.delta_images, "yb": delta_yb},
    )


def test_corrupted_coproduct_fails_coassociativity():
    # negative control: the extra u (x) u term keeps both counit checks but
    # breaks coassociativity on yb, and the base comodule's coassociativity
    # on y, whose coaction is 1 (x) yb
    bad = geometric_with_coassociativity_broken(3)
    report = check_axioms(bad, DegreeWindow(0, 4, 0, 0, s_max=6), base_comodule(bad))
    assert not report.ok
    assert report.format() == (
        "counit-of-units | checked 5 | pass\n"
        "counit-coproduct | checked 15 | pass\n"
        "coassociativity | checked 15 | FAIL (coassoc on yb)\n"
        "comodule-counit | checked 5 | pass\n"
        "comodule-coassociativity | checked 5 | FAIL (coassoc on y)\n"
    )


def test_corrupted_coaction_fails_the_comodule_counit():
    # negative control: psi(a) = 2 a (x) 1 is homogeneous, but its counit
    # gives 2a; the Hopf algebra itself is untouched and passes
    H, M = truncated_hopf(3, 1)
    unit = H.total.unit_monomial()
    psi_a = {(M.module.monomial(a=1), unit): 2}
    bad = Comodule(H, M.module, {**M.psi_images, "a": psi_a})
    report = check_axioms(H, DegreeWindow(-2, 2, -2, 2, s_max=6), bad)
    assert not report.ok
    assert report.format() == (
        "counit-of-units | checked 1 | pass\n"
        "counit-coproduct | checked 2 | pass\n"
        "coassociativity | checked 2 | pass\n"
        "comodule-counit | checked 15 | FAIL (counit on a^3*ul^-1)\n"
        "comodule-coassociativity | checked 15 | FAIL (coassoc on a^3*ul^-1)\n"
    )


def test_check_exits_1_and_prints_the_failed_axiom(monkeypatch):
    # a failed axiom reaches the user as a FAIL row and exit status 1
    monkeypatch.setattr(hopf, "geometric_algebroid", geometric_with_coassociativity_broken)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["check", "--preset", "geometric", "--p", "3", "--window", "0:4:0:0"])
    assert code == cli.EXIT_FAIL == 1
    assert "coassociativity | checked 15 | FAIL (coassoc on yb)\n" in out.getvalue()


def test_ul_power_pn_is_primitive():
    # psi(ul^(p^n)) = ul^(p^n) (x) 1: the Nm-term needs Nm^(p^n) = 0
    for p, n in [(3, 1), (3, 2)]:
        H, M = truncated_hopf(p, n)
        mod = M.module
        img = M.psi.apply(Element.from_monomial(mod, mod.monomial(ul=p**n)))
        assert img.coeffs == {(mod.monomial(ul=p**n), H.total.unit_monomial()): 1}
        img = M.psi.apply(Element.from_monomial(mod, mod.monomial(ul=-(p**n))))
        assert img.coeffs == {(mod.monomial(ul=-(p**n)), H.total.unit_monomial()): 1}


def test_geometric_algebroid():
    H = geometric_algebroid(3)
    y = Element.generator(H.base, "y")
    diff = H.eta_R.apply(y) + H.eta_L.apply(y).scale(-1)
    assert not diff.is_zero()  # yb - y != 0
    assert H.epsilon.apply(Element.generator(H.total, "yb")) == y
    # complete monomial basis of the total ring in degree 2: {y, yb, x*xb}
    from spokeseq.algebra import monomials_in_degree

    labels = {H.total.format_monomial(m) for m in monomials_in_degree(H.total, D(2, 0))}
    assert labels == {"y", "yb", "x*xb"}


def test_geometric_axioms():
    H = geometric_algebroid(3)
    report = check_axioms(H, DegreeWindow(0, 10, 0, 0, s_max=6), comodule=base_comodule(H))
    assert report.ok, report.format()


def test_eta_r_mod_coideal_equals_eta_l():
    # dropping Nm- and mu-terms from eta_R gives eta_L
    H = descent_algebroid(3)
    nm_i, mu_i = H.total.index["Nm"], H.total.index["mu"]
    for name in H.base.names:
        img = H.eta_R.apply(Element.generator(H.base, name))
        linear = {m: c for m, c in img.coeffs.items() if not m[nm_i] and not m[mu_i]}
        assert linear == H.eta_L.apply(Element.generator(H.base, name)).coeffs


def _slotwise_product(ctx, ka, kb):
    """The raw product of two tensor keys: slot by slot, with the sign of
    moving each factor of kb left past the later factors of ka."""
    cross = sum(
        ctx.slots[i].parity_of(kb[i]) * ctx.slots[j].parity_of(ka[j])
        for i in range(len(ka))
        for j in range(i + 1, len(ka))
    )
    sign = -1 if cross & 1 else 1
    parts = []
    for pres, ma, mb in zip(ctx.slots, ka, kb):
        prod, s = pres.mul_monomials(ma, mb)
        if prod is None:
            return {}
        parts.append(prod)
        sign *= s
    return {tuple(parts): sign}


def _canonical_keys(H, ctx, degrees):
    """Tensor keys whose slots are drawn from monomials_in_degree, with no
    base generator after slot 0."""
    per_slot = []
    for i, pres in enumerate(ctx.slots):
        monos = [m for d in degrees for m in monomials_in_degree(pres, d)]
        if i:
            base = [pres.index[n] for n in H.base.names if n in pres.index]
            monos = [m for m in monos if not any(m[k] for k in base)]
        per_slot.append(monos)
    return list(itertools.product(*per_slot))


def test_tensor_products_of_canonical_keys_need_no_normalisation():
    descent = descent_algebroid(3)
    geometric = geometric_algebroid(3)
    H, comodule = truncated_hopf(3, 1)
    small = [D(0, 0), D(0, -1), D(1, -1), D(1, 1), D(2, -2), D(2, 4)]
    cases = [
        (descent, descent.tensor_square, small),
        (geometric, geometric.tensor_square, [D(0, 0), D(1, 0), D(2, 0)]),
        (H, comodule.tensor, [D(0, 0), D(0, -1), D(1, -1), D(-2, 2), D(1, 1), D(2, 4)]),
        (H, H.tensor_power_of([H.total] * 3), [D(0, 0), D(1, 1), D(2, 4)]),
    ]
    for alg, ctx, degrees in cases:
        keys = _canonical_keys(alg, ctx, degrees)
        assert any(k[0] != ctx.slots[0].unit_monomial() for k in keys)
        for ka, kb in itertools.product(keys, repeat=2):
            product = Element(ctx, {ka: 1}) * Element(ctx, {kb: 1})
            assert product == ctx.element(_slotwise_product(ctx, ka, kb)), (ka, kb)


def _exponent(draw, g):
    if g.kind == EXT:
        return draw(st.integers(0, 1))
    if g.kind == TRUNC:
        return draw(st.integers(0, g.bound - 1))
    return draw(st.integers(-4 if g.kind == INV else 0, 6))


@st.composite
def tensor_keys(draw):
    """A tensor power M (x) Gamma^k of truncated_hopf and one of its keys."""
    H, M = truncated_hopf(draw(st.sampled_from((3, 5, 7))), draw(st.sampled_from((1, 2))))
    ctx = H.tensor_power_of((M.module,) + (H.total,) * draw(st.integers(1, 3)))
    key = tuple(tuple(_exponent(draw, g) for g in pres.generators) for pres in ctx.slots)
    return ctx, key


@given(tensor_keys())
def test_tensor_degree_is_sum_of_slot_degrees(case):
    ctx, key = case
    want = D(0, 0)
    for pres, mono in zip(ctx.slots, key):
        want = want + pres.lanes_of(mono)
    assert ctx.lanes_of(key) == (want.m, want.n)


def _reversed_slot_product(ctx, ka, kb):
    """The product of two tensor keys with the Koszul sign read walking the
    slots backwards, keeping the parity of ka's factors after each slot."""
    sign = 1
    parity_a = 0
    for pres, ma, mb in zip(reversed(ctx.slots), reversed(ka), reversed(kb)):
        if parity_a and pres.parity_of(mb):
            sign = -sign
        parity_a ^= pres.parity_of(ma)
    parts = []
    for pres, ma, mb in zip(ctx.slots, ka, kb):
        prod, s = pres.mul_monomials(ma, mb)
        if prod is None:
            return None, 0
        sign *= s
        parts.append(prod)
    return tuple(parts), sign


@given(tensor_keys(), st.data())
def test_forward_slot_sign_matches_reversed_slot_loop(case, data):
    ctx, ka = case
    kb = tuple(tuple(_exponent(data.draw, g) for g in pres.generators) for pres in ctx.slots)
    assert ctx.mul_monomials(ka, kb) == _reversed_slot_product(ctx, ka, kb)


def test_mixed_degree_tensor_element_rejected():
    H, M = truncated_hopf(3, 1)
    ctx = H.tensor_power_of((M.module, H.total))
    unit, mu = H.total.unit_monomial(), H.total.monomial(mu=1)
    ul, a2us = M.module.monomial(ul=1), M.module.monomial(a=2, us=1)
    # ul (x) 1 and a^2 us (x) mu both sit in 2-2@
    assert Element(ctx, {(ul, unit): 1, (a2us, mu): 1}).degree == D(2, -2)
    # the message names both degrees
    with pytest.raises(HomogeneityError, match="] mixing degrees 2-2@ and 1-3@ in one element$"):
        Element(ctx, {(ul, unit): 1, (a2us, unit): 1})


def _image_from_scratch(gmap, mono):
    """one * g1^e1 * g2^e2 * ..., each power |e| factors of the generator's
    image, or of its inverse when e < 0."""
    out = Element.one(gmap.target)
    for name, e in zip(gmap.source.names, mono):
        if e:
            factor = gmap.images[name] if e > 0 else invert(gmap.images[name])
            for _ in range(abs(e)):
                out = out * factor
    return out


def _exponent_box(pres):
    """Every monomial over a few exponents per generator: negative ones for
    an invertible generator, the top one for a truncated generator."""
    choices = []
    for g in pres.generators:
        if g.kind == EXT:
            choices.append((0, 1))
        elif g.kind == TRUNC:
            choices.append(sorted({0, 1, 2, pres.p, g.bound - 1} & set(range(g.bound))))
        elif g.kind == INV:
            choices.append((-3, -1, 0, 2))
        else:
            choices.append((0, 1, 3))
    return list(itertools.product(*choices))


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_prefix_cached_images_match_products_from_scratch(p, n):
    # each order runs on fresh maps; both meet cached prefixes, ascending
    # mostly shorter ones first, descending mostly walking down to them
    for reverse in (False, True):
        H, M = truncated_hopf(p, n)
        descent = descent_algebroid(p)
        maps = {
            "delta": H.delta,
            "psi": M.psi,
            "eta_R": descent.eta_R,
            "descent delta": descent.delta,
        }
        for name, gmap in maps.items():
            for mono in sorted(_exponent_box(gmap.source), reverse=reverse):
                assert gmap.apply_monomial(mono) == _image_from_scratch(gmap, mono), (name, mono)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)]),
    st.sampled_from(["presentation", "tensor", "three terms"]),
    st.data(),
)
def test_binomial_powers_match_squaring_and_the_geometric_inverse(pn, shape, data):
    # ul -> c1 ul + c2 a^(2p) Nm, with Nm^(p^n) = 0, in a presentation and in
    # the comodule's tensor context, and c3 ul^-1 a^(4p) Nm^2 as a third term
    p, n = pn
    c1, c2, c3 = (data.draw(st.integers(1, p - 1)) for _ in range(3))
    if shape == "tensor":
        H, M = truncated_hopf(p, n)
        mm, unit = M.module.monomial, H.total.unit_monomial()
        image = M.tensor.element(
            {(mm(ul=1), unit): c1, (mm(a=2 * p), H.total.monomial(Nm=1)): c2}
        )
    else:
        ring = Presentation(
            p,
            [
                *positive_cone(p, ul_kind=INV).generators,
                GeneratorSpec("Nm", D(2, 2 * (p - 1)), TRUNC, p**n),
            ],
        )
        terms = {ring.monomial(ul=1): c1, ring.monomial(a=2 * p, Nm=1): c2}
        if shape == "three terms":
            terms[ring.monomial(ul=-1, a=4 * p, Nm=2)] = c3
        image = Element(ring, terms)
    source = Presentation(p, [GeneratorSpec("ul", D(2, -2), INV)])
    gmap = GradedMap(source, image.ring, {"ul": image})
    # several exponents on one map, so that they share its lists of powers
    exponents = data.draw(st.lists(st.integers(-2 * p**n, 2 * p**n), min_size=1, max_size=4))
    for e in exponents:
        assert gmap.apply_monomial((e,)) == power_by_squaring(image, e), e


def test_weyl_order():
    for p in (3, 5, 7):
        g = weyl_matrix(p)
        power = identity(p - 1, p)
        for _ in range(p):
            power = power.matmul(g)
        assert power.entries == identity(p - 1, p).entries


def test_mk_formula_values():
    assert m_k_formula(3, 2) == 1  # floor(binom(3,1)/3)
    assert m_k_formula(3, 0) == 0
    assert m_k_formula(3, 1) == 0
    assert [m_k_formula(3, k) for k in range(8)] == [0, 0, 1, 1, 1, 2, 2, 2]


def test_mk_oracle_matches_formula_p3():
    for k in range(13):
        assert m_k_oracle(3, k) == m_k_formula(3, k), k


def test_mk_oracle_matches_formula_p5():
    for k in range(13):
        assert m_k_oracle(5, k) == m_k_formula(5, k), k


def m_k_oracle_reference(p, k):
    """rank (gamma - 1)^(p-1) on Sym^k in the monomial basis of mu_1..mu_(p-1),
    gamma read off weyl_matrix, the power applied to every basis vector: the
    reference for m_k_oracle's Jordan basis and module generators."""
    if k == 0:
        return 0
    nvars = p - 1
    gamma = weyl_matrix(p)
    gamma_cols = [
        {i: v for (i, j), v in gamma.entries.items() if j == col} for col in range(nvars)
    ]
    sym = Presentation(p, [GeneratorSpec(f"mu{i}", D(2, 0), POLY) for i in range(1, p)])
    basis = monomials_in_degree(sym, D(2 * k, 0))
    index = {mono: i for i, mono in enumerate(basis)}
    poly_cache = {(0,) * nvars: {(0,) * nvars: 1}}

    def gamma_of(mono):
        cached = poly_cache.get(mono)
        if cached is not None:
            return cached
        first = next(i for i, e in enumerate(mono) if e)
        smaller = tuple(e - 1 if i == first else e for i, e in enumerate(mono))
        out = {}
        for pm, c in gamma_of(smaller).items():
            for var, cv in gamma_cols[first].items():
                new = tuple(e + 1 if i == var else e for i, e in enumerate(pm))
                out[new] = (out.get(new, 0) + c * cv) % p
        out = {m: c for m, c in out.items() if c}
        poly_cache[mono] = out
        return out

    n_cols = []
    for mono in basis:
        col = dict(gamma_of(mono))
        col[mono] = (col.get(mono, 0) - 1) % p
        n_cols.append({index[m]: c for m, c in col.items() if c})

    def apply_n(vec):
        out = {}
        for j, c in vec.items():
            for i, v in n_cols[j].items():
                out[i] = (out.get(i, 0) + c * v) % p
        return {i: v for i, v in out.items() if v}

    power_cols = []
    for j in range(len(basis)):
        vec = {j: 1}
        for _ in range(p - 1):
            vec = apply_n(vec)
        power_cols.append(vec)
    return fp.rank(SparseMatFp.from_columns(power_cols, len(basis), p))


@pytest.mark.parametrize("p, k_max", [(3, 12), (5, 10), (7, 5)])
def test_mk_oracle_matches_column_walk(p, k_max):
    for k in range(k_max + 1):
        assert m_k_oracle(p, k) == m_k_oracle_reference(p, k), (p, k)


@pytest.mark.parametrize("p, k_max", [(7, 8), (11, 4), (13, 3)])
def test_mk_oracle_matches_formula_at_larger_primes(p, k_max):
    for k in range(k_max + 1):
        assert m_k_oracle(p, k) == m_k_formula(p, k), (p, k)


def two_unipotent_blocks(p):
    """J_2(1) + J_2(1) at p = 5: gamma^5 = 1, but gamma - 1 has two Jordan
    blocks, so mu_1 generates only a 2-dimensional submodule."""
    assert p == 5
    return SparseMatFp(4, 4, p, {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 2): 1, (3, 2): 1, (3, 3): 1})


def test_weyl_matrix_of_two_jordan_blocks_is_refused(monkeypatch):
    g = two_unipotent_blocks(5)
    power = identity(4, 5)
    for _ in range(5):
        power = power.matmul(g)
    assert power.entries == identity(4, 5).entries  # order p all the same
    monkeypatch.setattr(hopf, "weyl_matrix", two_unipotent_blocks)
    for k in (0, 1, 2):
        with pytest.raises(BookkeepingError, match=r"p = 5 is not one Jordan block"):
            m_k_oracle(5, k)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["mk", "--p", "5", "--k-max", "2"])
    assert code == 4
    assert err.getvalue().startswith("[E_BOOKKEEPING] weyl_matrix at p = 5")
    assert out.getvalue() == ""


def test_bad_parameters():
    with pytest.raises(ConfigError):
        descent_algebroid(4)
    with pytest.raises(ConfigError):
        descent_algebroid(3, beta=3)
    with pytest.raises(ConfigError):
        truncated_hopf(3, 0)
