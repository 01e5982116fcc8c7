from hypothesis import given, strategies as st

from spokeseq import hfp
from spokeseq.grading import SpokeDegree
from spokeseq.hfp import THETA, HfpVariant, NegClass, PosClass

D = SpokeDegree


def brute_negative(d):
    # S^-1 us^eps ul^-j a^-k has degree (eps - 1 - 2j, 2j + k - eps), so every
    # solution has 2j <= -m and k <= n - 1: the box j <= |m|/2, k <= |n|
    # holds them all and the search stays exhaustive
    out = []
    for eps in (0, 1):
        for j in range(1, abs(d.m) // 2 + 1):
            for k in range(1, abs(d.n) + 1):
                c = NegClass(eps, j, k)
                if c.degree == d:
                    out.append(c)
    return out


def test_basis_full_examples():
    assert hfp.basis_in_degree(3, HfpVariant.FULL, D(0, 0)) == ["1"]
    assert hfp.basis_in_degree(3, HfpVariant.FULL, D(-3, 3)) == ["S^-1*ul^-1*a^-1"]


def test_theta():
    assert THETA.degree == D(-2, 2)  # lambda - 2
    assert THETA.label() == "S^-1*us*ul^-1*a^-1"


def test_spoke_suspension_dimension():
    # degree (0,1): the suspended unit plus the p-2 extra module generators
    for p in (3, 5, 7):
        labels = hfp.basis_in_degree(p, HfpVariant.SPOKE_SUSPENSION, D(0, 1))
        assert len(labels) == p - 1
        assert "1*1s" in labels[0] or labels[0] == "1*1s"
        assert f"1t{p - 2}" in labels[-1]


@given(st.integers(-10, 10), st.integers(-10, 10))
def test_negative_solver_matches_brute_force(m, n):
    d = D(m, n)
    assert hfp.negative_basis_in_degree(d) == brute_negative(d)


@given(st.integers(-8, 8), st.integers(-8, 8))
def test_full_dimension_is_pos_plus_neg(m, n):
    d = D(m, n)
    full = len(hfp.basis_in_degree(3, HfpVariant.FULL, d))
    pos = len(hfp.basis_in_degree(3, HfpVariant.A_FREE, d))
    neg = len(hfp.negative_basis_in_degree(d))
    assert full == pos + neg
    assert neg <= 1


def test_multiply_fraction_rule():
    a = PosClass(1, 0, 0)
    theta_over_a = NegClass(eps=1, j=1, k=2)  # theta/a
    # a NamedTuple equals any tuple of the same items, so the class is checked too
    product = hfp.multiply_full(a, theta_over_a)
    assert type(product) is NegClass and product == THETA
    # ul^2 * (theta/ul) = 0: ul does not divide further
    theta_over_ul = NegClass(eps=1, j=2, k=1)
    assert hfp.multiply_full(PosClass(0, 2, 0), theta_over_ul) is None
    # negative * negative = 0
    assert hfp.multiply_full(theta_over_a, theta_over_a) is None


def test_multiply_positive():
    us = PosClass(0, 0, 1)
    assert hfp.multiply_full(us, us) is None
    kappa = hfp.multiply_full(PosClass(1, 0, 0), us)
    assert type(kappa) is PosClass and kappa == PosClass(a=1, ul=0, us=1)
    assert kappa.degree == D(1, -2)  # 1 - lambda


@given(st.integers(0, 1), st.integers(1, 6), st.integers(1, 6))
def test_torsion_order_matches_label(eps, j, k):
    c = NegClass(eps, j, k)
    assert hfp.a_torsion_order(c) == k
    # a^(k-1) nonzero, a^k zero
    x = c
    for _ in range(k - 1):
        x = hfp.multiply_full(PosClass(1, 0, 0), x)
        assert x is not None
    assert hfp.multiply_full(PosClass(1, 0, 0), x) is None


@given(st.integers(0, 4), st.integers(0, 3), st.integers(0, 1),
       st.integers(0, 1), st.integers(1, 5), st.integers(1, 5))
def test_fraction_product_degree_additivity(pa, pu, pe, eps, j, k):
    g = PosClass(pa, pu, pe)
    x = NegClass(eps, j, k)
    prod = hfp.multiply_full(g, x)
    if prod is not None:
        assert prod.degree == g.degree + x.degree


def test_completed_variant_unique_basis():
    labels = hfp.basis_in_degree(3, HfpVariant.A_COMPLETED_INVERTED, D(1, 5))
    assert labels == ["a^-6*us"]


def test_afree_matches_monomial_count_window():
    # cross-module consistency over a window
    from spokeseq.algebra import monomials_in_degree
    pres = hfp.positive_cone(3)
    for m in range(-4, 5):
        for n in range(-5, 5):
            d = D(m, n)
            assert len(hfp.basis_in_degree(3, HfpVariant.A_FREE, d)) == len(
                monomials_in_degree(pres, d)
            )


def test_variant_presentation_built_once():
    # every degree of a pi-hfp table then shares one enumerator memo
    full = hfp.variant_presentation(3, HfpVariant.FULL)
    assert hfp.variant_presentation(3, HfpVariant.FULL) is full
    assert hfp.variant_presentation(5, HfpVariant.FULL) is not full
