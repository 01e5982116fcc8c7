"""Acceptance suite: one test per criterion, exact tolerances, stated budgets.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.
"""

import time
from collections import Counter

import pytest

from spokeseq import hfp, hopf
from spokeseq.algebra import (
    EXT,
    TRUNC,
    Element,
    GeneratorSpec,
    Presentation,
    monomials_in_degree,
)
from spokeseq.cobar import resolution_ext_table
from spokeseq.crosscheck import e1_vs_associated_graded, einfty_vs_ext
from spokeseq.grading import DegreeWindow, SpokeDegree, TriDegree
from spokeseq.hfp import HfpVariant, NegClass
from spokeseq.hopf import (
    Comodule,
    HopfAlgebroid,
    check_axioms,
    descent_algebroid,
    truncated_hopf,
)
from spokeseq.mayss import compute_pages, free_pattern_dim, segal_pipeline

from sparse_helpers import identity

D = SpokeDegree

SEGAL_WINDOW = DegreeWindow(-12, 2, -14, 14, s_max=6)
PAGE_WINDOW = DegreeWindow(-10, 6, -12, 12, s_max=6)
STANDARD_WINDOW = DegreeWindow(-6, 6, -8, 8, s_max=6)
# twice the headline window in each direction
WIDE_SEGAL_WINDOW = DegreeWindow(-24, 4, -28, 28, s_max=6)


def report(criterion, name, ok, elapsed=None, budget=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f" [{elapsed:.1f}s" + (f" < {budget}s]" if budget else "]")
    print(f"ACCEPTANCE {criterion} {name}: {status}{timing}")
    assert ok, f"criterion {criterion} ({name}) failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"


def segal_headline(p, stable_n=2, n_max=3, window=SEGAL_WINDOW):
    """The stated command line at prime p, end to end: (ok, elapsed).  The
    survivor tables must stabilize at height ``stable_n``."""
    import io
    from contextlib import redirect_stdout

    from spokeseq.cli import main, parse_report

    start = time.monotonic()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(
            ["segal", "--p", str(p), "--n-max", str(n_max), "--window", window.format()]
        )
    elapsed = time.monotonic() - start
    out = buf.getvalue()
    ok = code == 0 and "verdict: true" in out and f"stabilized at n={stable_n}" in out

    # survivors: exactly one class per a-power at m = 0, s = 0, nothing else
    _, rows = parse_report(out)
    final = {
        r[1].split(" ", 1)[1]: int(r[2])
        for r in rows
        if r[0] == f"n={stable_n}" and r[1].startswith("survivor")
    }
    expected = {
        f"neg {TriDegree(D(0, nn), 0, 0).format()}": 1
        for nn in range(window.n_min, 0)
    }
    expected[f"pos {TriDegree(D(0, 0), 0, 0).format()}"] = 1
    return ok and final == expected, elapsed


def test_criterion_1_segal_verdict():
    ok, elapsed = segal_headline(3)
    report(1, "completeness verdict p=3", ok, elapsed, 60)


@pytest.mark.parametrize("p, n_max, stable_n", ((3, 4, 3), (5, 3, 2), (7, 3, 2)))
def test_criterion_1_segal_verdict_wide_window(p, n_max, stable_n):
    # the verdict on twice the window: at p = 3 the survivor tables first
    # agree at n = 3, so the run needs n = 4 to see them stabilize
    ok, elapsed = segal_headline(p, stable_n, n_max=n_max, window=WIDE_SEGAL_WINDOW)
    report(1, f"completeness verdict p={p} on {WIDE_SEGAL_WINDOW.format()}", ok, elapsed, 60)


def test_criterion_2_e1_closed_form():
    start = time.monotonic()
    ok = True
    for n in (1, 2):
        good, failures = e1_vs_associated_graded(3, n, PAGE_WINDOW)
        if not good:
            print(f"  n={n} first mismatches: {failures[:3]}")
        ok = ok and good
    elapsed = time.monotonic() - start
    report(2, "first page vs associated-graded cohomology", ok, elapsed, 120)


def test_criterion_3_convergence():
    start = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        good, failures = einfty_vs_ext(3, n, PAGE_WINDOW)
        if not good:
            print(f"  n={n} first mismatches: {failures[:3]}")
        ok = ok and good
    elapsed = time.monotonic() - start
    report(3, "last-page totals equal direct Ext", ok, elapsed, 300)


@pytest.mark.parametrize("p, n", ((5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (7, 3)))
def test_criterion_3_convergence_at_larger_primes(p, n):
    # the verdict runs at p = 3, 5 and 7; each prime's last page must
    # converge to the direct Ext on the same window
    start = time.monotonic()
    good, failures = einfty_vs_ext(p, n, PAGE_WINDOW)
    if not good:
        print(f"  first mismatches: {failures[:3]}")
    elapsed = time.monotonic() - start
    report(3, f"last-page totals equal direct Ext p={p} n={n}", good, elapsed, 30)


@pytest.mark.parametrize(
    "p, n, window",
    (
        (3, 2, SEGAL_WINDOW),
        (5, 2, SEGAL_WINDOW),
        (7, 1, SEGAL_WINDOW),
        (3, 3, WIDE_SEGAL_WINDOW),
        (5, 2, WIDE_SEGAL_WINDOW),
        (7, 2, WIDE_SEGAL_WINDOW),
    ),
    ids=lambda value: value.format() if isinstance(value, DegreeWindow) else None,
)
def test_criterion_3_convergence_on_the_verdict_windows(p, n, window):
    # the verdict reads the last page on its own windows, at the heights
    # where its survivor tables stabilize; there the last page must converge
    # to the direct Ext too
    start = time.monotonic()
    good, failures = einfty_vs_ext(p, n, window)
    if not good:
        print(f"  first mismatches: {failures[:3]}")
    elapsed = time.monotonic() - start
    name = f"last-page totals equal direct Ext p={p} n={n} on {window.format()}"
    report(3, name, good, elapsed, 30)


def test_criterion_4_ep_negative_pattern():
    expanded = DegreeWindow(
        SEGAL_WINDOW.m_min - 2, SEGAL_WINDOW.m_max + 2,
        SEGAL_WINDOW.n_min, SEGAL_WINDOW.n_max, SEGAL_WINDOW.s_max,
    )
    pages = compute_pages(3, 1, expanded)
    last = pages[3]
    by_total = {}
    for tri, cell in last.cells.items():
        if cell.dim and tri.s <= SEGAL_WINDOW.s_max:
            by_total.setdefault(tri.total, {})[tri] = cell.dim
    ok = True
    for m in range(SEGAL_WINDOW.m_min, SEGAL_WINDOW.m_max + 1):
        for nn in range(SEGAL_WINDOW.n_min, SEGAL_WINDOW.n_max + 1):
            total = D(m, nn)
            if total.virtual_dim >= 0:
                continue
            tri = TriDegree(total, 0, 0)
            want = {tri: 1} if free_pattern_dim(3, 1, tri) else {}
            if by_total.get(total, {}) != want:
                ok = False
                print(f"  mismatch at {total.format()}")
    report(4, "page-3 negative cone is the free pattern (n=1)", ok)


def test_criterion_5_structure_maps():
    ok = True
    for p in (3, 5):
        H = descent_algebroid(p)
        result = check_axioms(H, STANDARD_WINDOW, comodule=hopf.base_comodule(H))
        if not result.ok:
            print(result.format())
        ok = ok and result.ok
    # degree-forced exponents 6 and 2 at p = 3
    H = descent_algebroid(3)
    total = H.total
    want_ul = Element.generator(total, "ul") + Element.from_monomial(
        total, total.monomial(a=6, Nm=1)
    )
    want_us = Element.generator(total, "us") + Element.from_monomial(
        total, total.monomial(a=2, mu=1)
    )
    ok = ok and H.eta_R.apply(Element.generator(H.base, "ul")) == want_ul
    ok = ok and H.eta_R.apply(Element.generator(H.base, "us")) == want_us
    report(5, "algebroid axioms p=3,5 and right-unit exponents", ok)


def test_criterion_6_free_summands():
    start = time.monotonic()
    ok = True
    for p in (3, 5):
        gamma = hopf.weyl_matrix(p)
        power = gamma
        for _ in range(p - 1):
            power = power.matmul(gamma)
        ok = ok and power.entries == identity(p - 1, p).entries
        for k in range(13):
            if hopf.m_k_formula(p, k) != hopf.m_k_oracle(p, k):
                ok = False
                print(f"  mismatch at p={p}, k={k}")
    elapsed = time.monotonic() - start
    report(6, "free-summand formula equals rank oracle", ok, elapsed, 10)


def test_criterion_7_point_ring_dimensions():
    ok = True
    pos_pres = hfp.positive_cone(3)
    # independent brute-force counts over generous exponent boxes, each box
    # walked once and counted by degree
    pos = Counter(
        D(0, -1) * a + D(2, -2) * ul + D(1, -1) * us
        for a in range(0, 30)
        for ul in range(0, 15)
        for us in (0, 1)
    )
    neg = Counter(
        NegClass(eps, j, k).degree
        for eps in (0, 1)
        for j in range(1, 30)
        for k in range(1, 40)
    )
    for m in range(-6, 7):
        for nn in range(-8, 9):
            d = D(m, nn)
            full = len(hfp.basis_in_degree(3, HfpVariant.FULL, d))
            if full != pos[d] + neg[d]:
                ok = False
                print(f"  dim mismatch at {d.format()}: {full} vs {pos[d]}+{neg[d]}")
            if len(monomials_in_degree(pos_pres, d)) != pos[d]:
                ok = False
                print(f"  positive-cone mismatch at {d.format()}")
    # torsion orders match labels
    for eps in (0, 1):
        for j in range(1, 5):
            for k in range(1, 6):
                if hfp.a_torsion_order(NegClass(eps, j, k)) != k:
                    ok = False
                    print(f"  torsion mismatch at ({eps},{j},{k})")
    report(7, "point-ring dimensions and torsion orders", ok)


def test_criterion_8_robustness():
    ok = True
    # beta-independence: identical page dimension reports
    w = DegreeWindow(-6, 2, -8, 8, s_max=4)
    pages_b1 = compute_pages(3, 1, w, beta=1, beta_prime=1)
    pages_b2 = compute_pages(3, 1, w, beta=2, beta_prime=2)
    for r in (1, 2, 3):
        if pages_b1[r].format() != pages_b2[r].format():
            ok = False
            print(f"  beta-dependent page {r}")
    H1, M1 = truncated_hopf(3, 1, beta=1)
    H2, M2 = truncated_hopf(3, 1, beta=2, beta_prime=2)
    t1 = resolution_ext_table(H1, M1, w)
    t2 = resolution_ext_table(H2, M2, w)
    if t1.format() != t2.format():
        ok = False
        print("  beta-dependent ext report")

    # generator reordering leaves dimension reports invariant
    p = 3
    reordered_total = Presentation(
        p,
        [
            GeneratorSpec("mu", D(1, 1), EXT),
            GeneratorSpec("Nm", D(2, 4), TRUNC, 3),
        ],
    )
    unit = reordered_total.unit_monomial()
    mono = lambda name: reordered_total.monomial(**{name: 1})
    H3 = HopfAlgebroid(
        p=p,
        base=Presentation(p, []),
        total=reordered_total,
        eta_R_images={},
        epsilon_images={
            "Nm": Element.zero(Presentation(p, [])), "mu": Element.zero(Presentation(p, []))
        },
        delta_images={
            "Nm": {(mono("Nm"), unit): 1, (unit, mono("Nm")): 1},
            "mu": {(mono("mu"), unit): 1, (unit, mono("mu")): 1},
        },
    )
    module = M1.module
    mm = lambda **kw: module.monomial(**kw)
    M3 = Comodule(
        H3,
        module,
        {
            "a": {(mm(a=1), unit): 1},
            "ul": {(mm(ul=1), unit): 1, (mm(a=6), mono("Nm")): 1},
            "us": {(mm(us=1), unit): 1, (mm(a=2), mono("mu")): 1},
        },
    )
    t3 = resolution_ext_table(H3, M3, w)
    if t1.dims() != t3.dims():
        ok = False
        print("  generator-order-dependent ext dimensions")

    # negative control: disabling the first differential flips the verdict
    control = segal_pipeline(3, 3, SEGAL_WINDOW, disable_d1=True)
    if control.verdict:
        ok = False
        print("  negative control failed to flip the verdict")
    report(8, "unit/order robustness and negative control", ok)


def test_criterion_9_segal_verdict_p5():
    # the paper's claim holds at every odd prime; the headline at p = 5
    ok, elapsed = segal_headline(5)
    report(9, "completeness verdict p=5", ok, elapsed, 60)


def test_criterion_10_segal_verdict_p7():
    # and at p = 7, where the survivor tables on this window are already
    # the same from n = 1 on
    ok, elapsed = segal_headline(7, stable_n=1)
    report(10, "completeness verdict p=7", ok, elapsed, 60)
