import hashlib
import io
import re
from contextlib import redirect_stdout

import pytest
from hypothesis import given, strategies as st

from spokeseq import charts, hopf, mayss
from spokeseq.algebra import TRUNC, GeneratorSpec, Monomial, Presentation, monomials_in_degree
from spokeseq.cli import main
from spokeseq.errors import BookkeepingError, ConfigError, WindowError
from spokeseq.fp import Subspace
from spokeseq.grading import DegreeWindow, SpokeDegree, TriDegree
from spokeseq.hopf import truncated_hopf
from spokeseq.mayss import (
    _times_a,
    a_shift_rank,
    associated_graded_check,
    associated_graded_ext_classes,
    compute_pages,
    d1_monomial,
    d1_monomial_reference,
    d_pminus1_monomial,
    digit_sum,
    e0_direct_weighted_ext,
    e1_monomials,
    e1_vs_associated_graded,
    einfty_vs_ext,
    may_e1,
    may_filtration_weight,
    page_one,
    segal_pipeline,
    turn_page,
)

from test_fp import kernel_oracle

D = SpokeDegree


def s_of(e1, mono):
    return sum(e * s for e, s in zip(mono, e1.s_deg))


def f_of(e1, mono):
    return sum(e * f for e, f in zip(mono, e1.f_deg))


def test_e1_generator_tridegrees():
    e1 = may_e1(3, 2)
    pres = e1.pres
    assert pres.generator("a").degree == D(0, -1)
    assert pres.generator("z").degree == D(0, 1)
    assert pres.generator("x0").degree == D(1, 4)
    assert pres.generator("x1").degree == D(5, 12)
    assert pres.generator("xp0").degree == D(4, 12)
    assert pres.generator("xp1").degree == D(16, 36)
    # s and f of the generators
    assert s_of(e1, pres.monomial(z=1)) == 1 and f_of(e1, pres.monomial(z=1)) == 1
    assert s_of(e1, pres.monomial(x1=1)) == 1 and f_of(e1, pres.monomial(x1=1)) == 1
    assert s_of(e1, pres.monomial(xp1=1)) == 2 and f_of(e1, pres.monomial(xp1=1)) == 3


def test_e1_cells():
    e1 = may_e1(3, 1)
    w = DegreeWindow(-4, 6, -6, 6, s_max=4)
    table = e1_monomials(e1, w)
    cell = _times_a(*table[TriDegree(D(0, -1), 0, 0)])
    assert [e1.pres.format_monomial(m) for m in cell] == ["a"]
    cell = _times_a(*table[TriDegree(D(5, 0), 1, 1)])
    assert "ul^2*x0" in {e1.pres.format_monomial(m) for m in cell}


def test_d1_formulas():
    e1 = may_e1(3, 1)
    pres = e1.pres
    out = d1_monomial(e1, pres.monomial(us=1))
    assert out == {pres.monomial(a=2, z=1): 1}
    out = d1_monomial(e1, pres.monomial(ul=1))
    assert out == {pres.monomial(a=6, x0=1): 1}
    out = d1_monomial(e1, pres.monomial(ul=-1))
    assert out == {pres.monomial(a=6, ul=-2, x0=1): 2}  # -beta = 2 mod 3
    # permanent cycles
    for name in ("a", "z", "x0", "xp0"):
        assert d1_monomial(e1, pres.monomial(**{name: 1})) == {}


def test_d1_beta_scaling():
    e1 = may_e1(3, 1, beta=2, beta_prime=2)
    pres = e1.pres
    assert d1_monomial(e1, pres.monomial(us=1)) == {pres.monomial(a=2, z=1): 2}
    assert d1_monomial(e1, pres.monomial(ul=1)) == {pres.monomial(a=6, x0=1): 2}


@st.composite
def random_e1_monomial(draw, p=3, n=2):
    e1 = may_e1(p, n)
    kw = {
        "a": draw(st.integers(0, 3)),
        "ul": draw(st.integers(-(p**n), p**n)),
        "us": draw(st.integers(0, 1)),
        "z": draw(st.integers(0, 2)),
    }
    for t in range(n):
        kw[f"x{t}"] = draw(st.integers(0, 1))
        kw[f"xp{t}"] = draw(st.integers(0, 2))
    return e1, e1.pres.monomial(**kw)


@given(random_e1_monomial())
def test_d1_matches_leibniz_reference(pair):
    e1, mono = pair
    assert d1_monomial(e1, mono) == d1_monomial_reference(e1, mono)


@given(random_e1_monomial())
def test_d1_squares_to_zero(pair):
    e1, mono = pair
    acc = {}
    for mid, c in d1_monomial(e1, mono).items():
        for tgt, c2 in d1_monomial(e1, mid).items():
            acc[tgt] = (acc.get(tgt, 0) + c * c2) % 3
    assert not any(acc.values())


@given(random_e1_monomial())
def test_d1_tridegree_shift(pair):
    e1, mono = pair
    src_total = e1.pres.lanes_of(mono)
    for tgt in d1_monomial(e1, mono):
        assert e1.pres.lanes_of(tgt) == src_total - D(1, 0)
        assert s_of(e1, tgt) == s_of(e1, mono) + 1
        assert f_of(e1, tgt) == f_of(e1, mono) + 1


def test_d2_digit_rule():
    e1 = may_e1(3, 1)
    pres = e1.pres
    # the stated class: coefficient is the Wilson unit -1 = 2
    out = d_pminus1_monomial(e1, pres.monomial(ul=2, x0=1))
    assert out == {pres.monomial(a=12, xp0=1): 2}
    # digit 0 kills the differential: ul^-3 has last digit 0
    assert d_pminus1_monomial(e1, pres.monomial(a=5, ul=-3, x0=1)) == {}
    # no x factor, no differential
    assert d_pminus1_monomial(e1, pres.monomial(ul=2)) == {}


@given(random_e1_monomial())
def test_d2_tridegree_shift(pair):
    e1, mono = pair
    p = e1.p
    src_total = e1.pres.lanes_of(mono)
    for tgt in d_pminus1_monomial(e1, mono):
        assert e1.pres.lanes_of(tgt) == src_total - D(1, 0)
        assert s_of(e1, tgt) == s_of(e1, mono) + 1
        assert f_of(e1, tgt) == f_of(e1, mono) + (p - 1)


def times_a(e1, mono):
    a_i = e1.a_pos
    return mono[:a_i] + (mono[a_i] + 1,) + mono[a_i + 1 :]


@pytest.mark.parametrize("rule", [d1_monomial, d_pminus1_monomial])
@given(st.sampled_from([3, 5, 7]).flatmap(lambda p: random_e1_monomial(p=p)))
def test_differentials_commute_with_a(rule, pair):
    # turn_page computes each a-column once on the strength of this: the
    # rule on a * mono is a times the rule on mono, coefficient by coefficient
    e1, mono = pair
    want = {times_a(e1, tgt): c for tgt, c in rule(e1, mono).items()}
    assert rule(e1, times_a(e1, mono)) == want


@pytest.mark.parametrize("p, n", [(3, 2), (5, 1)])
def test_shared_cells_equal_computed_cells(p, n):
    # differentials keep n, so raising n_max changes no cell of the smaller
    # window; its top row is computed there and shared in the taller one
    window = DegreeWindow(-5, 2, -6, 3, s_max=3)
    taller = DegreeWindow(-5, 2, -6, 5, s_max=3)
    small = compute_pages(p, n, window)
    large = compute_pages(p, n, taller)
    assert small.keys() == large.keys()
    for r in small:
        cells = small[r].cells
        assert cells.keys() == {t for t in large[r].cells if window.contains(t.total)}
        top = [tri for tri in cells if tri.total.n == window.n_max]
        assert not any(cells[tri].shared for tri in top)
        shared_top = [tri for tri in top if large[r].cells[tri].shared]
        assert shared_top, r
        if r > 1:
            # some of them hold classes that a differential changed
            assert any(large[r].cells[tri].dead.rows for tri in shared_top), r
        for tri, cell in cells.items():
            other = large[r].cells[tri]
            assert cell.reps.rows == other.reps.rows, (r, tri)
            assert cell.dead.rows == other.dead.rows, (r, tri)


def is_a_translate(e1, lower, upper):
    """Whether lower lists exactly a times the monomials of upper, in order."""
    return lower == [times_a(e1, mono) for mono in upper]


def upper_tri(tri):
    return TriDegree(D(tri.total.m, tri.total.n + 1), tri.s, tri.f)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_first_page_a_column_layout(p, n):
    # every first-page cell lists its a-free monomials, then a times the
    # cell above; page_one shares a cell on that layout alone, by length,
    # and must share exactly the cells that list a times the cell above
    e1 = may_e1(p, n)
    assert e1.a_pos == 0
    window = DegreeWindow(-4, 2, -5, 3, s_max=3)
    table = {tri: _times_a(*entry) for tri, entry in e1_monomials(e1, window).items()}
    with_upper = 0
    for tri, monos in table.items():
        upper = table.get(upper_tri(tri))
        if upper is None:
            continue
        with_upper += 1
        offset = len(monos) - len(upper)
        assert offset >= 0, tri
        assert monos[offset:] == [times_a(e1, mono) for mono in upper], tri
        assert all(mono[e1.a_pos] == 0 for mono in monos[:offset]), tri
    cells = page_one(e1, window).cells
    assert cells.keys() == table.keys()
    oracle = {
        tri: upper_tri(tri) in table and is_a_translate(e1, table[tri], table[upper_tri(tri)])
        for tri in table
    }
    assert {tri: cell.shared for tri, cell in cells.items()} == oracle
    assert 0 < sum(oracle.values()) < with_upper


def e1_monomials_eager(e1, window, s_cap):
    """The former body of mayss.e1_monomials, which built every cell as a
    list: its a-free monomials, sorted, then a times the cell above.  Kept
    as the oracle for the (head list, shift) translate entries."""
    n = e1.n
    pres = e1.pres
    ngen = len(pres)
    s_deg, f_deg = e1.s_deg, e1.f_deg

    # (monomial, m, n) of every generator part within the s budget, by (s, f)
    gen_parts: dict[tuple[int, int], list[tuple[Monomial, int, int]]] = {}

    def rec_xp(t, acc_mono, acc_m, acc_n, acc_s, acc_f):
        if t == n:
            gen_parts.setdefault((acc_s, acc_f), []).append((tuple(acc_mono), acc_m, acc_n))
            return
        i = e1.xp_pos[t]
        d, ds, df = pres.degrees[i], s_deg[i], f_deg[i]
        j = 0
        while acc_s + ds * j <= s_cap:
            acc_mono[i] = j
            rec_xp(t + 1, acc_mono, acc_m + d.m * j, acc_n + d.n * j, acc_s + ds * j, acc_f + df * j)
            j += 1
        acc_mono[i] = 0

    def rec_x(t, acc_mono, acc_m, acc_n, acc_s, acc_f):
        if t == n:
            rec_xp(0, acc_mono, acc_m, acc_n, acc_s, acc_f)
            return
        i = e1.x_pos[t]
        d, ds, df = pres.degrees[i], s_deg[i], f_deg[i]
        for e in (0, 1):
            if acc_s + ds * e > s_cap:
                break
            acc_mono[i] = e
            rec_x(t + 1, acc_mono, acc_m + d.m * e, acc_n + d.n * e, acc_s + ds * e, acc_f + df * e)
        acc_mono[i] = 0

    z_i = e1.z_pos
    z_deg, z_s, z_f = pres.degrees[z_i], s_deg[z_i], f_deg[z_i]
    base = [0] * ngen
    for k in range(s_cap // z_s + 1):
        base[z_i] = k
        rec_x(0, base, z_deg.m * k, z_deg.n * k, z_s * k, z_f * k)
    base[z_i] = 0

    a_i, ul_i, us_i = e1.a_pos, e1.ul_pos, e1.us_pos
    n_min, n_max = window.n_min, window.n_max
    out: dict[TriDegree, list[Monomial]] = {}
    for m in range(window.m_min, window.m_max + 1):
        for (s, f), parts in gen_parts.items():
            # a-free monomials by row; the top row also takes those above it
            heads: dict[int, list[Monomial]] = {}
            for g_mono, g_m, g_n in parts:
                # a^alpha ul^l us^eps has degree (eps+2l, -alpha-eps-2l)
                rem_m = m - g_m
                n0 = g_n - rem_m
                if n0 < n_min:
                    continue
                eps = rem_m % 2
                mono = list(g_mono)
                mono[a_i] = max(n0 - n_max, 0)
                mono[ul_i] = (rem_m - eps) // 2
                mono[us_i] = eps
                heads.setdefault(min(n0, n_max), []).append(tuple(mono))
            if not heads:
                continue
            cell: list[Monomial] = []
            for nn in range(max(heads), n_min - 1, -1):
                cell = sorted(heads.get(nn, ())) + [
                    mono[:a_i] + (mono[a_i] + 1,) + mono[a_i + 1 :] for mono in cell
                ]
                out[TriDegree(D(m, nn), s, f)] = cell
    return out


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_lazy_cells_match_eager_oracle(p, n):
    # e1_monomials lists a translate cell as its head's list and the shift
    # from it, and a page stores heads only; every first-page entry and
    # every cell of every page, a^shift times its base, lists what the eager
    # enumeration lists, and its index is its base's
    e1 = may_e1(p, n)
    window = DegreeWindow(-5, 2, -5, 3, s_max=2)
    eager = e1_monomials_eager(e1, window, 4)
    table = e1_monomials(
        e1, DegreeWindow(window.m_min, window.m_max, window.n_min, window.n_max, s_max=4)
    )
    assert list(table) == list(eager)
    assert any(shift for _, shift in table.values())
    heads = {}
    for tri, (base, shift) in table.items():
        if not shift:
            heads[(tri.total.m, tri.s, tri.f)] = base
        # a translate shares the list of the nearest head above it
        assert base is heads[(tri.total.m, tri.s, tri.f)], tri
    assert {tri: _times_a(*entry) for tri, entry in table.items()} == eager
    for r, page in compute_pages(p, n, window).items():
        lifted = {tri: _times_a(cell.base, cell.shift) for tri, cell in page.cells.items()}
        assert lifted == eager, r
        for cell in page.cells.values():
            assert cell.index == {mono: i for i, mono in enumerate(cell.base)}


def test_segal_and_printed_pages_build_no_translate_list(monkeypatch, tmp_path):
    # a page cell is a^shift times a first-page head list: differentials,
    # labels, charts and a-towers read the head's list, so neither segal
    # nor a printed may page, with its charts, lifts a whole head list once
    # e1_monomials has returned it
    heads = []  # every returned head list, kept alive so no id is reused
    head_ids = set()
    lifted = []
    calls = 0
    real_e1_monomials, real_times_a = mayss.e1_monomials, mayss._times_a

    def recording_e1_monomials(e1, window):
        table = real_e1_monomials(e1, window)
        for base, shift in table.values():
            if not shift:
                heads.append(base)
                head_ids.add(id(base))
        return table

    def recording_times_a(monomials, k):
        nonlocal calls
        calls += 1
        if id(monomials) in head_ids:
            lifted.append((len(monomials), k))
        return real_times_a(monomials, k)

    monkeypatch.setattr(mayss, "e1_monomials", recording_e1_monomials)
    monkeypatch.setattr(mayss, "_times_a", recording_times_a)
    report = segal_pipeline(3, 3, DegreeWindow(-6, 1, -8, 8, s_max=4))
    assert report.verdict
    buf = io.StringIO()
    with redirect_stdout(buf):
        query = ["may", "--p", "5", "--n", "2", "--window", "-4:1:-6:6", "--s-max", "3"]
        assert main([*query, "--svg", "--out", str(tmp_path)]) == 0
    assert "| a^" in buf.getvalue()
    assert list(tmp_path.glob("*.svg"))
    assert heads and calls
    assert not lifted


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 1)])
def test_pages_below_the_diagonal_equal_the_localized_page(p, n):
    # the cell at (m, n) lists the parts that are a-free at n0 >= n, and
    # n0 >= -m, so below the diagonal (m + n < 0) every cell is a^k times
    # the one-row page at n = N <= -m_max - 1, where a is inverted; on every
    # page, the reliable cells there have its dimensions, in both directions
    window = DegreeWindow(-8, 3, -10, 10, s_max=4)
    row = -window.m_max - 1
    pages = compute_pages(p, n, window)
    localized = compute_pages(p, n, DegreeWindow(-8, 3, row, row, s_max=4))
    compared = 0
    for r, page in pages.items():
        lo, hi = page.reliable_m
        assert localized[r].reliable_m == (lo, hi)
        want: dict[int, dict] = {}
        for tri, cell in localized[r].cells.items():
            if cell.dim and tri.s <= window.s_max:
                want.setdefault(tri.total.m, {})[(tri.s, tri.f)] = cell.dim
        got: dict[tuple[int, int], dict] = {}
        for tri, cell in page.cells.items():
            m, nn = tri.total.m, tri.total.n
            if lo <= m <= hi and m + nn < 0 and tri.s <= window.s_max:
                compared += 1
                if cell.dim:
                    got.setdefault((m, nn), {})[(tri.s, tri.f)] = cell.dim
        for m in range(lo, hi + 1):
            for nn in range(window.n_min, min(window.n_max, -m - 1) + 1):
                assert got.get((m, nn), {}) == want.get(m, {}), (r, m, nn)
    assert compared


def a_shift_rank_by_lookup(page, tri, steps):
    """Rank of a^steps out of a cell, lifting every monomial by a and looking
    it up in the target cell's lifted list; None when the tower leaves the
    window."""
    cell = page.cells.get(tri)
    if cell is None or not cell.dim:
        return 0
    vecs = cell.reps.rows
    total = tri.total
    for step in range(1, steps + 1):
        tcell = page.cells.get(TriDegree(D(total.m, total.n - step), tri.s, tri.f))
        if tcell is None:
            return None
        index = {mono: i for i, mono in enumerate(_times_a(tcell.base, tcell.shift))}
        shifted = []
        for vec in vecs:
            out = [0] * len(index)
            for mono, c in zip(_times_a(cell.base, cell.shift), vec):
                if c:
                    out[index[times_a(page.e1, mono)]] = c
            shifted.append(tcell.dead.reduce(out))
        vecs = shifted
        cell = tcell
    return Subspace(vecs, len(cell.base), page.e1.p).rank


@pytest.mark.parametrize("p, n", [(3, 2), (5, 1)])
def test_a_shift_rank_matches_monomial_lookup(p, n):
    # a_shift_rank multiplies by a as a shift past the a-free monomials of
    # each head cell, and skips shared cells; lifting every monomial and
    # looking it up, step by step, must give the same ranks and the same
    # towers that leave the window
    last = compute_pages(p, n, DegreeWindow(-5, 2, -6, 3, s_max=3))[p]
    results = []
    for tri, cell in last.cells.items():
        if cell.dim:
            for steps in (1, 2, 3):
                got = a_shift_rank(last, tri, steps)
                assert got == a_shift_rank_by_lookup(last, tri, steps), (tri, steps)
                results.append(got)
    assert None in results and 0 in results and any(results)


def image_by_lookup(e1, diff_fn, cell, rep, tcell):
    """diff_fn on a representative over the source's lifted monomial list,
    its terms looked up in the target's lifted list; None when a term is
    outside it."""
    index = {mono: i for i, mono in enumerate(_times_a(tcell.base, tcell.shift))}
    out = [0] * len(index)
    stray = {}
    for mono, c in zip(_times_a(cell.base, cell.shift), rep):
        if not c:
            continue
        for tgt, c2 in diff_fn(e1, mono).items():
            if tgt in index:
                out[index[tgt]] = (out[index[tgt]] + c * c2) % e1.p
            else:
                stray[tgt] = (stray.get(tgt, 0) + c * c2) % e1.p
    return None if any(stray.values()) else out


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 1)])
def test_image_matches_lookup_in_lifted_lists(p, n):
    # _image runs diff_fn on the source's base and looks each term up in the
    # target's base at the relative shift; on every page, for both rules and
    # every source and target pair, that is diff_fn on the lifted source
    # list looked up in the lifted target list, at every sign of the shift
    pages = compute_pages(p, n, DegreeWindow(-4, 2, -6, 3, s_max=3))
    signs = set()
    for page in pages.values():
        e1 = page.e1
        for r, diff_fn in ((1, d1_monomial), (p - 1, d_pminus1_monomial)):
            for tri, cell in page.cells.items():
                total = tri.total
                tcell = page.cells.get(TriDegree(D(total.m - 1, total.n), tri.s + 1, tri.f + r))
                if tcell is None or not cell.dim:
                    continue
                signs.add((cell.shift > tcell.shift) - (cell.shift < tcell.shift))
                for rep in cell.reps.rows:
                    want = image_by_lookup(e1, diff_fn, cell, rep, tcell)
                    assert mayss._image(e1, diff_fn, cell, rep, tcell) == want, (tri, r)
    assert signs == {-1, 0, 1}


def differential_out_reference(e1, diff_fn, cell, tcell):
    """The former body of mayss._differential_out, kept as its oracle: the
    coordinates of each dead-reduced image on the target's representatives,
    the transposed coordinate matrix, its dense null space (read off the
    column-major rref oracle, not fp.rref), and the null vectors recombined
    into cycles over the cell's representatives."""
    p = e1.p
    dead = tcell.dead
    coords = []
    images = []
    for rep in cell.reps.rows:
        vec = mayss._image(e1, diff_fn, cell, rep, tcell)
        assert vec is not None
        residue = dead.reduce(vec) if dead.rank else vec
        if not any(residue):
            coords.append(None)
            continue
        c = tcell.reps.coordinates(residue)
        assert c is not None
        coords.append(c)
        images.append(residue)
    if not images:
        return None
    zero = [0] * tcell.dim
    matrix = [list(row) for row in zip(*(zero if c is None else c for c in coords))]
    size = cell.reps.dim
    cycles = []
    for kvec in kernel_oracle(matrix, p):
        acc = [0] * size
        for c, rep in zip(kvec, cell.reps.rows):
            if c:
                for i, v in enumerate(rep):
                    if v:
                        acc[i] = (acc[i] + c * v) % p
        cycles.append(acc)
    return cycles, images


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_differential_out_matches_the_null_space_reference(p, n):
    # one rref of the [residue | rep] rows against the former path through
    # coordinates and a null space: on every cell of the two pages a
    # differential leaves, views included, the cycles span the same space
    # and the images are the same vectors
    pages = compute_pages(p, n, DegreeWindow(-4, 2, -6, 3, s_max=3))
    nonzero = 0
    for r, diff_fn in ((1, d1_monomial), (p - 1, d_pminus1_monomial)):
        page = pages[r]
        for tri, cell in page.cells.items():
            total = tri.total
            tcell = page.cells.get(TriDegree(D(total.m - 1, total.n), tri.s + 1, tri.f + r))
            if tcell is None or not cell.dim:
                continue
            got = mayss._differential_out(page.e1, diff_fn, cell, tcell, r)
            want = differential_out_reference(page.e1, diff_fn, cell, tcell)
            assert (got is None) == (want is None), (tri, r)
            if got is None:
                continue
            nonzero += 1
            size = cell.reps.dim
            assert Subspace(got[0], size, p).rows == Subspace(want[0], size, p).rows, (tri, r)
            assert [tuple(v) for v in got[1]] == [tuple(v) for v in want[1]], (tri, r)
    assert nonzero


def direct_arrows(page, diff_fn):
    """The differential's arrows on a page by evaluating diff_fn on every
    representative: (source, target) wherever a dead-reduced image is
    nonzero."""
    out = set()
    for tri, cell in page.cells.items():
        if not cell.dim:
            continue
        total = tri.total
        target = TriDegree(D(total.m - 1, total.n), tri.s + 1, tri.f + page.r)
        tcell = page.cells.get(target)
        if tcell is None:
            continue
        for rep in cell.reps.rows:
            vec = mayss._image(page.e1, diff_fn, cell, rep, tcell)
            assert vec is not None, tri
            if any(tcell.dead.reduce(vec)):
                out.add((tri, target))
                break
    return out


ARROW_CASES = [
    pytest.param(3, 1, DegreeWindow(-3, 2, -3, 3, s_max=2), id="p3-n1"),
    pytest.param(3, 2, DegreeWindow(-4, 2, -6, 6, s_max=2), id="p3-n2"),
    pytest.param(5, 1, DegreeWindow(-5, 3, -6, 6, s_max=2), id="p5-n1"),
]


@pytest.mark.parametrize("p, n, window", ARROW_CASES)
def test_recorded_arrows_match_direct_evaluation(p, n, window):
    # turn_page decides each a-column once, at its head cells; the arrows it
    # records, shared cells included, are where the differential is nonzero
    # on some representative
    pages = compute_pages(p, n, window)
    for r, diff_fn in ((1, d1_monomial), (p - 1, d_pminus1_monomial)):
        arrows = pages[r + 1].arrows
        assert arrows, r
        assert any(pages[r].cells[src].shared for src, _ in arrows), r
        assert len(set(arrows)) == len(arrows), r
        assert set(arrows) == direct_arrows(pages[r], diff_fn), r
        for src, dst in arrows:
            total = src.total
            assert dst == TriDegree(D(total.m - 1, total.n), src.s + 1, src.f + r)
    # the first page and the copied pages come from no differential
    assert not any(pages[r].arrows for r in range(1, p) if r != 2)


@pytest.mark.parametrize("p, n, window", ARROW_CASES)
def test_chart_arrows_start_at_drawn_classes(p, n, window):
    # the pages run two s-rows above the cap; arrows out of those rows, and
    # arrows from the top drawn row into the first undrawn one, have an end
    # whose classes are not drawn, and are not drawn either
    pages = compute_pages(p, n, window)
    hidden = into_undrawn = 0
    for r in (1, p - 1):
        doc = charts.chart_from_page(pages[r], window.s_max)
        charts.add_differential_arrows(doc, pages[r + 1])
        drawn = list(dict.fromkeys(tri for tri, _ in doc.dots))
        recorded = dict(pages[r + 1].arrows)
        assert doc.arrows, r
        assert [(src, dst) for src, dst, _ in doc.arrows] == [
            (tri, recorded[tri]) for tri in drawn if recorded.get(tri) in drawn
        ]
        into_undrawn += sum(1 for tri in drawn if tri in recorded and recorded[tri] not in drawn)
        assert {arrow_r for _, _, arrow_r in doc.arrows} == {r}
        hidden += len(recorded) - len(doc.arrows)
    assert hidden and into_undrawn


def e2_negative_model(total, s_cap):
    """F_3[a, ul^{+-3}, xp0]<ul^2 x0> in virtual dimension < 0, n = 1."""
    out = {}
    for e in (0, 1):
        for j in range(0, s_cap // 2 + 1):
            s = e + 2 * j
            if s > s_cap:
                continue
            g = D(1, 4) * e + D(4, 12) * j
            rem = total - g
            if rem.m % 2:
                continue
            l = rem.m // 2
            if (l - 2 * e) % 3:
                continue
            if -(rem.m + rem.n) < 0:
                continue
            out[(s, e + 3 * j)] = out.get((s, e + 3 * j), 0) + 1
    return out


def collect_cells(page, total, s_cap):
    out = {}
    for tri, cell in page.cells.items():
        if tri.total == total and cell.dim and tri.s <= s_cap:
            out[(tri.s, tri.f)] = cell.dim
    return out


def test_e2_e3_negative_region_closed_forms():
    w = DegreeWindow(-8, 4, -10, 10, s_max=4)
    pages = compute_pages(3, 1, w)
    p2, p3 = pages[2], pages[3]
    for m in range(p2.reliable_m[0], p2.reliable_m[1] + 1):
        for n in range(-10, 11):
            total = D(m, n)
            if total.virtual_dim >= 0:
                continue
            assert collect_cells(p2, total, 4) == e2_negative_model(total, 4), total
    for m in range(p3.reliable_m[0], p3.reliable_m[1] + 1):
        for n in range(-10, 11):
            total = D(m, n)
            if total.virtual_dim >= 0:
                continue
            want = {(0, 0): 1} if total.m % 6 == 0 else {}
            assert collect_cells(p3, total, 4) == want, total


def test_pages_dims_never_grow():
    w = DegreeWindow(-5, 3, -6, 6, s_max=3)
    pages = compute_pages(3, 1, w)
    for r, r_next in ((1, 2), (2, 3)):
        lo, hi = pages[r_next].reliable_m
        for tri, cell in pages[r_next].cells.items():
            if lo <= tri.total.m <= hi:
                assert cell.dim <= pages[r].cells[tri].dim, tri


def test_filtration_weights_digit_rule():
    H, _ = truncated_hopf(3, 2)
    nm = lambda k: H.total.monomial(Nm=k)
    assert may_filtration_weight(H, nm(1)) == 1
    assert may_filtration_weight(H, nm(2)) == 2
    assert may_filtration_weight(H, nm(3)) == 1  # p-th power is primitive
    assert may_filtration_weight(H, nm(4)) == 2
    assert may_filtration_weight(H, nm(8)) == 4
    assert may_filtration_weight(H, H.total.monomial(mu=1)) == 1
    assert may_filtration_weight(H, H.total.monomial(Nm=3, mu=1)) == 2
    for k in range(1, 9):
        assert may_filtration_weight(H, nm(k)) == digit_sum(k, 3)


def test_associated_graded_dims():
    degrees = [D(2 * k, 4 * k) for k in range(5)] + [D(2 * k + 1, 4 * k + 1) for k in range(4)]
    ok, failures = associated_graded_check(3, 2, degrees)
    assert ok, failures


def test_e1_closed_form_vs_graded_small():
    w = DegreeWindow(-5, 4, -6, 6, s_max=4)
    for n in (1, 2):
        ok, failures = e1_vs_associated_graded(3, n, w)
        assert ok, failures[:5]


def test_kuenneth_assembly_matches_direct_e0_cobar():
    # triple check at small scale: the tensor-assembled classes agree with
    # the honest multi-line cobar of the associated graded
    p, n, s_cap = 3, 2, 3
    direct = e0_direct_weighted_ext(p, n, DegreeWindow(0, 8, 0, 14, s_max=s_cap))
    assembled_keyed = associated_graded_ext_classes(p, n, s_cap)
    for (s, internal, f), dim in direct.items():
        total = internal - D(s, 0)
        if 0 <= total.m <= 8 and 0 <= total.n <= 14:
            assert assembled_keyed.get((s, internal, f), 0) == dim, (s, internal, f)
    # and nothing assembled in that range is missed by the direct run
    for (s, internal, f), dim in assembled_keyed.items():
        total = internal - D(s, 0)
        if 0 <= total.m <= 8 and 0 <= total.n <= 14 and s <= s_cap:
            assert direct.get((s, internal, f), 0) == dim, (s, internal, f)


def test_e0_weight_preservation_is_checked(monkeypatch):
    # the split by filtration weight needs a weight the differential keeps;
    # the sum of squared exponents is not one (nu0^2 -> 2 nu0|nu0)
    window = DegreeWindow(0, 4, 0, 8, s_max=1)
    assert e0_direct_weighted_ext(3, 1, window)
    monkeypatch.setattr(mayss, "e0_weight", lambda pres, mono: sum(e * e for e in mono))
    with pytest.raises(BookkeepingError, match="filtration weight not preserved"):
        e0_direct_weighted_ext(3, 1, window)


@pytest.mark.parametrize("p, n", [(3, 1), (3, 2), (5, 1)])
def test_e1_pinned_coefficients_match_enumerator(p, n):
    # e1_monomials pins the coefficient part a^alpha ul^l us^eps in closed
    # form; the general enumerator over the whole first-page presentation,
    # with z and xp_t declared truncated at the s budget, must give the same
    # cells
    e1 = may_e1(p, n)
    s_cap = 4
    window = DegreeWindow(-5, 3, -6, 6, s_max=s_cap)
    bounds = {"z": s_cap + 1, **{f"xp{t}": s_cap // 2 + 1 for t in range(n)}}
    bounded = Presentation(
        p,
        [
            GeneratorSpec(g.name, g.degree, TRUNC, bounds[g.name]) if g.name in bounds else g
            for g in e1.pres.generators
        ],
    )
    expected = {}
    for total in window.degrees():
        for mono in monomials_in_degree(bounded, total):
            if s_of(e1, mono) <= s_cap:
                tri = TriDegree(total, s_of(e1, mono), f_of(e1, mono))
                expected.setdefault(tri, []).append(mono)
    assert {tri: _times_a(*entry) for tri, entry in e1_monomials(e1, window).items()} == expected


def test_associated_graded_lines_read_the_coproduct(monkeypatch):
    # each line's cohomology comes from build_cobar on primitive_hopf, so a
    # coproduct without its 1 (x) g term must change the graded answer
    window = DegreeWindow(-4, 2, -4, 4, s_max=3)
    assert e1_vs_associated_graded(3, 1, window)[0]

    def left_only(total, name):
        g = total.monomial(**{name: 1})
        return {(g, total.unit_monomial()): 1}

    monkeypatch.setattr(hopf, "_primitive_coproduct", left_only)
    ok, failures = e1_vs_associated_graded(3, 1, window)
    assert not ok and len(failures) == 504


def test_einfty_matches_ext_small():
    ok, failures = einfty_vs_ext(3, 1, DegreeWindow(-6, 3, -6, 6, s_max=3))
    assert ok, failures[:5]
    ok, failures = einfty_vs_ext(3, 2, DegreeWindow(-5, 3, -5, 5, s_max=3))
    assert ok, failures[:5]


def test_einfty_matches_ext_beta2():
    ok, failures = einfty_vs_ext(
        3, 1, DegreeWindow(-5, 3, -5, 5, s_max=3), beta=2, beta_prime=2
    )
    assert ok, failures[:5]


def test_einfty_matches_ext_p5():
    # at p = 5 two intermediate pages carry the zero differential; the
    # convergence check certifies that no differential is missing there
    ok, failures = einfty_vs_ext(5, 1, DegreeWindow(-5, 3, -6, 6, s_max=3))
    assert ok, failures[:5]


def test_segal_small_window_true():
    report = segal_pipeline(3, 3, DegreeWindow(-8, 1, -10, 10, s_max=4))
    assert report.stabilized and report.stabilized_at == 2
    assert report.verdict, report.format()


def test_segal_p5_true():
    report = segal_pipeline(5, 2, DegreeWindow(-8, 2, -10, 10, s_max=4))
    assert report.verdict, report.format()


def test_segal_negative_control():
    report = segal_pipeline(3, 3, DegreeWindow(-8, 1, -10, 10, s_max=4), disable_d1=True)
    assert not report.verdict
    # tables that stabilize with a mismatching negative cone: the note names
    # the first degree that fails the free-pattern model
    report = segal_pipeline(3, 2, DegreeWindow(-1, 0, -2, 2, s_max=2), disable_d1=True)
    assert report.stabilized and not report.verdict
    assert any(
        re.fullmatch(r"negative-cone pattern mismatch at -?\d+[+-]\d+@: page \{.+\}, model \d cell\(s\)", note)
        for note in report.notes
    ), report.notes


def test_segal_window_too_small():
    with pytest.raises(WindowError):
        segal_pipeline(3, 2, DegreeWindow(-3, 3, -3, 3, s_max=2))


@pytest.mark.parametrize(
    "window",
    [DegreeWindow(-1, 0, -2, -2, s_max=1), DegreeWindow(-3, -1, -2, 2, s_max=1),
     DegreeWindow(1, 2, -6, -3, s_max=1)],
)
def test_segal_window_without_origin(window):
    # the verdict looks for the a-line of survivors at 0+0@; a window without
    # it would report that line missing and a false verdict
    with pytest.raises(WindowError, match=r"window must contain 0\+0@"):
        segal_pipeline(3, 2, window)


def test_page_dims_beta_independent():
    w = DegreeWindow(-6, 2, -8, 8, s_max=4)
    p1 = compute_pages(3, 1, w, beta=1, beta_prime=1)
    p2 = compute_pages(3, 1, w, beta=2, beta_prime=2)
    for r in (1, 2, 3):
        assert p1[r].cells.keys() == p2[r].cells.keys()
        for tri, cell in p1[r].cells.items():
            assert cell.dim == p2[r].cells[tri].dim
            assert cell.labels == p2[r].cells[tri].labels


@given(random_e1_monomial())
def test_d1_d2_anticommute(pair):
    # graded part of the square-zero identity that makes the page-level
    # matrices independent of the choice of representatives
    e1, mono = pair
    acc = {}
    for mid, c in d1_monomial(e1, mono).items():
        for tgt, c2 in d_pminus1_monomial(e1, mid).items():
            acc[tgt] = (acc.get(tgt, 0) + c * c2) % 3
    for mid, c in d_pminus1_monomial(e1, mono).items():
        for tgt, c2 in d1_monomial(e1, mid).items():
            acc[tgt] = (acc.get(tgt, 0) + c * c2) % 3
    assert not any(acc.values()), e1.pres.format_monomial(mono)


@given(random_e1_monomial())
def test_d2_squares_to_zero(pair):
    e1, mono = pair
    acc = {}
    for mid, c in d_pminus1_monomial(e1, mono).items():
        for tgt, c2 in d_pminus1_monomial(e1, mid).items():
            acc[tgt] = (acc.get(tgt, 0) + c * c2) % 3
    assert not any(acc.values())


def test_turn_page_refuses_image_outside_target_cell():
    # d(us) must land in 0-1@|1|1; a^3 z has total degree 0-2@
    page1 = compute_pages(3, 1, DegreeWindow(-2, 1, -2, 2, s_max=1))[1]
    pres = page1.e1.pres
    us, stray = pres.monomial(us=1), pres.monomial(a=3, z=1)
    with pytest.raises(
        BookkeepingError,
        match=r"^\[E_BOOKKEEPING\] turn_page r=1 at 1-1@\|0\|0: differential image is "
        r"not homogeneous for its target cell 0-1@\|1\|1$",
    ):
        turn_page(page1, lambda _e1, mono: {stray: 1} if mono == us else {}, 2)


def test_turn_page_refuses_image_that_is_not_a_surviving_class():
    # z survives to page 2; a^16 ul^-3 us xp0 is in the right cell for a
    # page-2 differential out of z, but it is no d1-cycle and nothing has
    # died there, so its residue is neither dead nor a representative
    pages = compute_pages(3, 1, DegreeWindow(-2, 1, -2, 2, s_max=1))
    pres = pages[1].e1.pres
    z, target = pres.monomial(z=1), pres.monomial(a=16, ul=-3, us=1, xp0=1)
    assert pages[2].cells[TriDegree(D(0, 1), 1, 1)].dim == 1
    with pytest.raises(
        BookkeepingError,
        match=r"^\[E_BOOKKEEPING\] turn_page r=2 at 0\+1@\|1\|1: differential image is "
        r"not a surviving class at -1\+1@\|2\|3$",
    ):
        turn_page(pages[2], lambda _e1, mono: {target: 1} if mono == z else {}, 3)


# SHA-256 of the report bodies (every line not starting with '#'); these
# pages carry representatives with several monomials
PAGE_REPORT_DIGESTS = {
    "may --p 3 --n 2 --window -4:1:-6:6 --s-max 3":
        "c18305975e5ac8fb5d9a2885e59333d99dbdeffc8047c334ded52f87c8305f46",
    "may --p 5 --n 1 --window -4:1:-6:6 --s-max 3":
        "223ecf86818a7b408cc0581b209a4b61adcfb36f22493a027aaa052278333c2d",
}


@pytest.mark.parametrize("query", sorted(PAGE_REPORT_DIGESTS))
def test_page_reports_match_recorded_digests(query):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(query.split()) == 0
    body = "".join(
        line for line in buf.getvalue().splitlines(keepends=True) if not line.startswith("#")
    )
    assert hashlib.sha256(body.encode()).hexdigest() == PAGE_REPORT_DIGESTS[query]


def test_segal_formats_no_monomial(monkeypatch):
    # labels are formatted only when a page is printed, and segal prints none
    def refuse(self, mono):
        raise AssertionError("segal formatted a monomial")

    monkeypatch.setattr(Presentation, "format_monomial", refuse)
    report = segal_pipeline(3, 2, DegreeWindow(-1, 0, -2, 2, s_max=2))
    assert report.survivor_tables


@pytest.mark.parametrize("units", ({"beta": 3}, {"beta_prime": 0}))
def test_pages_refuse_a_non_unit_beta(units):
    # beta = 0 mod p would drop the d_1 and d_(p-1) terms it scales, and
    # the verdict would read the missing differentials as survivors
    window = DegreeWindow(-1, 0, -2, 2, s_max=2)
    with pytest.raises(ConfigError, match="must be a unit in F_3"):
        compute_pages(3, 2, window, **units)
    with pytest.raises(ConfigError, match="must be a unit in F_3"):
        segal_pipeline(3, 2, window, **units)
