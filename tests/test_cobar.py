from functools import cache
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from spokeseq import cli, cobar, fp
from spokeseq.algebra import (
    EXT,
    INV,
    POLY,
    TRUNC,
    Element,
    GeneratorSpec,
    Presentation,
    monomials_in_degree,
)
from spokeseq.cobar import (
    DualOperators,
    ExtComplex,
    build_cobar,
    build_resolution_complex,
    ext0_primitives,
    ext_dimensions,
    ext_reads,
    resolution_ext_table,
    resolution_strands,
    stabilize_over_n,
    validate_dsquare,
)
from spokeseq.errors import (
    BookkeepingError,
    CompositionError,
    ConfigError,
    WindowIncompleteError,
)
from spokeseq.fp import SparseMatFp
from spokeseq.grading import DegreeWindow, SpokeDegree
from spokeseq.hopf import (
    Comodule,
    TensorContext,
    base_comodule,
    geometric_algebroid,
    primitive_hopf,
    truncated_hopf,
)

from sparse_helpers import apply

D = SpokeDegree


def key(internal, s):
    """The slice key (m, n, s) of C^s at an internal SpokeDegree."""
    return internal.m, internal.n, s


def trivial_comodule(H):
    return Comodule(H, Presentation(H.p, []), {})


def test_trivial_comodule_ext_concentrated_at_origin():
    H, _ = truncated_hopf(3, 1)
    triv = trivial_comodule(H)
    w = DegreeWindow(0, 0, 0, 0, s_max=0)
    cx = build_cobar(H, triv, w)
    table = ext_dimensions(cx)
    assert table.dims() == {(0, D(0, 0)): 1}


def test_cobar_builds_and_validates_gamma1():
    H, M = truncated_hopf(3, 1)
    w = DegreeWindow(-2, 2, -3, 3, s_max=2)
    cx = build_cobar(H, M, w)  # validation is part of the build
    # d0 kernel in the degree of a single primitive contains that primitive:
    # a sits in (0,-1) and is primitive
    internal = D(0, -1)
    basis0 = cx.bases[key(internal, 0)]
    mod = M.module
    a_mono = mod.monomial(a=1)
    col = [i for i, idx in enumerate(basis0) if idx == (a_mono, ())]
    assert len(col) == 1
    kernel = fp.kernel_basis(cx.diffs[key(internal, 0)])
    assert any(vec[col[0]] and all(not vec[i] for i in range(len(vec)) if i != col[0]) for vec in kernel)


def test_ext_examples_gamma1_p3():
    H, M = truncated_hopf(3, 1)
    w = DegreeWindow(-1, 2, -2, 5, s_max=2)
    table = ext_dimensions(build_cobar(H, M, w))
    # Ext^0 contains a in degree (0,-1)
    assert table.dim(0, D(0, -1)) == 1
    # Ext^1 nonzero at the class [mu] in total degree (0,1)
    assert table.dim(1, D(0, 1)) >= 1
    # Ext^1 nonzero at the class [Nm] in total degree (1,4)
    assert table.dim(1, D(1, 4)) >= 1


def test_ext0_equals_primitives():
    H, M = truncated_hopf(3, 1)
    w = DegreeWindow(-4, 4, -5, 5, s_max=1)
    table = ext_dimensions(build_cobar(H, M, w))
    prims = ext0_primitives(M, w.degrees())
    for d in w.degrees():
        assert table.dim(0, d) == prims.get(d, 0), d


def test_geometric_cobar_d0():
    H = geometric_algebroid(3)
    M = base_comodule(H)
    w = DegreeWindow(0, 4, 0, 0, s_max=2)
    cx = build_cobar(H, M, w)
    # d0(y) = [yb - y] is the nonzero class represented by the word [yb]
    internal = D(2, 0)
    basis0 = cx.bases[key(internal, 0)]
    basis1 = cx.bases[key(internal, 1)]
    y_col = basis0.index((H.base.monomial(y=1), ()))
    d0 = cx.diffs[key(internal, 0)]
    image = apply(d0, [1 if i == y_col else 0 for i in range(len(basis0))])
    assert any(image)
    yb_row = basis1.index((H.base.unit_monomial(), (H.total.monomial(yb=1),)))
    assert image[yb_row] % 3 != 0
    # descent cohomology of the unit map: H^0 = F_p in degree 0 only
    table = ext_dimensions(cx)
    assert table.dim(0, D(0, 0)) == 1
    assert table.dim(0, D(2, 0)) == 0
    assert table.dim(0, D(4, 0)) == 0


def test_resolution_strands_shape():
    H, _ = truncated_hopf(3, 2)
    gens = resolution_strands(H)
    labels = [st.label for st in gens.strands]
    assert labels == ["x0", "x1", "z"]
    # states at s=2: xp0, xp1, x0*x1, x0*z, x1*z, z^2 ... count them
    states = [st for st in gens.enumerate(2) if gens.s_of(st) == 2]
    assert len(states) == 6


class TwoKindStrands:
    """Strand formulas written out per kind, the oracle of the one periodic
    Strand.  Kind "e" (an exterior primitive) has states k >= 0, each step
    applying op_pi once; kind "y" (a height-p digit line) has states
    (eps, j), stepping eps 0 -> 1 with one extraction and eps 1 -> 0,
    j -> j + 1 with p - 1."""

    def __init__(self, H):
        p = H.p
        self.lines = []  # (kind, pi, degree, label, prime_label)
        for g in H.total.generators:
            if g.kind == EXT:
                self.lines.append(("e", H.total.monomial(**{g.name: 1}), g.degree, "z", ""))
            else:
                assert g.kind == TRUNC
                t = 0
                while p**t < g.bound:
                    y = sum(line[0] == "y" for line in self.lines)
                    pim = H.total.monomial(**{g.name: p**t})
                    self.lines.append(("y", pim, g.degree * p**t, f"x{y}", f"xp{y}"))
                    t += 1
        self.p = p

    def s_of_line(self, kind, c):
        return c if kind == "e" else c[0] + 2 * c[1]

    def s_of(self, state):
        return sum(self.s_of_line(line[0], c) for line, c in zip(self.lines, state))

    def degree_of(self, state):
        total = D(0, 0)
        for (kind, _, degree, _, _), c in zip(self.lines, state):
            total = total + degree * (c if kind == "e" else c[0] + c[1] * self.p)
        return total

    def label_of(self, state):
        parts = []
        for (kind, _, _, label, prime), c in zip(self.lines, state):
            if kind == "e":
                if c:
                    parts.append(label if c == 1 else f"{label}^{c}")
                continue
            eps, j = c
            if eps:
                parts.append(label)
            if j:
                parts.append(prime if j == 1 else f"{prime}^{j}")
        return "*".join(parts) if parts else "1"

    def enumerate(self, s_cap):
        states = [()]
        for kind, *_ in self.lines:
            comps = (
                range(s_cap + 1)
                if kind == "e"
                else [(eps, j) for j in range(s_cap // 2 + 1) for eps in (0, 1)]
            )
            states = [st + (c,) for st in states for c in comps]
        states = [st for st in states if self.s_of(st) <= s_cap]
        return sorted(states, key=lambda st: (self.s_of(st), st))

    def moves(self, state):
        out = []
        prefix = 0
        for i, ((kind, pi, _, _, _), c) in enumerate(zip(self.lines, state)):
            if kind == "e":
                new_c, fold = c + 1, 1
            elif c[0] == 0:
                new_c, fold = (1, c[1]), 1
            else:
                new_c, fold = (0, c[1] + 1), self.p - 1
            out.append((pi, state[:i] + (new_c,) + state[i + 1 :], fold, -1 if prefix % 2 else 1))
            prefix += self.s_of_line(kind, c)
        return out

    def periodic(self, state):
        """The oracle state as a periodic one: an exterior k is (0, k)."""
        return tuple((0, c) if kind == "e" else c for (kind, *_), c in zip(self.lines, state))


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_periodic_strands_match_two_kind_oracle(p, n):
    H, _ = truncated(p, n)
    gens = resolution_strands(H)
    oracle = TwoKindStrands(H)
    assert [st.pi for st in gens.strands] == [line[1] for line in oracle.lines]
    old_states = oracle.enumerate(6)
    states = gens.enumerate(6)
    assert states == [oracle.periodic(st) for st in old_states]
    for old, state in zip(old_states, states):
        assert gens.s_of(state) == oracle.s_of(old), state
        assert gens.degree_of(state) == oracle.degree_of(old), state
        assert gens.label_of(state) == oracle.label_of(old), state
        want = [
            (pi, oracle.periodic(new), fold, sign) for pi, new, fold, sign in oracle.moves(old)
        ]
        assert gens.moves(state) == want, state


def test_resolution_matches_cobar_gamma1():
    H, M = truncated_hopf(3, 1)
    w = DegreeWindow(-3, 2, -4, 4, s_max=3)
    direct = ext_dimensions(build_cobar(H, M, w))
    small = resolution_ext_table(H, M, w)
    assert direct.dims() == small.dims()


def test_resolution_matches_cobar_gamma2():
    H, M = truncated_hopf(3, 2)
    w = DegreeWindow(-2, 2, -2, 2, s_max=2)
    direct = ext_dimensions(build_cobar(H, M, w))
    small = resolution_ext_table(H, M, w)
    assert direct.dims() == small.dims()


def test_resolution_matches_cobar_gamma1_p5():
    H, M = truncated_hopf(5, 1)
    w = DegreeWindow(-2, 1, -2, 2, s_max=2)
    direct = ext_dimensions(build_cobar(H, M, w))
    small = resolution_ext_table(H, M, w)
    assert direct.dims() == small.dims()


def test_resolution_beta_independent_dims():
    H1, M1 = truncated_hopf(3, 1, beta=1)
    H2, M2 = truncated_hopf(3, 1, beta=2, beta_prime=2)
    w = DegreeWindow(-4, 2, -5, 5, s_max=3)
    t1 = resolution_ext_table(H1, M1, w)
    t2 = resolution_ext_table(H2, M2, w)
    assert t1.dims() == t2.dims()


def test_stabilize_degenerate_window():
    table, n, flag = stabilize_over_n(3, DegreeWindow(0, 0, 0, 0, s_max=1), 2)
    assert flag and n == 1
    # the unit survives; Ext^1 also holds the a-multiple of the exterior class
    assert table.dim(0, D(0, 0)) == 1
    assert table.dims() == {(0, D(0, 0)): 1, (1, D(0, 0)): 1}


def test_stabilize_small_window():
    # ul^{+-3} towers sit at m = +-6; a window reaching m = -8 distinguishes
    # n = 1 from n = 2, and n = 2 vs n = 3 agree
    w = DegreeWindow(-8, 4, -10, 10, s_max=2)
    table, n, flag = stabilize_over_n(3, w, 3)
    assert flag
    assert n == 2


def test_stabilize_primitive_a_all_n():
    w = DegreeWindow(0, 0, -1, -1, s_max=1)
    for n in (1, 2):
        H, M = truncated_hopf(5, n)
        t = resolution_ext_table(H, M, w)
        assert t.dim(0, D(0, -1)) == 1


@cache
def truncated(p, n):
    return truncated_hopf(p, n)


def fold_oracle(comodule, pi, m_mono, fold):
    """op_pi applied fold times, one Element per step and no memo: the
    reference for DualOperators.apply_fold."""
    M = comodule.module
    current = Element.from_monomial(M, m_mono)
    for _ in range(fold):
        acc = Element.zero(M)
        for mono, c in current.coeffs.items():
            img = comodule.psi.apply_monomial(mono)
            step = Element(M, {k[0]: v for k, v in img.coeffs.items() if k[1] == pi})
            acc = acc + step.scale(c)
        current = acc
    return current


@st.composite
def fold_cases(draw):
    """A strand's pi, an a-free module monomial and an a-power."""
    p = draw(st.sampled_from((3, 5, 7)))
    n = draw(st.sampled_from((1, 2)))
    H, M = truncated(p, n)
    pi = draw(st.sampled_from([strand.pi for strand in resolution_strands(H).strands]))
    base = M.module.monomial(ul=draw(st.integers(-3, 2 * p)), us=draw(st.integers(0, 1)))
    return M, pi, base, draw(st.integers(1, p**n + 2))


@settings(deadline=None)
@given(fold_cases())
def test_memoised_fold_matches_oracle(case):
    M, pi, base, a = case
    ops = DualOperators(M)
    assert ops.factored == ("a",)
    shifted = (a,) + base[1:]
    for fold in (M.module.p - 1, 1):
        # the a-shifted monomial first, so that the shifted query fills its
        # base's memo entry
        for mono in (shifted, base):
            assert ops.apply_fold(pi, mono, fold) == fold_oracle(M, pi, mono, fold).coeffs


def test_fold_keeps_generators_with_nontrivial_coaction():
    """Negative control: b is polynomial but psi(b) = b (x) 1 + 1 (x) Nm, so
    op_Nm(b^k) = k b^(k-1) is not b^k op_Nm(1) = 0 and b stays in the key."""
    p = 3
    H, _ = truncated(p, 2)
    module = Presentation(
        p,
        [GeneratorSpec("a", D(0, -1), POLY), GeneratorSpec("b", D(2, 2 * (p - 1)), POLY)],
    )
    unit, nm = H.total.unit_monomial(), H.total.monomial(Nm=1)
    psi = {
        "a": {(module.monomial(a=1), unit): 1},
        "b": {(module.monomial(b=1), unit): 1, (module.unit_monomial(), nm): 1},
    }
    M = Comodule(H, module, psi)
    ops = DualOperators(M)
    assert ops.factored == ("a",)
    for strand in resolution_strands(H).strands:
        for fold in (1, p - 1):
            # largest exponents first, so that shifted queries fill the memo
            for a in range(3, -1, -1):
                for b in range(2 * p, -1, -1):
                    mono = module.monomial(a=a, b=b)
                    want = fold_oracle(M, strand.pi, mono, fold).coeffs
                    assert ops.apply_fold(strand.pi, mono, fold) == want, (strand.label, mono)


def unshared_differential(gens, cx, ops, m, n, s):
    """The differential out of one slice, rebuilt column by column from
    apply_fold as an unshared builder would: the oracle of the a-column
    sharing in build_resolution_complex."""
    p = cx.p
    dst = cx.bases[(m, n, s + 1)]
    dst_index = {idx: i for i, idx in enumerate(dst)}
    columns = []
    for m_mono, state in cx.bases[(m, n, s)]:
        col = {}
        for pi, new_state, fold, sign in gens.moves(state):
            for mono, c in ops.apply_fold(pi, m_mono, fold).items():
                row = dst_index[(mono, new_state)]
                col[row] = (col.get(row, 0) + sign * c) % p
        columns.append(col)
    return SparseMatFp.from_columns(columns, len(dst), p)


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("n", (1, 2))
def test_shared_differentials_match_unshared_oracle(p, n):
    H, M = truncated(p, n)
    cx = build_resolution_complex(H, M, DegreeWindow(-4, 2, -2 * p, 4, s_max=3))
    ops, gens = DualOperators(M), resolution_strands(H)
    distinct = {id(d) for d in cx.diffs.values()}
    assert len(distinct) < len(cx.diffs)  # the window holds translates
    for k, d in cx.diffs.items():
        assert d == unshared_differential(gens, cx, ops, *k), k


@pytest.mark.parametrize("p", (3, 5))
@pytest.mark.parametrize("n", (1, 2))
def test_slice_bases_are_in_state_monomial_order(p, n):
    # the builder lists each slice state by state, each state's monomials in
    # enumerator order, and sorts nothing; the a-translate test and the
    # shared differentials rely on (state, monomial) order
    H, M = truncated(p, n)
    cx = build_resolution_complex(H, M, DegreeWindow(-4, 2, -2 * p, 4, s_max=3))
    assert sum(len(basis) > 1 for basis in cx.bases.values()) > 10
    for k, basis in cx.bases.items():
        assert basis == sorted(basis, key=lambda idx: (idx[1], idx[0])), k
        assert len(set(basis)) == len(basis), k


@pytest.mark.parametrize("p", (3, 5, 7))
@pytest.mark.parametrize("n", (1, 2))
def test_slice_bases_match_per_state_oracle(p, n):
    # the builder looks each state block up by integer (m, n) lanes; the
    # oracle lists it from SpokeDegree arithmetic, state by state
    H, M = truncated(p, n)
    window = DegreeWindow(-10, 6, -12, 12, s_max=4)
    cx = build_resolution_complex(H, M, window)
    gens = resolution_strands(H)
    states = gens.enumerate(window.s_max + 1)
    for (m, n, s), basis in cx.bases.items():
        want = [
            (mono, state)
            for state in states
            if gens.s_of(state) == s
            for mono in monomials_in_degree(M.module, D(m, n) - gens.degree_of(state))
        ]
        assert basis == want, (m, n, s)
    if (p, n) == (3, 2):
        # the ext-resolution-p3n2 query builds only the differentials its
        # Ext table reads, and shares those it can
        assert len(cx.diffs) == 2225
        assert len({id(d) for d in cx.diffs.values()}) == 358


def test_resolution_shares_most_differentials():
    """On the ext-resolution-p3n2 benchmark window, fewer than a quarter of
    the differentials are distinct matrices: the a-column sharing is on."""
    H, M = truncated(3, 2)
    cx = build_resolution_complex(H, M, DegreeWindow(-10, 6, -12, 12, s_max=4))
    distinct = {id(d) for d in cx.diffs.values()}
    assert 4 * len(distinct) < len(cx.diffs), (len(distinct), len(cx.diffs))


def test_no_factored_generator_shares_nothing():
    H, _ = truncated(3, 1)
    triv = trivial_comodule(H)
    assert DualOperators(triv).factored == ()
    w = DegreeWindow(0, 2, -2, 6, s_max=2)
    cx = build_resolution_complex(H, triv, w)
    assert len({id(d) for d in cx.diffs.values()}) == len(cx.diffs)
    assert ext_dimensions(cx).dims() == ext_dimensions(build_cobar(H, triv, w)).dims()


def test_validate_dsquare_composes_every_distinct_pair(monkeypatch):
    H, M = truncated(3, 2)
    cx = build_resolution_complex(H, M, DegreeWindow(-4, 2, -6, 4, s_max=3))
    want = {
        (id(d_low), id(cx.diffs[(m, n, s + 1)]))
        for (m, n, s), d_low in cx.diffs.items()
        if (m, n, s + 1) in cx.diffs
    }
    composed = []
    monkeypatch.setattr(
        fp, "check_zero_composite", lambda d1, d2, message: composed.append((id(d1), id(d2)))
    )
    validate_dsquare(cx)
    assert sorted(composed) == sorted(want)


@st.composite
def tiny_ext_cases(draw):
    """A prime, a height and a window inside -2:2:-2:2 with s_max <= 2; at
    p = 5, n = 2 s_max stays <= 1, since one cobar slice at s = 3 there
    already takes seconds, and p = 7 takes n = 1 only, for the same reason."""
    p = draw(st.sampled_from((3, 5, 7)))
    n = 1 if p == 7 else draw(st.sampled_from((1, 2)))
    m_lo, m_hi = sorted(draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2)))
    n_lo, n_hi = sorted(draw(st.lists(st.integers(-2, 2), min_size=2, max_size=2)))
    s_max = draw(st.integers(0, 1 if (p, n) == (5, 2) else 2))
    return p, n, DegreeWindow(m_lo, m_hi, n_lo, n_hi, s_max=s_max)


@settings(max_examples=15, deadline=None)
@given(tiny_ext_cases())
@example((5, 1, DegreeWindow(-2, 2, -2, 2, s_max=2)))
@example((7, 1, DegreeWindow(-2, 2, -2, 2, s_max=2)))
def test_resolution_matches_cobar_on_tiny_windows(case):
    """The shared resolution slices against the literal cobar route, which
    shares nothing."""
    p, n, window = case
    H, M = truncated(p, n)
    assert resolution_ext_table(H, M, window).dims() == ext_dimensions(build_cobar(H, M, window)).dims()


def test_resolution_rejects_algebroid():
    H = geometric_algebroid(3)
    with pytest.raises(ConfigError):
        resolution_strands(H)


def _corrupt_one_entry(cx):
    """Add 1 at (i, 0) of some d_low whose successor d_high has a nonzero
    column i, so d_high o d_low picks up that column."""
    for (m, n, s), d_low in cx.diffs.items():
        d_high = cx.diffs.get((m, n, s + 1))
        if d_high is None or not d_low.cols or d_high.is_zero():
            continue
        i = next(iter(d_high.entries))[1]
        entries = dict(d_low.entries)
        entries[(i, 0)] = entries.get((i, 0), 0) + 1
        cx.diffs[(m, n, s)] = SparseMatFp(d_low.rows, d_low.cols, d_low.p, entries)
        return
    raise AssertionError("no composable pair with a nonzero d_high")


@pytest.mark.parametrize(
    "build, route", [(build_cobar, "cobar"), (build_resolution_complex, "resolution")]
)
def test_validate_dsquare_names_route(build, route):
    H, M = truncated_hopf(3, 1)
    cx = build(H, M, DegreeWindow(-1, 1, -2, 2, s_max=2))
    validate_dsquare(cx)  # the built complex is sound
    _corrupt_one_entry(cx)
    with pytest.raises(CompositionError, match=rf"^\[E_DSQUARE\] {route} d\^2 != 0"):
        validate_dsquare(cx)


def test_ext_complex_checks_dsquare_where_it_is_made():
    # a hand-built ladder C^0 -> C^1 -> C^2 at internal degree 1-1@ whose
    # composite is [1]: making the complex refuses it, naming the route and
    # the internal degree; the same ladder with a zero bottom map is made
    d = SparseMatFp(1, 1, 3, {(0, 0): 1})
    window = DegreeWindow(1, 1, -1, -1, s_max=0)
    bases = {(1, -1, s): ["x"] for s in range(3)}
    with pytest.raises(
        CompositionError, match=r"^\[E_DSQUARE\] hand d\^2 != 0 at internal 1-1@, s=0$"
    ):
        ExtComplex("hand", 3, window, bases, {(1, -1, 0): d, (1, -1, 1): d}, str)
    zero = SparseMatFp.zero(1, 1, 3)
    cx = ExtComplex("hand", 3, window, bases, {(1, -1, 0): zero, (1, -1, 1): d}, str)
    assert ext_dimensions(cx).entries == {(0, D(1, -1)): (1, ("x",))}


def _with_extra_a(mono, module):
    """mono times a: one step off its degree."""
    i = module.index["a"]
    return mono[:i] + (mono[i] + 1,) + mono[i + 1 :]


def _fold_with_stray_term(monkeypatch, M):
    """Make every folded image carry one extra term of the wrong degree."""
    image = DualOperators._image

    def stray(self, pi, mono, fold):
        return {**image(self, pi, mono, fold), _with_extra_a(mono, M.module): 1}

    monkeypatch.setattr(DualOperators, "_image", stray)


def _normalize_with_stray_terms(monkeypatch, M):
    """Give every normalized cobar column a copy of each term, one a up."""
    normalize = TensorContext.normalize

    def stray(self, raw):
        out = dict(normalize(self, raw))
        for key in list(out):
            out[(_with_extra_a(key[0], M.module),) + key[1:]] = 1
        return out

    monkeypatch.setattr(TensorContext, "normalize", stray)


def test_resolution_lookup_rejects_a_term_of_the_wrong_degree(monkeypatch):
    """Negative control: the slice lookup is the resolution route's
    homogeneity guard, since apply_fold builds no Element."""
    H, M = truncated_hopf(3, 1)
    _fold_with_stray_term(monkeypatch, M)
    with pytest.raises(BookkeepingError, match="resolution image leaves slice"):
        build_resolution_complex(H, M, DegreeWindow(-1, 1, -2, 2, s_max=1))


def test_cobar_lookup_rejects_a_term_of_the_wrong_degree(monkeypatch):
    """Negative control: the slice lookup is the cobar route's homogeneity
    guard, since build_cobar reads TensorContext.normalize directly."""
    H, M = truncated_hopf(3, 1)
    _normalize_with_stray_terms(monkeypatch, M)
    with pytest.raises(BookkeepingError, match="cobar image leaves the enumerated slice"):
        build_cobar(H, M, DegreeWindow(-1, 1, -2, 2, s_max=1))


@pytest.mark.parametrize(
    "route, corrupt",
    [("resolution", _fold_with_stray_term), ("cobar", _normalize_with_stray_terms)],
)
def test_ext_exits_4_on_a_term_of_the_wrong_degree(monkeypatch, capsys, route, corrupt):
    # the structure maps are built before the corruption, which they also use
    H, M = truncated_hopf(3, 1)
    monkeypatch.setattr(cli.hopf, "truncated_hopf", lambda *args: (H, M))
    corrupt(monkeypatch, M)
    argv = ["ext", "--route", route, "--p", "3", "--n", "1", "--window", "-1:1:-2:2"]
    assert cli.main(argv + ["--s-max", "1"]) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("[E_BOOKKEEPING] ")


def read_set_oracle(window):
    """Per total degree t and s <= s_max, homology at s reads the
    differentials at (t + (s, 0), s) and, for s > 0, (t + (s, 0), s - 1)."""
    keys = set()
    for t in window.degrees():
        for s in range(window.s_max + 1):
            keys.add(key(t + D(s, 0), s))
            if s:
                keys.add(key(t + D(s, 0), s - 1))
    return keys


class RecordingDiffs(dict):
    """A differential dict that records every key read through []."""

    def __init__(self, diffs):
        super().__init__(diffs)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


READ_SET_WINDOWS = ("-1:0:-1:0", "-2:2:-2:2", "1:1:-3:0")


@pytest.mark.parametrize("build", (build_cobar, build_resolution_complex))
@pytest.mark.parametrize("p, n", ((3, 1), (3, 2), (5, 1)))
@pytest.mark.parametrize("window", READ_SET_WINDOWS)
def test_builders_build_exactly_the_read_set(build, p, n, window):
    H, M = truncated(p, n)
    w = DegreeWindow.parse(window, 2)
    cx = build(H, M, w)
    reads = read_set_oracle(w)
    assert set(ext_reads(w)) == reads
    assert set(cx.diffs) == reads
    assert set(cx.bases) == {(m, n, t) for m, n, s in reads for t in (s, s + 1)}
    table = ext_dimensions(cx)
    cx.diffs = RecordingDiffs(cx.diffs)
    assert ext_dimensions(cx) == table
    assert cx.diffs.read == reads


def bar_letters_oracle(H, max_m):
    """Every non-unit coideal monomial, over exponent ranges read off the
    kinds: 0..1 for an exterior generator, below the bound for a truncated
    one, and up to m = max_m alone for a polynomial one.  No word is
    dropped for its m: one past the window reaches no slice (the oracle's
    modules have m >= 0 wherever a coideal generator is polynomial), so the
    slices show whether build_cobar's cap dropped a letter it needed."""
    ranges = []
    for g in H.total.generators:
        if g.name in H.base.names:
            ranges.append(range(1))
        elif g.kind == EXT:
            ranges.append(range(2))
        elif g.kind == TRUNC:
            ranges.append(range(g.bound))
        else:
            ranges.append(range(max_m // g.degree.m + 1))
    return [word for word in product(*ranges) if any(word)]


def enumerate_slice_oracle(H, comodule, window, internal, s):
    """The recursive bar-word enumeration of one cobar slice, from scratch
    for every slice: the reference for build_cobar's words by lane."""
    M = comodule.module
    max_m = max((d + D(t, 0)).m for d in window.degrees() for t in range(window.s_max + 1))
    by_degree = {}
    for mono in bar_letters_oracle(H, max_m):
        by_degree.setdefault(H.total.lanes_of(mono), []).append(mono)
    bar_degrees = sorted(by_degree, key=lambda d: (d.m, d.n))
    min_bar_m = min((d.m for d in bar_degrees), default=0)
    m_nonneg = all(g.kind != INV and g.degree.m >= 0 for g in M.generators)
    out = []
    word = []

    def rec(slots_left, remaining):
        if slots_left == 0:
            for m_mono in monomials_in_degree(M, remaining):
                out.append((m_mono, tuple(word)))
            return
        for bd in bar_degrees:
            rest_m = remaining.m - bd.m
            if m_nonneg and rest_m - (slots_left - 1) * min_bar_m < 0:
                continue
            for b in by_degree[bd]:
                word.append(b)
                rec(slots_left - 1, remaining - bd)
                word.pop()

    rec(s, internal)
    out.sort()
    return out


def test_polynomial_letters_past_negative_m_are_refused():
    # over F_3[u^+-1] the slice C^1 at 0+0@ holds u^-k (x) y^k for every
    # k >= 1, so no cap at the window's largest m lists its letters
    y = GeneratorSpec("y", D(2, 0), POLY)
    H = primitive_hopf(3, [y])
    module = Presentation(3, [GeneratorSpec("u", D(2, 0), INV)])
    unit = H.total.unit_monomial()
    M = Comodule(H, module, {"u": {(module.monomial(u=1), unit): 1}})
    for window in ("0:0:0:0", "0:6:0:0"):
        with pytest.raises(WindowIncompleteError, match="coideal generator y"):
            build_cobar(H, M, DegreeWindow.parse(window, 1))
    # a letter of negative m does the same over F_3: the slice C^3 at 2+0@
    # holds x|x|y^2, whose letter y^2 has m = 4
    H = primitive_hopf(3, [y, GeneratorSpec("x", D(-1, 0), EXT)])
    trivial = Comodule(H, Presentation(3, []), {})
    with pytest.raises(WindowIncompleteError, match="coideal generator y"):
        build_cobar(H, trivial, DegreeWindow.parse("0:0:0:0", 2))


def geometric_base(p):
    H = geometric_algebroid(p)
    return H, base_comodule(H)


def exterior_with_a_negative_letter(p):
    # x has m = -1, so a bar word can pass the window's largest m and come
    # back below it: z|x lies in a slice that its prefix z overshoots
    H = primitive_hopf(p, [GeneratorSpec("x", D(-1, 0), EXT), GeneratorSpec("z", D(3, 0), EXT)])
    return H, trivial_comodule(H)


@pytest.mark.parametrize(
    "algebra, args, window",
    [
        (truncated, (3, 2), DegreeWindow(-1, 0, -1, 0, s_max=2)),
        (truncated, (3, 1), DegreeWindow(-2, 2, -3, 3, s_max=2)),
        (truncated, (5, 1), DegreeWindow(-2, 1, -2, 2, s_max=2)),
        (geometric_base, (3,), DegreeWindow(0, 4, 0, 0, s_max=2)),
        (exterior_with_a_negative_letter, (3,), DegreeWindow(-2, 1, 0, 0, s_max=2)),
    ],
)
def test_cobar_slices_match_recursive_oracle(algebra, args, window):
    H, M = algebra(*args)
    cx = build_cobar(H, M, window)
    for (m, n, s), basis in cx.bases.items():
        assert basis == enumerate_slice_oracle(H, M, window, D(m, n), s), (m, n, s)
    # the literal route shares no matrix: it is the oracle of the sharing
    assert len({id(d) for d in cx.diffs.values()}) == len(cx.diffs)
    if (algebra, args) == (truncated, (3, 2)):
        # the cobar-crosscheck-p3n2 query builds no slice its table does not read
        assert sum(len(basis) for basis in cx.bases.values()) == 21527
        assert len(cx.diffs) == 16


def test_equal_pairs_are_reduced_once(monkeypatch):
    # the cobar-crosscheck-p3n2 query's 16 differentials are 9 distinct
    # matrices, built apart: the homology pass compares them by content and
    # reduces 7 distinct pairs, where a memo on objects reduced 12
    H, M = truncated(3, 2)
    window = DegreeWindow(-1, 0, -1, 0, s_max=2)
    cx = build_cobar(H, M, window)
    # its two tall differentials out of s = 2: most of their nonzero rows
    # repeat an earlier one, and nonzero_rows hands each distinct one on once
    for key, nonzero, distinct in (((1, -1, 2), 2865, 1188), ((2, -1, 2), 2716, 1280)):
        d = cx.diffs[key]
        assert (d.rows, d.cols) == (4913, 289)
        assert len({i for i, _ in d.entries}) == nonzero
        rows = d.nonzero_rows()
        assert len(rows) == len(set(map(tuple, rows))) == distinct
    real = fp.quotient_dimension
    calls = []

    def counted(d_in, d_out):
        calls.append((d_in, d_out))
        return real(d_in, d_out)

    monkeypatch.setattr(fp, "quotient_dimension", counted)
    table = ext_dimensions(cx)
    assert len(calls) == 7
    monkeypatch.setattr(fp, "quotient_dimension", real)
    assert table.dims() == resolution_ext_table(H, M, window).dims()


def two_column_complex(first, second):
    """Two total degrees of one row, s = 0 only, with hand-made d_out."""
    window = DegreeWindow(0, 1, 0, 0, s_max=0)
    bases = {(0, 0, 0): ["x0", "x1"], (1, 0, 0): ["x0", "x1"]}
    diffs = {(0, 0, 0): first, (1, 0, 0): second}
    return ExtComplex("stub", 3, window, bases, diffs, str)


def test_pairs_of_one_shape_and_entry_count_are_told_apart():
    # negative control: [1 0] and [0 1] share shape and entry count but not
    # their kernels, so the two columns get different representatives; a
    # memo keyed on shape alone hands the second column the first's class
    first = SparseMatFp(1, 2, 3, {(0, 0): 1})
    second = SparseMatFp(1, 2, 3, {(0, 1): 1})
    table = ext_dimensions(two_column_complex(first, second))
    assert table.entries == {(0, D(0, 0)): (1, ("x1",)), (0, D(1, 0)): (1, ("x0",))}


def _drop_one_differential(monkeypatch, name):
    """Make the builder ``name`` leave out its last differential; returns
    the list the dropped keys go to."""
    build = getattr(cobar, name)
    dropped = []

    def without_one(*args):
        cx = build(*args)
        last = ext_reads(cx.window)[-1]
        del cx.diffs[last]
        dropped.append(last)
        return cx

    monkeypatch.setattr(cobar, name, without_one)
    return dropped


@pytest.mark.parametrize(
    "route, builder", [("cobar", "build_cobar"), ("resolution", "build_resolution_complex")]
)
def test_missing_differential_is_a_bookkeeping_error(monkeypatch, capsys, route, builder):
    """Negative control: a differential ext_dimensions reads and the builder
    left out exits 4 with a coded line naming it, and prints no report."""
    dropped = _drop_one_differential(monkeypatch, builder)
    argv = ["ext", "--route", route, "--p", "3", "--n", "1", "--window", "-1:1:-2:2"]
    assert cli.main(argv + ["--s-max", "1"]) == cli.EXIT_INTERNAL
    out, err = capsys.readouterr()
    m, n, s = dropped[0]
    assert out == ""
    assert err.startswith(
        f"[E_BOOKKEEPING] {route} complex has no differential at internal {D(m, n)}, s={s}"
    )
