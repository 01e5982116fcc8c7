"""The paper's cross-checks: independent computations that the May page
engine, the Ext routes and the coideal filtration must agree with.  Only
tests run them: no command imports this module, so a run compiles none of
it, and the page engine (mayss) imports neither Ext route."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .algebra import EXT, TRUNC, Element, GeneratorSpec, Monomial, Presentation, monomials_in_degree
from .cobar import ExtComplex, build_cobar, ext_dimensions, resolution_ext_table
from .errors import BookkeepingError
from .fp import SparseMatFp, check_odd_prime, kernel_basis
from .grading import DegreeWindow, SpokeDegree, TriDegree
from .hopf import Comodule, HopfAlgebroid, apply_coproduct_at, primitive_hopf, truncated_hopf
from .mayss import MayE1, compute_pages, e1_monomials, may_e1

D = SpokeDegree


def _mismatches(keys, ours, theirs, line) -> tuple[bool, list[str]]:
    """Where two count tables, read by ``ours`` and ``theirs``, disagree on
    ``keys``: (True, []) when nowhere, else (False, one line(key, ours,
    theirs) per disagreeing key, in key order)."""
    failures = [line(k, ours(k), theirs(k)) for k in sorted(keys) if ours(k) != theirs(k)]
    return not failures, failures


# ---------------------------------------------------------------------------
# the digit rule against the Leibniz rule


def _digit(l: int, p: int, t: int) -> int:
    """p-adic digit of an arbitrary integer (negative l has the repeating
    expansion; Python's floor-mod gives exactly that)."""
    return (l % p ** (t + 1)) // p**t


def d1_monomial_reference(e1: MayE1, mono: Monomial) -> dict[Monomial, int]:
    """Leibniz rule evaluated with generic signed element products; the
    oracle for d1_monomial's hand-rolled signs."""
    p, n = e1.p, e1.n
    pres = e1.pres
    total = Element.zero(pres)
    for pos, name in enumerate(pres.names):
        e = mono[pos]
        if not e:
            continue
        if name == "us":  # exterior, so e = 1
            image = Element.from_monomial(pres, pres.monomial(a=2, z=1)).scale(e1.beta_prime)
        elif name == "ul":
            image = Element.zero(pres)
            for t in range(n):
                digit = _digit(e, p, t)
                if digit:
                    target = pres.monomial(
                        **{"ul": e - p**t, "a": 2 * p ** (t + 1), f"x{t}": 1}
                    )
                    image = image + Element.from_monomial(pres, target).scale(
                        digit * pow(e1.beta, p**t, p)
                    )
        else:
            continue
        # d(left * g^e * right) picks up the sign of left's exterior part
        left_exps = mono[:pos] + (0,) * (len(mono) - pos)
        right_exps = (0,) * (pos + 1) + mono[pos + 1 :]
        left = Element.from_monomial(pres, left_exps)
        right = Element.from_monomial(pres, right_exps)
        sign = -1 if pres.parity_of(left_exps) else 1
        total = total + (left * image * right).scale(sign)
    return dict(total.coeffs)


# ---------------------------------------------------------------------------
# the filtration on the Hopf algebra itself


def may_filtration_weight(H: HopfAlgebroid, mono: Monomial, cap: int = 64) -> int:
    """Smallest s with the (s+1)-fold reduced coproduct of the monomial zero,
    computed from the definition (kernel of iterated coproducts followed by
    projection to the coideal in every slot)."""
    if not any(mono):
        return 0
    elt = H.delta.apply_monomial(mono)
    for s in range(1, cap + 1):
        # elt is the (s+1)-fold coproduct; the reduced part keeps keys with no unit slot
        if not any(all(map(any, key)) for key in elt.coeffs):
            return s
        elt = apply_coproduct_at(H, elt, s, H.delta)
    raise BookkeepingError(f"filtration of {H.total.format_monomial(mono)} exceeds {cap}")


def digit_sum(k: int, p: int) -> int:
    total = 0
    while k:
        total += k % p
        k //= p
    return total


def e0_hopf(p: int, n: int) -> HopfAlgebroid:
    """Associated graded of the coideal filtration: the tensor product of the
    digit Hopf algebras, one height-one truncated line per p-power digit of
    the norm class plus the exterior line."""
    check_odd_prime(p)
    return primitive_hopf(
        p,
        [
            *(
                GeneratorSpec(f"nu{t}", D(2 * p**t, 2 * (p - 1) * p**t), TRUNC, p)
                for t in range(n)
            ),
            GeneratorSpec("mu", D(1, 1), EXT),
        ],
    )


def e0_weight(mono: Monomial) -> int:
    return sum(mono)


def associated_graded_check(p: int, n: int, degrees) -> tuple[bool, list[str]]:
    """Weights on the truncated Hopf algebra match base-p digit sums, and the
    per-(degree, weight) dimensions match the associated-graded presentation."""
    H, _ = truncated_hopf(p, n)
    He0 = e0_hopf(p, n)
    failures = []
    for d in degrees:
        histogram: dict[int, int] = {}
        for mono in monomials_in_degree(H.total, d):
            w = may_filtration_weight(H, mono)
            k = mono[H.total.index["Nm"]]
            eps = mono[H.total.index["mu"]]
            expected = digit_sum(k, p) + eps
            if w != expected:
                failures.append(
                    f"weight({H.total.format_monomial(mono)}) = {w}, digit rule {expected}"
                )
            histogram[w] = histogram.get(w, 0) + 1
        e0_hist = Counter(map(e0_weight, monomials_in_degree(He0.total, d)))
        if histogram != e0_hist:
            failures.append(f"graded dims at {d}: {histogram} vs {dict(e0_hist)}")
    return not failures, failures


# ---------------------------------------------------------------------------
# first page vs the associated-graded cohomology (the closed-form check),
# one build_cobar per line of e0_hopf


def _line_ext_classes(p: int, g: GeneratorSpec, s_cap: int):
    """Cobar cohomology of one line of the associated graded, the primitive
    Hopf algebra on g alone with trivial coefficients, by build_cobar:
    [(s, internal degree, f, dim)].  Every bar word of internal degree k|g|
    has filtration weight f = k, and with g^bound = 0 a word of s letters
    has k <= s(bound - 1), so k past s_cap(bound - 1) has no class at
    s <= s_cap.  Nothing here knows the expected answer."""
    H = primitive_hopf(p, [g])
    triv = Comodule(H, Presentation(p, []), {})
    out = []
    for k in range(s_cap * (g.bound - 1) + 1):
        internal = g.degree * k
        row = DegreeWindow(internal.m - s_cap, internal.m, internal.n, internal.n, s_cap)
        for (s, total), dim in ext_dimensions(build_cobar(H, triv, row)).dims().items():
            if total + D(s, 0) == internal:
                out.append((s, internal, k, dim))
    return out


def _block(mat: SparseMatFp, row_ids, col_ids) -> SparseMatFp:
    """The submatrix on the given rows and columns, in the given order."""
    rmap = {i: k for k, i in enumerate(row_ids)}
    cmap = {j: k for k, j in enumerate(col_ids)}
    entries = {
        (rmap[i], cmap[j]): v
        for (i, j), v in mat.entries.items()
        if i in rmap and j in cmap
    }
    return SparseMatFp(len(row_ids), len(col_ids), mat.p, entries)


def associated_graded_ext_classes(p: int, n: int, s_cap: int):
    """Cohomology classes of the associated-graded Hopf algebra with trivial
    coefficients, assembled from its lines, one per generator of e0_hopf,
    by the Kuenneth tensor decomposition: {(s, internal degree, f): dim}."""
    factors = [_line_ext_classes(p, g, s_cap) for g in e0_hopf(p, n).total.generators]
    acc: dict[tuple[int, SpokeDegree, int], int] = {(0, D(0, 0), 0): 1}
    for fac in factors:
        nxt: dict[tuple[int, SpokeDegree, int], int] = {}
        for (s0, d0, f0), c0 in acc.items():
            for (s1, d1, f1, c1) in fac:
                if s0 + s1 > s_cap:
                    continue
                key = (s0 + s1, d0 + d1, f0 + f1)
                nxt[key] = nxt.get(key, 0) + c0 * c1
        acc = nxt
    return acc


def e1_vs_associated_graded(p: int, n: int, window: DegreeWindow) -> tuple[bool, list[str]]:
    """Closed-form first-page monomial counts against the cohomology of the
    associated graded, convolved with the coefficient module, tri-degree by
    tri-degree over the window."""
    table = e1_monomials(may_e1(p, n), window)
    closed = {tri: len(base) for tri, (base, _) in table.items()}
    graded = associated_graded_ext_classes(p, n, window.s_max)

    # coefficient module F_p[a, ul^{+-1}]<us> has one monomial in every
    # degree of virtual dimension <= 0 and none elsewhere
    oracle: Counter[TriDegree] = Counter()
    for total in window.degrees():
        for (s, gdeg, f), mult in graded.items():
            rem = total + D(s, 0) - gdeg
            if rem.virtual_dim <= 0:
                oracle[TriDegree(total, s, f)] += mult

    return _mismatches(
        closed.keys() | oracle.keys(),
        lambda tri: closed.get(tri, 0),
        lambda tri: oracle[tri],
        lambda tri, a, b: f"{tri.format()}: closed form {a}, graded cobar {b}",
    )


# ---------------------------------------------------------------------------
# convergence: last page totals vs the direct Ext computation


def einfty_vs_ext(
    p: int,
    n: int,
    window: DegreeWindow,
    beta: int = 1,
    beta_prime: int = 1,
) -> tuple[bool, list[str]]:
    """Total last-page dimensions per (s, total degree) against the direct
    Ext table of the truncated Hopf algebra, on the full requested window
    (pages are computed on an m-expanded window so every requested cell is
    reliable)."""
    expanded = DegreeWindow(
        window.m_min - 2, window.m_max + 2, window.n_min, window.n_max, window.s_max
    )
    last = compute_pages(p, n, expanded, beta, beta_prime)[p]
    H, M = truncated_hopf(p, n, beta, beta_prime)
    table = resolution_ext_table(H, M, window)

    page_totals: Counter[tuple[int, SpokeDegree]] = Counter()
    for tri, cell in last.cells.items():
        if cell.dim and window.contains(tri.total) and tri.s <= window.s_max:
            page_totals[(tri.s, tri.total)] += cell.dim

    return _mismatches(
        page_totals.keys() | table.dims().keys(),
        lambda key: page_totals[key],
        lambda key: table.dim(*key),
        lambda key, a, b: f"s={key[0]} {key[1].format()}: pages {a}, ext {b}",
    )


def e0_direct_weighted_ext(
    p: int, n: int, window: DegreeWindow
) -> dict[tuple[int, SpokeDegree, int], int]:
    """Small-window cross-check: the full multi-line cobar of the associated
    graded with trivial coefficients, homology split by filtration weight.
    Exponential in s, so only for modest windows.  associated_graded_ext_classes
    runs the same build_cobar on one line at a time, so their agreement
    certifies its Kuenneth assembly.

    A bar word weighs the sum of its letters' e0_weight; the differential
    must preserve it, entry by entry, or the split is meaningless.  Each
    weight f is then its own ExtComplex, the blocks of the built one on the
    words of weight f, and ext_dimensions reads its homology."""
    He0 = e0_hopf(p, n)
    cx = build_cobar(He0, Comodule(He0, Presentation(p, []), {}), window)
    weights = {
        key: [sum(e0_weight(b) for b in word) for _, word in basis]
        for key, basis in cx.bases.items()
    }
    for (m, n, s), mat in cx.diffs.items():
        src_w, dst_w = weights[(m, n, s)], weights[(m, n, s + 1)]
        for i, j in mat.entries:
            if dst_w[i] != src_w[j]:
                raise BookkeepingError(f"filtration weight not preserved at {D(m, n)}, s={s}")
    out: dict[tuple[int, SpokeDegree, int], int] = {}
    for f in sorted({w for ws in weights.values() for w in ws}):
        keep = {key: [i for i, w in enumerate(ws) if w == f] for key, ws in weights.items()}
        bases = {key: [cx.bases[key][i] for i in ids] for key, ids in keep.items()}
        diffs = {
            (m, n, s): _block(mat, keep[(m, n, s + 1)], keep[(m, n, s)])
            for (m, n, s), mat in cx.diffs.items()
        }
        block = ExtComplex(f"e0 weight {f}", p, window, bases, diffs, cx.label)
        for (s, total), dim in ext_dimensions(block).dims().items():
            out[(s, total + D(s, 0), f)] = dim
    return out


# ---------------------------------------------------------------------------
# Ext^0 against the primitives


def ext0_primitives(comodule: Comodule, degrees: Sequence[SpokeDegree]) -> dict[SpokeDegree, int]:
    """Direct primitive count {m : psi(m) = m (x) 1} per degree."""
    M = comodule.module
    p = M.p
    out: dict[SpokeDegree, int] = {}
    for d in degrees:
        monos = monomials_in_degree(M, d)
        if not monos:
            continue
        columns = []
        row_index: dict = {}
        for mono in monos:
            img = comodule.psi.apply_monomial(mono)
            col = {}
            for key, c in img.coeffs.items():
                if not any(key[1]) and key[0] == mono:
                    c = c - 1  # subtract m (x) 1
                if c % p:
                    row = row_index.setdefault(key, len(row_index))
                    col[row] = c % p
            columns.append(col)
        mat = SparseMatFp.from_columns(columns, max(len(row_index), 1), p)
        out[d] = len(kernel_basis(mat))
    return out
