"""The May spectral sequence of the coideal-power filtration, and the
desk-scale Borel-completeness verdict built on it.

Pages live on tri-degrees (total degree, s, f).  The first page is the
closed-form algebra

    F_p[a, ul^{+-1}, xp_0..xp_{n-1}, z] < us, x_0..x_{n-1} >

with |a| = (0,-1;0,0), |ul| = (2,-2;0,0), |us| = (1,-1;0,0),
|z| = (0,1;1,1), |x_t| = (2p^t-1, 2(p-1)p^t; 1,1) and
|xp_t| = (2p^(t+1)-2, 2(p-1)p^(t+1); 2,p).

The page-1 differential is a derivation determined by

    d(us)    = beta' a^2 z
    d(ul^l)  = sum_t  digit_t(l) * beta * a^(2p^(t+1)) * ul^(l - p^t) * x_t

(the p-adic digit rule packages the binomial coefficients of the coaction for
every integer exponent l, positive or negative), and the page-(p-1)
differential by the digit rule of d_pminus1_monomial, which on exponents
l = (p-1)p^t mod p^(t+1) is the familiar d(ul^((p-1)p^t) x_t) =
a^(2p(p-1)p^t) xp_t.  All landing exponents are forced by homogeneity.

The pages are the filtration spectral sequence of the small resolution
complex (one comodule slot per z^k x_E xp'^J generator), whose differential
only has components of filtration shift 1 and p-1; differentials of every
other page vanish identically in this model, and the cross-check against
the direct Ext computation certifies convergence.  Dimension bookkeeping
failures raise instead of passing silently.

Multiplication by a moves (m, n) to (m, n-1) and keeps s and f, so the
first page falls into a-columns (m, s, f) with one layout: the cell at n
lists its a-free monomials, sorted, then a times the list of the cell one
step up in n (e1_monomials builds each column that way, from its top row
down; a is the first generator, so a-free monomials sort first).  So a maps
coordinate i of a cell to coordinate i + offset of the cell below, offset
being the difference of their lengths, and a cell as long as its upper
neighbour lists exactly a times it.  Both differentials commute with a, so
such a shared cell has its upper neighbour's page data, in the same
coordinates, for as long as its differential's source and target are
shared too.  A page therefore stores each a-column as its head cells only:
a run of shared cells is a view of its head, computed once there, and an
a-tower does work only where a run ends (turn_page, a_shift_rank).  Every
cell, on the first page (e1_monomials) and on every later one (PageCell),
is a pair (base, shift): a head's monomial list and the power of a over it.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Iterable, Iterator
from typing import TypeVar

from . import fp
from .algebra import (
    EXT,
    INV,
    POLY,
    Element,
    GeneratorSpec,
    Monomial,
    Presentation,
    TRUNC,
    monomials_in_degree,
)
from .cobar import (
    ExtComplex,
    build_cobar,
    check_stabilization_heights,
    ext_dimensions,
    resolution_ext_table,
)
from .errors import BookkeepingError, ConfigError, WindowError
from .fp import SparseMatFp, Subspace, Vector, check_odd_prime, check_unit, quotient_basis
from .grading import DegreeWindow, SpokeDegree, TriDegree
from .hfp import positive_cone
from .hopf import Comodule, HopfAlgebroid, apply_coproduct_at, primitive_hopf, truncated_hopf

D = SpokeDegree


# ---------------------------------------------------------------------------
# first page


class MayE1:
    """Closed-form first page presentation plus (s, f) bookkeeping.

    The positions of a, ul, us, z, x_t and xp_t in a monomial, and the
    powers p^t and beta^(p^t), are read once from the presentation, so the
    monomial differentials look nothing up by name.
    """

    __slots__ = (
        "p",
        "n",
        "beta",
        "beta_prime",
        "pres",
        "s_deg",
        "f_deg",
        "a_pos",
        "ul_pos",
        "us_pos",
        "z_pos",
        "x_pos",
        "xp_pos",
        "p_pows",
        "beta_pows",
    )

    def __init__(
        self,
        p: int,
        n: int,
        beta: int,
        beta_prime: int,
        pres: Presentation,
        s_deg: tuple[int, ...],
        f_deg: tuple[int, ...],
    ):
        self.p = p
        self.n = n
        self.beta = beta
        self.beta_prime = beta_prime
        self.pres = pres
        self.s_deg = s_deg
        self.f_deg = f_deg
        idx = pres.index
        self.a_pos, self.ul_pos, self.us_pos, self.z_pos = idx["a"], idx["ul"], idx["us"], idx["z"]
        self.x_pos = tuple(idx[f"x{t}"] for t in range(n))
        self.xp_pos = tuple(idx[f"xp{t}"] for t in range(n))
        self.p_pows = tuple(p**t for t in range(n + 1))
        self.beta_pows = tuple(pow(beta, q, p) for q in self.p_pows[:-1])


def may_e1(p: int, n: int, beta: int = 1, beta_prime: int = 1) -> MayE1:
    check_odd_prime(p)
    if n < 1:
        raise ConfigError(f"need n >= 1, got {n}")
    beta, beta_prime = check_unit(p, beta, "beta"), check_unit(p, beta_prime, "beta_prime")
    gens = [*positive_cone(p, ul_kind=INV).generators, GeneratorSpec("z", D(0, 1), POLY)]
    s_deg = [0, 0, 0, 1]
    f_deg = [0, 0, 0, 1]
    for t in range(n):
        gens.append(
            GeneratorSpec(f"x{t}", D(2 * p**t - 1, 2 * (p - 1) * p**t), EXT)
        )
        s_deg.append(1)
        f_deg.append(1)
    for t in range(n):
        gens.append(
            GeneratorSpec(
                f"xp{t}", D(2 * p ** (t + 1) - 2, 2 * (p - 1) * p ** (t + 1)), POLY
            )
        )
        s_deg.append(2)
        f_deg.append(p)
    return MayE1(p, n, beta, beta_prime, Presentation(p, gens), tuple(s_deg), tuple(f_deg))


def _times_a(monomials: Iterable[Monomial], k: int) -> list[Monomial]:
    """a^k times each first-page monomial; a is may_e1's first generator."""
    return [(mono[0] + k,) + mono[1:] for mono in monomials]


def e1_monomials(
    e1: MayE1, window: DegreeWindow
) -> dict[TriDegree, tuple[list[Monomial], int]]:
    """Enumerate first-page monomials per tri-degree up to s = window.s_max,
    one entry per non-empty cell: a (base, shift) pair, like a page cell's,
    whose cell lists a^shift times the sorted list base.

    The generator part (everything except a, ul, us) is enumerated once; in
    each column (m, s, f) the coefficient part a^alpha ul^l us^eps of a
    generator part is pinned: eps by the parity of the remaining integer
    degree, l by the remaining integer degree, and alpha = n0 - n, where
    n0 = g_n - (m - g_m) is the one row of the column in which it is a-free.
    So each column is built from its top row down: the cell at n is its
    sorted a-free monomials followed by a times the cell above, which is
    sorted too because a is the first generator.  Parts with n0 below the
    window are dropped, and parts with n0 above it enter the top row with
    a^(n0 - n_max).  Each generator's (s, f) step is read from e1.s_deg and
    e1.f_deg, so the cells follow the declared degrees.

    A cell with a-free monomials, a head, is (its list, 0).  Any other cell
    is a^k times the nearest head k rows above it, and is (that head's
    list, k): the same list object, so no translate builds a list.
    """
    pres = e1.pres
    s_deg, f_deg = e1.s_deg, e1.f_deg
    s_cap = window.s_max

    # (monomial, m, n, s, f) of every generator part within the s budget;
    # a bounded (exterior) generator takes exponents below its bound
    partials = [((0,) * len(pres), 0, 0, 0, 0)]
    for i in (e1.z_pos, *e1.x_pos, *e1.xp_pos):
        d, ds, df = pres.degrees[i], s_deg[i], f_deg[i]
        top = s_cap if pres.bounds[i] is None else pres.bounds[i] - 1
        partials = [
            (mono[:i] + (j,) + mono[i + 1 :], pm + d.m * j, pn + d.n * j, ps + ds * j, pf + df * j)
            for mono, pm, pn, ps, pf in partials
            for j in range(top + 1)
            if ps + ds * j <= s_cap
        ]
    gen_parts: dict[tuple[int, int], list[tuple[Monomial, int, int]]] = {}
    for mono, pm, pn, ps, pf in partials:
        gen_parts.setdefault((ps, pf), []).append((mono, pm, pn))

    a_i, ul_i, us_i = e1.a_pos, e1.ul_pos, e1.us_pos
    n_min, n_max = window.n_min, window.n_max
    out: dict[TriDegree, tuple[list[Monomial], int]] = {}
    for m in range(window.m_min, window.m_max + 1):
        # the total degree of each row, top first, for the columns of every (s, f)
        rows = [D(m, nn) for nn in range(n_max, n_min - 1, -1)]
        for (s, f), parts in gen_parts.items():
            # a-free monomials by row; the top row also takes those above it
            free_rows: dict[int, list[Monomial]] = {}
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
                free_rows.setdefault(min(n0, n_max), []).append(tuple(mono))
            if not free_rows:
                continue
            head: list[Monomial] = []
            offset = 0  # rows from the head above
            for total in rows[n_max - max(free_rows) :]:
                offset += 1
                free = free_rows.get(total.n)
                if free:
                    head = sorted(free) + _times_a(head, offset)
                    offset = 0
                out[TriDegree(total, s, f)] = (head, offset)
    return out


def _digit(l: int, p: int, t: int) -> int:
    """p-adic digit of an arbitrary integer (negative l has the repeating
    expansion; Python's floor-mod gives exactly that)."""
    return (l % p ** (t + 1)) // p**t


def d1_monomial(e1: MayE1, mono: Monomial) -> dict[Monomial, int]:
    """Page-1 differential on a monomial, as a dict of target monomials."""
    p = e1.p
    a_i, ul_i, us_i = e1.a_pos, e1.ul_pos, e1.us_pos
    out: dict[Monomial, int] = {}
    eps = mono[us_i]
    if eps:
        tgt = list(mono)
        tgt[us_i] = 0
        tgt[a_i] += 2
        tgt[e1.z_pos] += 1
        out[tuple(tgt)] = e1.beta_prime
    l = mono[ul_i]
    # Koszul sign past us and the x_t' with t' < t
    sign = -1 if eps else 1
    p_pows = e1.p_pows
    for t, x_i in enumerate(e1.x_pos):
        if mono[x_i]:
            sign = -sign
            continue
        digit = (l % p_pows[t + 1]) // p_pows[t]
        coeff = digit * e1.beta_pows[t] * sign % p
        if not coeff:
            continue
        tgt = list(mono)
        tgt[ul_i] = l - p_pows[t]
        tgt[a_i] += 2 * p_pows[t + 1]
        tgt[x_i] = 1
        out[tuple(tgt)] = coeff
    return out


def d_pminus1_monomial(e1: MayE1, mono: Monomial) -> dict[Monomial, int]:
    """Page-(p-1) differential: the (p-1)-fold composition of the degree-t
    coaction-coefficient extraction, landing on the xp_t class.

    The scalar is the product of p-1 consecutive digit binomials
    binom(l - i p^t, p^t) for i = 0..p-2, which is nonzero exactly when
    digit_t(l) = p-1 and then equals (p-1)! = -1 (Wilson); the beta powers
    multiply to beta^((p-1)p^t) = 1.  On exponents of the form l = (p-1)p^t
    mod p^(t+1) this is the familiar rule that one ul^((p-1)p^t) block is
    traded for a^(2p(p-1)p^t) xp_t.
    """
    p = e1.p
    a_i, ul_i = e1.a_pos, e1.ul_pos
    out: dict[Monomial, int] = {}
    l = mono[ul_i]
    # Koszul sign past us and the x_t' with t' < t
    sign = -1 if mono[e1.us_pos] else 1
    p_pows = e1.p_pows
    for t, x_i in enumerate(e1.x_pos):
        if not mono[x_i]:
            continue
        if (l % p_pows[t + 1]) // p_pows[t] == p - 1:
            tgt = list(mono)
            tgt[x_i] = 0
            tgt[e1.xp_pos[t]] += 1
            tgt[a_i] += 2 * p * (p - 1) * p_pows[t]
            tgt[ul_i] = l - (p - 1) * p_pows[t]
            out[tuple(tgt)] = -sign % p  # Wilson: (p-1)! = -1
        sign = -sign
    return out


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
# pages


class PageCell:
    """One tri-degree of a page, in the coordinates of a first-page list.

    The cell is a^shift times ``base``, the monomial list of a head cell of
    the first page (e1_monomials); multiplication by a is injective and
    keeps the order, so the cell has the coordinates of ``base`` and builds
    no list of its own.  ``index`` maps each monomial of ``base`` to its
    position; page_one builds it once per head, and every cell over that
    base, on every page, shares it.  ``labels`` (the least monomial name of
    each representative, sorted) lifts only the support monomials it names
    and is formatted on first read, so a page that is never printed formats
    nothing.

    ``reps`` and ``dead`` are subspaces in those coordinates: the rows of
    ``reps`` are the representatives, canonical RREF rows reduced modulo
    ``dead``, so a class's coordinates are ``reps.coordinates`` of its
    dead-reduced vector.

    A page stores only the head cells of each a-column.  The cell k rows
    below a head, above the next head, is ``head.translate(k)``: a
    ``shared`` view that holds the head's ``reps`` and ``dead`` objects,
    because multiplication by a^k is the identity on coordinates between
    them.
    """

    __slots__ = (
        "tri",
        "base",
        "shift",
        "index",
        "reps",
        "dead",
        "pres",
        "shared",
        "_labels",
        "_views",
    )

    def __init__(
        self,
        tri: TriDegree,
        base: list[Monomial],
        shift: int,
        index: dict[Monomial, int],
        reps: Subspace,
        dead: Subspace,
        pres: Presentation,
        shared: bool = False,
    ):
        self.tri = tri
        self.base = base
        self.shift = shift
        self.index = index
        self.reps = reps
        self.dead = dead
        self.pres = pres
        self.shared = shared
        self._labels: tuple[str, ...] | None = None
        self._views: dict[int, PageCell] | None = None

    @property
    def dim(self) -> int:
        return self.reps.rank

    @property
    def labels(self) -> tuple[str, ...]:
        # the least label is not shift-invariant (a^10 sorts before a^9), so
        # the support is lifted before it is named
        if self._labels is None:
            fmt = self.pres.format_monomial
            self._labels = tuple(
                sorted(
                    min(map(fmt, _times_a(itertools.compress(self.base, rep), self.shift)))
                    for rep in self.reps.rows
                )
            )
        return self._labels

    def translate(self, steps: int) -> PageCell:
        """The cell ``steps`` rows below this head in its a-column: the head
        itself at 0 steps, else a view.  A head makes one view per step, so
        the pages that share the head share its views and their labels."""
        if not steps:
            return self
        if self._views is None:
            self._views = {}
        view = self._views.get(steps)
        if view is None:
            total = self.tri.total
            tri = TriDegree(D(total.m, total.n - steps), self.tri.s, self.tri.f)
            view = self._views[steps] = PageCell(
                tri, self.base, self.shift + steps, self.index, self.reps, self.dead, self.pres, True
            )
        return view

    def with_data(self, reps: Subspace, dead: Subspace) -> PageCell:
        """This cell as a head of the next page, over the same base."""
        return PageCell(self.tri, self.base, self.shift, self.index, reps, dead, self.pres)


# an a-column is keyed (m, s, f) and maps the row k (n = window.n_max - k) of
# each head cell to the head, top first; the column runs from its first head
# down to the window's bottom row
ColumnKey = tuple[int, int, int]
Column = dict[int, PageCell]
T = TypeVar("T")


def _runs_at(runs: dict[int, T] | None, rows: list[int]) -> list[tuple[int, T] | None]:
    """For each of the ascending ``rows``, (first row, value) of the run
    that holds it, or None above the first run; ``runs`` maps the first row
    of each run to its value, ascending."""
    out = []
    items = iter(runs.items() if runs else ())
    nxt = next(items, None)
    run = None
    for k in rows:
        while nxt is not None and nxt[0] <= k:
            run, nxt = nxt, next(items, None)
        out.append(run)
    return out


def _values_at(runs: dict[int, T] | None, rows: list[int]) -> list[T | None]:
    return [None if run is None else run[1] for run in _runs_at(runs, rows)]


def _cells_at(col: Column | None, rows: list[int]) -> list[PageCell | None]:
    """The cells of an a-column at the ascending ``rows``: heads, views of
    the head above, or None above the column's top."""
    return [
        None if run is None else run[1].translate(k - run[0])
        for k, run in zip(rows, _runs_at(col, rows))
    ]


def _head_rows(col: Column, *others: Column | None) -> list[int]:
    """The rows of col's heads and of the other columns' heads at or below
    col's top, ascending."""
    top = next(iter(col))
    rows = set(col)
    for other in others:
        if other:
            rows.update(k for k in other if k >= top)
    return sorted(rows)


class SSPage:
    """Page r: its head cells in a-columns, the m-range not yet eroded by the
    window edge, and the differential that produced the page.

    ``arrow_runs`` records that differential: for each run of rows of
    page r-1 on which it was nonzero, (source head, rows from it to the
    run, target head, rows from it to the run, number of rows); there are
    none on the first page and on the copied pages.  ``arrows`` lists the
    same cell by cell as (source, target) tri-degrees, and ``cells`` lists
    every cell, views included, by tri-degree in report order (m, n, s, f);
    both are built on first read.  A copied page shares the columns of the
    page it copies, so its cells are the same head and view objects."""

    def __init__(
        self,
        r: int,
        e1: MayE1,
        window: DegreeWindow,
        columns: dict[ColumnKey, Column],
        reliable_m: tuple[int, int],
        arrow_runs: list[tuple[PageCell, int, PageCell, int, int]],
    ):
        self.r = r
        self.e1 = e1
        self.window = window
        self.columns = columns
        self.reliable_m = reliable_m
        self.arrow_runs = arrow_runs

    def runs(self) -> Iterator[tuple[ColumnKey, int, int, PageCell]]:
        """(column key, first row, end row, head) of every run of cells:
        the head at the first row and its views down to the end row - 1."""
        height = self.window.n_max - self.window.n_min + 1
        for key, col in self.columns.items():
            rows = [*col, height]
            for i, head in enumerate(col.values()):
                yield key, rows[i], rows[i + 1], head

    @functools.cached_property
    def cells(self) -> dict[TriDegree, PageCell]:
        """Every cell by tri-degree, in report order (m, n, s, f)."""
        cells = []
        for _, first, end, head in self.runs():
            cells.append(head)
            cells.extend(head.translate(steps) for steps in range(1, end - first))
        cells.sort(key=lambda c: c.tri)
        return {cell.tri: cell for cell in cells}

    @functools.cached_property
    def arrows(self) -> list[tuple[TriDegree, TriDegree]]:
        return [
            (source.translate(steps + j).tri, target.translate(tsteps + j).tri)
            for source, steps, target, tsteps, count in self.arrow_runs
            for j in range(count)
        ]

    def format(self) -> str:
        lines = []
        for tri, cell in self.cells.items():
            if cell.dim:
                lines.append(
                    f"{self.r} | {tri.format()} | {cell.dim} | {' '.join(cell.labels)}"
                )
        return "\n".join(lines) + "\n"


@functools.cache
def _whole_space(size: int, p: int) -> Subspace:
    return Subspace([[int(i == j) for i in range(size)] for j in range(size)], size, p)


def page_one(e1: MayE1, window: DegreeWindow) -> SSPage:
    table = e1_monomials(e1, window)
    columns: dict[ColumnKey, Column] = {}
    for tri, (monos, shift) in table.items():
        if shift:
            continue  # a view of the head above it
        size = len(monos)
        index = {mono: i for i, mono in enumerate(monos)}
        key = (tri.total.m, tri.s, tri.f)
        columns.setdefault(key, {})[window.n_max - tri.total.n] = PageCell(
            tri, monos, 0, index, _whole_space(size, e1.p), Subspace([], size, e1.p), e1.pres
        )
    return SSPage(1, e1, window, columns, (window.m_min, window.m_max), [])


def _image(
    e1: MayE1, diff_fn, cell: PageCell, rep: Vector, tcell: PageCell
) -> list[int] | None:
    """diff_fn applied to a representative, in the target cell's
    coordinates; None when the image has a monomial outside that cell.

    Both cells are a power of a times their bases, and diff_fn commutes
    with a, so diff_fn runs on the source's base and each term is looked up
    in the target's base at the relative shift, which can have either sign:
    a term whose a-exponent would fall below zero is outside the target.
    Neither cell builds a monomial list."""
    p = e1.p
    index = tcell.index
    shift = cell.shift - tcell.shift
    out = [0] * tcell.reps.dim
    stray: dict[Monomial, int] = {}
    for mono, c in zip(cell.base, rep):
        if not c:
            continue
        image = diff_fn(e1, mono)
        for tgt, c2 in zip(_times_a(image, shift), image.values()) if shift else image.items():
            pos = index.get(tgt)
            if pos is None:
                stray[tgt] = (stray.get(tgt, 0) + c * c2) % p
            else:
                out[pos] = (out[pos] + c * c2) % p
    return None if any(stray.values()) else out


def _differential_out(
    e1: MayE1, diff_fn, cell: PageCell, tcell: PageCell, r: int
) -> tuple[list[list[int]], list[Vector]] | None:
    """(cycles, images) of the differential out of one cell: the cycles are
    in the cell's monomial coordinates, the images are the nonzero
    dead-reduced images in the target's; None when every image is zero.

    Each representative gives one row [residue | rep], its dead-reduced
    image first, and one fp.rref of those rows gives the cycles: a reduced
    row with its pivot in the rep block has a zero residue, and those rows'
    rep blocks span every combination of representatives whose image is
    dead."""
    dead = tcell.dead
    tsize = tcell.reps.dim
    rows = []
    images = []
    for rep in cell.reps.rows:
        vec = _image(e1, diff_fn, cell, rep, tcell)
        if vec is None:
            raise BookkeepingError(
                f"turn_page r={r} at {cell.tri.format()}: differential image is "
                f"not homogeneous for its target cell {tcell.tri.format()}"
            )
        # _image reduces mod p, so an empty dead subspace reduces nothing
        residue = dead.reduce(vec) if dead.rank else vec
        if any(residue):
            if tcell.reps.coordinates(residue) is None:
                raise BookkeepingError(
                    f"turn_page r={r} at {cell.tri.format()}: differential image is "
                    f"not a surviving class at {tcell.tri.format()}"
                )
            images.append(residue)
        rows.append([*residue, *rep])
    if not images:
        return None
    reduced, pivots = fp.rref(rows, e1.p)
    return [row[tsize:] for row, pc in zip(reduced, pivots) if pc >= tsize], images


def turn_page(page: SSPage, diff_fn, new_r: int) -> SSPage:
    """Homology of the page under the monomial-level differential diff_fn,
    which acts on representatives; the result is the next page with
    representatives still expressed in first-page monomial coordinates, and
    its ``arrows`` list every cell the differential is nonzero on, views
    included, with its target.

    diff_fn must commute with multiplication by a: on a * mono it must
    return a times each target of mono, with the same coefficients (both
    digit rules add a fixed amount to the a-exponent; property-tested).
    The engine relies on it to compute each a-column's data once per run.

    Well-definedness on classes needs diff_fn to map dead vectors to dead
    vectors; that follows from the graded parts of the square-zero identity
    (d1 o d2 + d2 o d1 = 0, property-tested at the monomial level), and any
    image failing to be a surviving class raises a bookkeeping error here.

    Differentials keep n, so a cell's target and source are the cells in
    the same row of the columns (m-1, s+1, f+r) and (m+1, s-1, f-r).  In a
    row where neither the column nor its target column has a head, the
    differential out of the cell is the one out of the cell above, in the
    same coordinates; so it is computed, with its bookkeeping checks, once
    per run of such rows, in the row that starts the run.  Likewise the
    next page's heads are the column's own heads and those of its source
    and target columns at or below its top: in any other row the kernel,
    the incoming image and so the homology are those of the cell above.  A
    column that no nonzero differential leaves or enters keeps its heads.
    Work is done per head; a translate cell costs nothing.

    A cell with no differential out of it and nothing new killed in it is
    carried over as it is: its kernel is the whole page and its dead
    subspace does not change, so recomputing would return the same RREF rows.
    """
    e1 = page.e1
    p = e1.p
    r = page.r
    columns = page.columns
    height = page.window.n_max - page.window.n_min + 1

    # (cycles, images) out of each run of cells, keyed by its first row, or
    # None where nothing nonzero leaves it, for each column the differential
    # is nonzero on; images landing outside the computed window are dropped,
    # which is exactly why the reliable m-range shrinks by one per applied
    # differential
    outs: dict[ColumnKey, dict[int, tuple | None]] = {}
    arrow_runs: list[tuple[PageCell, int, PageCell, int, int]] = []
    for key, col in columns.items():
        m, s, f = key
        tcol = columns.get((m - 1, s + 1, f + r))
        if tcol is None:
            continue
        rows = _head_rows(col, tcol)
        out_col = {}
        for i, (k, run, trun) in enumerate(zip(rows, _runs_at(col, rows), _runs_at(tcol, rows))):
            out = None
            cell = run[1].translate(k - run[0])
            if cell.dim and trun is not None:
                out = _differential_out(e1, diff_fn, cell, trun[1].translate(k - trun[0]), r)
                if out is not None:
                    end = rows[i + 1] if i + 1 < len(rows) else height
                    arrow_runs.append((run[1], k - run[0], trun[1], k - trun[0], end - k))
            out_col[k] = out
        if any(out is not None for out in out_col.values()):
            outs[key] = out_col

    new_columns: dict[ColumnKey, Column] = {}
    for key, col in columns.items():
        m, s, f = key
        skey = (m + 1, s - 1, f - r)
        out_col, in_col = outs.get(key), outs.get(skey)
        if out_col is None and in_col is None:
            new_columns[key] = col  # nothing leaves or enters it
            continue
        rows = _head_rows(col, columns.get((m - 1, s + 1, f + r)), columns.get(skey))
        new_col = new_columns[key] = {}
        for k, cell, out, incoming in zip(
            rows, _cells_at(col, rows), _values_at(out_col, rows), _values_at(in_col, rows)
        ):
            if out is None and incoming is None:
                new_col[k] = cell.with_data(cell.reps, cell.dead) if cell.shared else cell
                continue
            size = cell.reps.dim
            dead = Subspace(cell.dead.rows + incoming[1], size, p) if incoming else cell.dead
            cycles = out[0] if out else cell.reps.rows
            new_col[k] = cell.with_data(quotient_basis(cycles, dead, size, p), dead)
    lo, hi = page.reliable_m
    return SSPage(new_r, e1, page.window, new_columns, (lo + 1, hi - 1), arrow_runs)


def copy_page(page: SSPage, new_r: int) -> SSPage:
    return SSPage(new_r, page.e1, page.window, page.columns, page.reliable_m, [])


def compute_pages(
    p: int,
    n: int,
    window: DegreeWindow,
    beta: int = 1,
    beta_prime: int = 1,
    disable_d1: bool = False,
) -> dict[int, SSPage]:
    """E_1, E_2 (after d_1), intermediate copies, and E_p (after d_(p-1)).

    The pages are computed two s-rows above window.s_max, and their window
    says so."""
    e1 = may_e1(p, n, beta, beta_prime)
    taller = DegreeWindow(window.m_min, window.m_max, window.n_min, window.n_max, window.s_max + 2)
    page1 = page_one(e1, taller)
    # negative control: run the same machinery with a zero differential
    d1 = (lambda _e1, _mono: {}) if disable_d1 else d1_monomial
    pages = {1: page1, 2: turn_page(page1, d1, 2)}
    for r in range(3, p):
        pages[r] = copy_page(pages[r - 1], r)
    pages[p] = turn_page(pages[p - 1], d_pminus1_monomial, p)
    return pages


# ---------------------------------------------------------------------------
# the filtration on the Hopf algebra itself


def may_filtration_weight(H: HopfAlgebroid, mono: Monomial, cap: int = 64) -> int:
    """Smallest s with the (s+1)-fold reduced coproduct of the monomial zero,
    computed from the definition (kernel of iterated coproducts followed by
    projection to the coideal in every slot)."""
    if not any(mono):
        return 0
    elt = H.tensor_power_of((H.total,)).element({(mono,): 1})
    for s in range(1, cap + 1):
        elt = apply_coproduct_at(H, elt, len(elt.ring.slots) - 1)
        reduced = {
            key: c
            for key, c in elt.coeffs.items()
            if all(any(slot_mono) for slot_mono in key)
        }
        if not reduced:
            return s
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


def e0_weight(pres: Presentation, mono: Monomial) -> int:
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
        e0_hist: dict[int, int] = {}
        for mono in monomials_in_degree(He0.total, d):
            w = e0_weight(He0.total, mono)
            e0_hist[w] = e0_hist.get(w, 0) + 1
        if histogram != e0_hist:
            failures.append(f"graded dims at {d}: {histogram} vs {e0_hist}")
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
    oracle: dict[TriDegree, int] = {}
    for total in window.degrees():
        for (s, gdeg, f), mult in graded.items():
            rem = total + D(s, 0) - gdeg
            if rem.virtual_dim <= 0:
                tri = TriDegree(total, s, f)
                oracle[tri] = oracle.get(tri, 0) + mult

    failures = []
    for tri in sorted(set(closed) | set(oracle)):
        a, b = closed.get(tri, 0), oracle.get(tri, 0)
        if a != b:
            failures.append(f"{tri.format()}: closed form {a}, graded cobar {b}")
    return not failures, failures


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
    pages = compute_pages(p, n, expanded, beta, beta_prime)
    last = pages[p]
    H, M = truncated_hopf(p, n, beta, beta_prime)
    table = resolution_ext_table(H, M, window)

    page_totals: dict[tuple[int, SpokeDegree], int] = {}
    for tri, cell in last.cells.items():
        if cell.dim and window.contains(tri.total) and tri.s <= window.s_max:
            key = (tri.s, tri.total)
            page_totals[key] = page_totals.get(key, 0) + cell.dim

    failures = []
    keys = set(page_totals) | set(table.dims())
    for key in sorted(keys):
        a = page_totals.get(key, 0)
        b = table.dim(*key)
        if a != b:
            failures.append(
                f"s={key[0]} {key[1].format()}: pages {a}, ext {b}"
            )
    return not failures, failures


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
        key: [sum(e0_weight(He0.total, b) for b in word) for _, word in basis]
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
# a-towers, the free pattern in negative virtual degrees, and the verdict


def free_pattern_dim(p: int, n: int, tri: TriDegree) -> int:
    """Model last page in virtual degrees < 0: monomials a^alpha ul^(p^n j)."""
    total = tri.total
    if total.virtual_dim >= 0 or tri.s != 0 or tri.f != 0:
        return 0
    return 1 if total.m % (2 * p**n) == 0 else 0


def a_shift_rank(page: SSPage, tri: TriDegree, steps: int) -> int | None:
    """Rank of multiplication by a^steps out of the given cell, computed on
    representatives; None when the tower leaves the computed window.

    The tower walks down the cell's a-column.  A step into a view changes
    nothing: a is the identity on coordinates there and the dead subspace
    is the same, so only steps into head cells do work.  There a shifts
    coordinates past the head cell's a-free monomials, which come first in
    its list."""
    total = tri.total
    col = page.columns.get((total.m, tri.s, tri.f))
    k = page.window.n_max - total.n
    height = page.window.n_max - page.window.n_min + 1
    if col is None or not 0 <= k < height:
        return 0
    cell = None
    for row, head in col.items():
        if row > k:
            break
        cell = head  # the head of the run that holds row k
    if cell is None or not cell.dim:
        return 0
    vecs = cell.reps.rows
    for row, head in col.items():
        if row <= k:
            continue
        if row > k + steps:
            break
        pad = [0] * (head.reps.dim - cell.reps.dim)
        vecs = [head.dead.reduce([*pad, *vec]) for vec in vecs]
        if not any(any(v) for v in vecs):
            return 0
        cell = head
    if k + steps >= height:
        return None
    return Subspace(vecs, cell.reps.dim, page.e1.p).rank


class SegalReport:
    __slots__ = (
        "window",
        "pattern_ok",
        "survivor_tables",
        "stabilized_at",
        "verdict",
        "reliable_m",
        "notes",
    )

    def __init__(
        self,
        window: DegreeWindow,
        pattern_ok: dict[int, bool],
        survivor_tables: dict[int, dict[str, int]],
        stabilized_at: int | None,
        verdict: bool,
        reliable_m: tuple[int, int],
        notes: list[str],
    ):
        self.window = window
        self.pattern_ok = pattern_ok
        self.survivor_tables = survivor_tables
        self.stabilized_at = stabilized_at
        self.verdict = verdict
        self.reliable_m = reliable_m
        self.notes = notes

    @property
    def stabilized(self) -> bool:
        return self.stabilized_at is not None

    @property
    def tower_margin(self) -> int:
        return -self.window.n_min

    def format(self) -> str:
        lines = [
            f"window {self.window.format()} s<={self.window.s_max} reliable m [{self.reliable_m[0]},{self.reliable_m[1]}] tower margin {self.tower_margin}",
        ]
        for n in sorted(self.survivor_tables):
            ok = "ok" if self.pattern_ok[n] else "MISMATCH"
            lines.append(f"n={n} | negative-cone pattern {ok}")
            table = self.survivor_tables[n]
            for key in sorted(table):
                lines.append(f"n={n} | survivor {key} | {table[key]}")
        if self.stabilized:
            lines.append(f"stabilized at n={self.stabilized_at}")
        else:
            lines.append("not stabilized within n_max")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append(f"verdict: {'true' if self.verdict else 'false'}")
        return "\n".join(lines) + "\n"


def survivor_table(last: SSPage, s_cap: int) -> tuple[dict[str, int], bool, list[str]]:
    """Desk-scale a-inversion of the last page.

    Every cell in virtual degrees < 0 inside the reliable range must match
    the free model exactly (where multiplication by a is injective, so
    membership there makes a class a permanent a-tower).  Classes in
    virtual dimension >= 0 survive exactly when a long enough a-power lands
    them nonzero in that verified region.  Returns ({cell label: dim},
    pattern ok, failure lines).
    """
    p, n = last.e1.p, last.e1.n
    table: dict[str, int] = {}
    lo, hi = last.reliable_m
    window = last.window
    n_max = window.n_max
    short: list[TriDegree] = []  # cells whose a-tower leaves the window
    negative: dict[SpokeDegree, dict[TriDegree, int]] = {}  # nonzero cells, m + n < 0
    for (m, s, f), first, end, head in last.runs():
        if not head.dim or s > s_cap or not lo <= m <= hi:
            continue
        # a^(m + n + 1) takes a cell at row k <= neg - 1, in virtual dimension
        # m + n >= 0, to row neg, in virtual dimension -1; it is the same map
        # out of every cell of a run, so they share its rank
        neg = n_max + m + 1
        if first < neg:
            rank = a_shift_rank(last, TriDegree(D(m, n_max - first), s, f), neg - first)
            positive = range(first, min(end, neg))
            if rank is None:
                short += [TriDegree(D(m, n_max - k), s, f) for k in positive]
            elif rank:
                for k in positive:
                    table[f"pos {TriDegree(D(m, n_max - k), s, f).format()}"] = rank
        for k in range(max(first, neg), end):
            total = D(m, n_max - k)
            tri = TriDegree(total, s, f)
            negative.setdefault(total, {})[tri] = head.dim
            if free_pattern_dim(p, n, tri):
                table[f"neg {tri.format()}"] = head.dim
    if short:
        tri = min(short)
        raise WindowError(
            f"window too small: a-tower from {tri.format()} needs "
            f"{tri.total.virtual_dim + 1} steps"
        )
    failures = []
    for m in range(lo, hi + 1):
        for nn in range(window.n_min, min(n_max, -m - 1) + 1):
            total = D(m, nn)
            seen = negative.get(total, {})
            free = TriDegree(total, 0, 0)
            want = {free: 1} if free_pattern_dim(p, n, free) else {}
            if seen != want:
                got = {t.format(): seen[t] for t in sorted(seen, key=lambda t: (t.s, t.f))}
                failures.append(f"{total.format()}: page {got}, model {len(want)} cell(s)")
    return table, not failures, failures


def segal_pipeline(
    p: int,
    n_max: int,
    window: DegreeWindow,
    beta: int = 1,
    beta_prime: int = 1,
    disable_d1: bool = False,
) -> SegalReport:
    """Pages for each truncation height, survivor extraction, stabilization
    over the height, and the Borel-completeness verdict: survivors are one
    a-power line in integer degree 0 and cohomological degree 0."""
    check_odd_prime(p)
    check_stabilization_heights(n_max)
    if window.n_min + window.m_max > -1:
        raise WindowError(
            "window too small to decide survivors: need n_min + m_max <= -1"
        )
    if not window.contains(D(0, 0)):
        raise WindowError("window must contain 0+0@, where the a-line of survivors starts")
    expanded = DegreeWindow(
        window.m_min - 2, window.m_max + 2, window.n_min, window.n_max, window.s_max
    )
    pattern_ok: dict[int, bool] = {}
    pattern_failures: dict[int, list[str]] = {}
    tables: dict[int, dict[str, int]] = {}
    reliable = (window.m_min, window.m_max)
    for n in range(1, n_max + 1):
        pages = compute_pages(p, n, expanded, beta, beta_prime, disable_d1)
        tables[n], pattern_ok[n], pattern_failures[n] = survivor_table(
            pages[p], window.s_max
        )
        reliable = pages[p].reliable_m
    stabilized_at = None
    for n in range(1, n_max):
        if tables[n] == tables[n + 1]:
            stabilized_at = n
            break
    notes = []
    verdict = False
    if stabilized_at is not None:
        final = tables[stabilized_at]
        want = {}
        for nn in range(window.n_min, window.n_max + 1):
            total = D(0, nn)
            if total.virtual_dim < 0:
                want[f"neg {TriDegree(total, 0, 0).format()}"] = 1
        want[f"pos {TriDegree(D(0, 0), 0, 0).format()}"] = 1
        verdict = pattern_ok[stabilized_at] and final == want
        if not verdict:
            extra = sorted(set(final) - set(want))
            missing = sorted(set(want) - set(final))
            if extra:
                notes.append(f"unexpected survivors: {', '.join(extra[:6])}")
            if missing:
                notes.append(f"missing a-line cells: {', '.join(missing[:6])}")
            if not pattern_ok[stabilized_at]:
                notes.append(
                    f"negative-cone pattern mismatch at {pattern_failures[stabilized_at][0]}"
                )
    else:
        notes.append("survivor tables kept changing with the truncation height")
    return SegalReport(
        window=window,
        pattern_ok=pattern_ok,
        survivor_tables=tables,
        stabilized_at=stabilized_at,
        verdict=verdict,
        reliable_m=(max(reliable[0], window.m_min), min(reliable[1], window.m_max)),
        notes=notes,
    )
