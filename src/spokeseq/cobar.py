"""Cobar complexes and Ext tables for comodules over Hopf algebras/algebroids.

Two independent constructions of complexes computing the same Ext groups
live here.

* build_cobar: the literal normalized (reduced) cobar complex
  M (x) Gbar^(x)s with the alternating-face differential.  Completely
  general, but the slice dimensions grow like |Gbar|^s once the comodule has
  monomials in every low-virtual-dimension degree, so it is the small-window
  oracle.

* build_resolution_complex: for a finite primitively generated Hopf algebra
  (exterior and p-power-truncated polynomial primitives), comodules are
  modules over the dual algebra, a tensor product of one exterior and
  several height-one truncated polynomial lines.  The explicit periodic
  resolution of F_p over each line tensors to a free resolution whose
  cochain complex has one comodule slot per "z^k x_E x'_J" generator
  monomial: polynomially many columns instead of exponentially many.  Each
  line is one ``Strand`` type, differing only in its period of folds:
  (1,) for an exterior line, (1, p - 1) for a height-p digit line.

Both builders build exactly the differentials in ext_reads(window), the
ones the homology pass ext_dimensions reads, and the source and target
slices of each: homology at s reads C^(s-1) -> C^s -> C^(s+1) at one
internal degree, so slices run to window.s_max + 1 only where a column of
the window reads them.  Both return the one complex type, ExtComplex, with
a function that labels one basis element; making an ExtComplex checks
d o d = 0 on every composable pair (validate_dsquare), so no complex goes
unchecked.  ext_dimensions is the one homology pass: it labels each class
by a representative, and resolution_ext_table is "build, then
ext_dimensions".  The two routes share no construction code, so their
agreement is a cross-check of the Ext tables.

Both builders read each column's terms as plain {key: coeff} dicts and look
every nonzero, non-degenerate term up in the target slice's index.  That
slice is the enumeration of every valid monomial of exactly the target
degree, so the lookup is the homogeneity guard: a term of the wrong degree,
or not a valid monomial, misses it and raises BookkeepingError.

Every slice and differential is keyed by one integer triple (m, n, s): the
slice C^s at internal degree m + n@, and d: C^s -> C^(s+1) out of it.  Int
tuples sort in (m, n, s) order; SpokeDegree appears only at the boundary,
in window degrees, ExtTable keys, monomials_in_degree calls and messages.
Ext tables are keyed by (cohomological degree s, total degree); the internal
degree is total + (s, 0).
"""

from __future__ import annotations

from functools import cache
from itertools import product
from operator import add, mul, sub
from typing import Callable, NamedTuple

from . import fp
from .algebra import EXT, INV, POLY, TRUNC, Monomial, monomials_in_degree
from .concurrency import deterministic_map
from .errors import BookkeepingError, ConfigError, WindowIncompleteError
from .fp import SparseMatFp
from .grading import DegreeWindow, SpokeDegree
from .hopf import Comodule, HopfAlgebroid, TensorKey, splice_at, truncated_hopf

D = SpokeDegree

BasisIndex = tuple[Monomial, tuple[Monomial, ...]]  # (comodule monomial, bar word)


# ---------------------------------------------------------------------------
# the read set

SliceKey = tuple[int, int, int]  # (m, n, s)


def _column_reads(total: SpokeDegree, s_max: int):
    """Per s <= s_max of one total degree's column, (key of d_out, key of
    d_in or None): C^s sits at internal degree total + (s, 0), between d_in
    from C^(s-1) and d_out to C^(s+1)."""
    for s in range(s_max + 1):
        m, n = total.m + s, total.n
        yield (m, n, s), (m, n, s - 1) if s else None


def ext_reads(window: DegreeWindow) -> list[SliceKey]:
    """The keys of every differential ext_dimensions reads on the window,
    each once, in (m, n, s) order.  The builders build these and their
    slices at s and s + 1, and nothing else."""
    keys = {
        key
        for total in window.degrees()
        for d_out, d_in in _column_reads(total, window.s_max)
        for key in (d_out, d_in)
        if key is not None
    }
    return sorted(keys)


def _slice_keys(reads: list[SliceKey]) -> list[SliceKey]:
    """The source and target slice of every differential read, each once."""
    return sorted({(m, n, t) for m, n, s in reads for t in (s, s + 1)})


# ---------------------------------------------------------------------------
# the complex, checked where it is made


class ExtComplex:
    """One route's ladders C^0 -> C^1 -> ... per internal degree: the slice
    bases and the differentials, keyed by (m, n, s).  ``label`` formats one
    basis element and ``route`` names the route in messages.  Making one
    checks d o d = 0 (``validate_dsquare``)."""

    __slots__ = ("route", "p", "window", "bases", "diffs", "label")

    def __init__(
        self, route: str, p: int, window: DegreeWindow, bases: dict, diffs: dict, label: Callable
    ):
        self.route = route
        self.p = p
        self.window = window
        self.bases = bases
        self.diffs = diffs
        self.label = label
        validate_dsquare(self)


def validate_dsquare(cx: ExtComplex) -> None:
    """Full d o d = 0 check on every composable pair of built differentials.

    A pair of matrix objects that several slices share is composed once.
    """
    checked: set[tuple[int, int]] = set()
    for (m, n, s), d_low in cx.diffs.items():
        d_high = cx.diffs.get((m, n, s + 1))
        pair = (id(d_low), id(d_high))
        if d_high is None or pair in checked:
            continue
        checked.add(pair)
        fp.check_zero_composite(
            d_low, d_high, f"{cx.route} d^2 != 0 at internal {D(m, n)}, s={s}"
        )


# ---------------------------------------------------------------------------
# bar-word enumeration


def _gamma_bar_candidates(H: HopfAlgebroid, max_m: int, m_nonneg: bool) -> list[Monomial]:
    """Non-unit monomials of the coaugmentation coideal, as left-base-module
    basis words (non-base generators only), sorted.

    The words are one product of exponent ranges: range(bound) for a
    generator with a bound, and range(max_m // m + 1) for a polynomial one,
    whose words are then kept up to m = max_m.  That cap is complete only
    when no letter and no module monomial has negative m (``m_nonneg``,
    for the module): a word over them lies in no slice of m <= max_m.
    """
    total = H.total
    base_names = set(H.base.names)
    coideal = [i for i, name in enumerate(total.names) if name not in base_names]
    if not coideal:
        raise ConfigError("total ring has no coideal generators")
    ranges = [range(1)] * len(total)
    capped = False
    for i in coideal:
        g = total.generators[i]
        if g.bound is not None:
            ranges[i] = range(g.bound)
            continue
        if g.degree.m < 1:
            raise WindowIncompleteError(
                f"cannot bound coideal generator {g.name} with m = {g.degree.m}"
            )
        if not m_nonneg or any(total.degrees[j].m < 0 for j in coideal):
            raise WindowIncompleteError(
                f"cannot bound coideal generator {g.name} by the window: a module "
                "monomial or a letter has negative m"
            )
        capped = True
        ranges[i] = range(max_m // g.degree.m + 1)
    word_m = [d.m for d in total.degrees]
    return [
        word
        for word in product(*ranges)
        if any(word) and not (capped and sum(map(mul, word, word_m)) > max_m)
    ]


def build_cobar(H: HopfAlgebroid, comodule: Comodule, window: DegreeWindow) -> ExtComplex:
    """Enumerate the differentials ext_dimensions reads on the window, and
    their source and target slices (``ext_reads``).

    A slice (m, n, s) is every (module monomial, bar word of s non-unit
    letters) of total degree m + n@, sorted.  The bar words are enumerated
    once per build, by (m, n) lane, one letter more per step up to the top
    slice read; each slice pairs the words of each lane with the module
    monomials of the degree left over.
    """
    M = comodule.module
    total = H.total
    reads = ext_reads(window)
    slice_keys = _slice_keys(reads)
    max_m = max(m for m, _, _ in reads)

    # when every module monomial has m >= 0 (no inverted generators with
    # negative m reach), bar words cannot overspend the m budget: this caps
    # the polynomial letters and, when no letter has negative m either,
    # prunes every word past max_m
    m_nonneg = all(g.kind != INV and g.degree.m >= 0 for g in M.generators)
    by_lane: dict[tuple[int, int], list[Monomial]] = {}
    for mono in _gamma_bar_candidates(H, max_m, m_nonneg):
        by_lane.setdefault(total.lanes_of(mono), []).append(mono)
    prune = m_nonneg and all(bm >= 0 for bm, _ in by_lane)
    # words[s]: the bar words of s letters, by (m, n) lane
    words: list[dict[tuple[int, int], list[tuple[Monomial, ...]]]] = [{(0, 0): [()]}]
    for _ in range(max(s for _, _, s in slice_keys)):
        longer: dict[tuple[int, int], list[tuple[Monomial, ...]]] = {}
        for (wm, wn), ws in words[-1].items():
            for (bm, bn), bs in by_lane.items():
                if prune and wm + bm > max_m:
                    continue
                lane = longer.setdefault((wm + bm, wn + bn), [])
                lane.extend([w + (b,) for w in ws for b in bs])
        words.append(longer)

    bases = {
        (m, n, s): sorted(
            (m_mono, word)
            for (wm, wn), ws in words[s].items()
            for m_mono in monomials_in_degree(M, D(m - wm, n - wn))
            for word in ws
        )
        for m, n, s in slice_keys
    }

    diffs = {}
    p = H.p
    unit = total.unit_monomial()  # every bar letter is a monomial of total
    for m, n, s in reads:
        src = bases[(m, n, s)]
        dst = bases[(m, n, s + 1)]
        dst_index = {idx: i for i, idx in enumerate(dst)}
        ctx = H.tensor_power_of((M,) + (total,) * (s + 1))
        columns: list[dict[int, int]] = []
        for (m_mono, word) in src:
            # the alternating faces: psi at slot 0, Delta at each bar letter
            raw: dict[TensorKey, int] = {}
            for i in range(s + 1):
                splice_at(raw, H.delta if i else comodule.psi, (m_mono,) + word, i, (-1) ** i)
            col: dict[int, int] = {}
            for key, c in ctx.normalize(raw).items():
                if not c % p or unit in key[1:]:
                    continue  # zero, or degenerate part of the normalized complex
                row = dst_index.get((key[0], key[1:]))
                if row is None:
                    raise BookkeepingError(
                        f"cobar image leaves the enumerated slice at {D(m, n)}, s={s}"
                    )
                col[row] = c
            columns.append(col)
        diffs[(m, n, s)] = SparseMatFp.from_columns(columns, len(dst), p)

    def label(index: BasisIndex) -> str:
        m_mono, word = index
        inner = "|".join(total.format_monomial(b) for b in word)
        return M.format_monomial(m_mono) + (f"[{inner}]" if word else "")

    return ExtComplex("cobar", p, window, bases, diffs, label)


class ExtTable(NamedTuple):
    """(s, total degree) -> (dimension, representative labels), for the
    nonzero dimensions only.  Tables compare by their entries."""

    entries: dict[tuple[int, SpokeDegree], tuple[int, tuple[str, ...]]]

    def dim(self, s: int, total: SpokeDegree) -> int:
        return self.entries.get((s, total), (0, ()))[0]

    def dims(self) -> dict[tuple[int, SpokeDegree], int]:
        return {k: v[0] for k, v in self.entries.items()}

    def format(self) -> str:
        lines = []
        for (s, total), (dim, labels) in sorted(self.entries.items()):
            lines.append(f"{s} | {total.format()} | {dim} | {' '.join(labels)}")
        return "\n".join(lines) + "\n"


def ext_dimensions(cx: ExtComplex) -> ExtTable:
    """Cohomology of either route's ladders, reported per (s, total degree).

    A representative is labelled by the least basis label in its support.
    Each total degree is one independent column, mapped in window order,
    and reads the differentials ``_column_reads`` names; one the builder
    left out raises BookkeepingError.
    Each distinct (d_in, d_out) pair is reduced once.  Pairs are compared by
    content, not only by object, so equal matrices a builder built apart
    (the literal cobar route shares none) are reduced once too.  The labels
    stay per slice, since the least label is not shift-invariant (``a^10``
    sorts before ``a^9``).
    """
    p = cx.p
    Homology = tuple[int, list[fp.Vector]]
    by_content: dict[tuple, Homology] = {}
    # every differential stays in cx.diffs for the whole pass, so its id
    # names it; a pair of objects seen before skips building its key
    by_object: dict[tuple[int, int], Homology] = {}

    def content(d: SparseMatFp | None) -> tuple | None:
        # entries are kept sorted, so equal matrices give equal keys
        return d and (d.rows, d.cols, tuple(d.entries), tuple(d.entries.values()))

    def read(key: SliceKey) -> SparseMatFp:
        try:
            return cx.diffs[key]
        except KeyError:
            m, n, s = key
            raise BookkeepingError(
                f"{cx.route} complex has no differential at internal {D(m, n)}, s={s}"
            ) from None

    def column(total: SpokeDegree):
        col = []
        for out_key, in_key in _column_reads(total, cx.window.s_max):
            d_out = read(out_key)
            d_in = read(in_key) if in_key else None
            objects = (id(d_in), id(d_out))
            if objects not in by_object:
                pair = (content(d_in), content(d_out))
                if pair not in by_content:
                    boundary = d_in or SparseMatFp.zero(d_out.cols, 0, p)
                    by_content[pair] = fp.quotient_dimension(boundary, d_out)
                by_object[objects] = by_content[pair]
            dim, reps = by_object[objects]
            if dim:
                basis, label = cx.bases[out_key], cx.label
                labels = tuple(
                    min(label(basis[i]) for i, c in enumerate(vec) if c) for vec in reps
                )
                col.append(((out_key[2], total), (dim, labels)))
        return col

    columns = deterministic_map(column, cx.window.degrees())
    entries = dict(entry for col in columns for entry in col)
    return ExtTable(entries)


# ---------------------------------------------------------------------------
# dual-algebra resolution route


class Strand(NamedTuple):
    """One periodic line of the free resolution over the dual algebra.

    A step up the line applies the extraction operator for pi folds[r]
    times, r being the step's place in the period: folds is (1,) for the
    dual of an exterior primitive (the z-line, polynomial in Ext) and
    (1, p - 1) for a height-p digit line of a truncated polynomial
    primitive (an x-class step, then an x'-class step).  A state (r, j) is
    j whole periods plus r more steps.  It is labelled ``label`` if r > 0,
    then ``prime_label``^j; an exterior line has both labels "z", so its
    state (0, k) prints z^k.
    """

    pi: Monomial
    degree: SpokeDegree  # degree of pi
    label: str
    prime_label: str
    folds: tuple[int, ...]

    def state_s(self, state) -> int:
        r, j = state
        return r + len(self.folds) * j

    def state_degree(self, state) -> SpokeDegree:
        r, j = state
        return self.degree * (sum(self.folds[:r]) + j * sum(self.folds))

    def state_label(self, state) -> list[str]:
        r, j = state
        parts = [self.label] if r else []
        if j:
            parts.append(self.prime_label if j == 1 else f"{self.prime_label}^{j}")
        return parts


GenState = tuple


class ResolutionGens:
    __slots__ = ("strands",)

    def __init__(self, strands: tuple[Strand, ...]):
        self.strands = strands

    def s_of(self, state: GenState) -> int:
        return sum(st.state_s(c) for st, c in zip(self.strands, state))

    def degree_of(self, state: GenState) -> SpokeDegree:
        total = D(0, 0)
        for st, c in zip(self.strands, state):
            total = total + st.state_degree(c)
        return total

    def label_of(self, state: GenState) -> str:
        parts = []
        for st, c in zip(self.strands, state):
            parts.extend(st.state_label(c))
        return "*".join(parts) if parts else "1"

    def enumerate(self, s_cap: int) -> list[GenState]:
        # (s, state) pairs, one strand more per step
        states: list[tuple[int, GenState]] = [(0, ())]
        for st in self.strands:
            period = len(st.folds)
            states = [
                (s + r + period * j, state + ((r, j),))
                for s, state in states
                for j in range((s_cap - s) // period + 1)
                for r in range(min(period, s_cap - s - period * j + 1))
            ]
        states.sort()
        return [state for _, state in states]

    def moves(self, state: GenState) -> list[tuple[Monomial, GenState, int, int]]:
        """(pi, new state, fold, sign) per strand, each one step up its line;
        the sign is the parity of the cohomological degree left of the
        strand."""
        out = []
        prefix = 0
        for i, (st, (r, j)) in enumerate(zip(self.strands, state)):
            step = (r + 1, j) if r + 1 < len(st.folds) else (0, j + 1)
            new = state[:i] + (step,) + state[i + 1 :]
            out.append((st.pi, new, st.folds[r], -1 if prefix % 2 else 1))
            prefix += st.state_s((r, j))
        return out


def _p_power_height(bound: int, p: int) -> int:
    n = 0
    while bound > 1:
        if bound % p:
            raise ConfigError(f"truncation bound {bound} is not a power of {p}")
        bound //= p
        n += 1
    return n


def resolution_strands(H: HopfAlgebroid) -> ResolutionGens:
    """Strand data for a finite primitively generated Hopf algebra.

    Exterior primitives give z-lines; a truncated polynomial primitive of
    bound p^n splits into n digit lines (the coalgebra is the tensor of the
    digit coalgebras, binomials factoring digit-wise mod p), labelled
    x0..x{n-1} / xp0..xp{n-1}.
    """
    if not H.is_hopf_algebra:
        raise ConfigError("resolution route needs a Hopf algebra over F_p")
    p = H.p
    strands: list[Strand] = []
    e_count = 0
    y_count = 0
    unit = H.total.unit_monomial()
    for g in H.total.generators:
        mono = H.total.monomial(**{g.name: 1})
        want = {(mono, unit): 1, (unit, mono): 1}
        if H.delta.apply_monomial(mono).coeffs != want:
            raise ConfigError(f"generator {g.name} is not primitive")
        if g.kind == EXT:
            label = "z" if e_count == 0 else f"z{e_count}"
            strands.append(Strand(mono, g.degree, label, label, (1,)))
            e_count += 1
        elif g.kind == TRUNC:
            for t in range(_p_power_height(g.bound, p)):
                pim = H.total.monomial(**{g.name: p**t})
                strands.append(
                    Strand(pim, g.degree * (p**t), f"x{y_count}", f"xp{y_count}", (1, p - 1))
                )
                y_count += 1
        else:
            raise ConfigError(f"unsupported coalgebra generator kind {g.kind}")
    return ResolutionGens(tuple(strands))


class DualOperators:
    """Extraction operators on a comodule: for a primitive monomial pi,
    op_pi(m) = the coefficient of pi in psi(m).

    The operators are linear over every polynomial generator g whose
    coaction is trivial, psi(g) = g (x) 1: psi is multiplicative, so
    op_pi(g^k m) = g^k op_pi(m).  Such a generator is even and unbounded, so
    shifting its exponent is exact: no sign and no truncation.  __init__
    reads this set, ``factored``, off ``comodule.psi`` (for
    ``truncated_hopf`` it is {a}); apply_fold sets those exponents to 0,
    memoises the folded image of the remaining monomial on (pi, base, fold),
    and shifts the exponents back onto it.

    An image is a plain {monomial: coeff} dict with coefficients in
    1..p-1; no monomial check and no Element.  The builder looks every term
    up in its target slice, which holds exactly the valid monomials of the
    target degree, so that lookup is the homogeneity guard.
    """

    def __init__(self, comodule: Comodule):
        self.comodule = comodule
        self.module = comodule.module
        unit = comodule.algebroid.total.unit_monomial()
        self.factored = tuple(
            g.name
            for g in self.module.generators
            if g.kind == POLY
            and comodule.psi.images[g.name].coeffs
            == {(self.module.monomial(**{g.name: 1}), unit): 1}
        )
        self._mask = tuple(int(name in self.factored) for name in self.module.names)
        self._memo: dict[tuple[Monomial, Monomial, int], dict[Monomial, int]] = {}

    def apply_fold(self, pi: Monomial, m_mono: Monomial, fold: int) -> dict[Monomial, int]:
        """op_pi applied fold times to one module monomial, as {monomial:
        coeff}.  For a monomial with no factored exponent this is the memo's
        own dict: callers read it and must not mutate it."""
        return self._image(pi, m_mono, fold)

    def _image(self, pi: Monomial, mono: Monomial, fold: int) -> dict[Monomial, int]:
        """op_pi^fold(mono) as a raw dict, memoised on mono's base."""
        shift = tuple(map(mul, mono, self._mask))
        base = tuple(map(sub, mono, shift))
        key = (pi, base, fold)
        image = self._memo.get(key)
        if image is None:
            image = self._memo[key] = self._fold(pi, base, fold)
        if base == mono:
            return image
        return {tuple(map(add, m, shift)): c for m, c in image.items()}

    def _fold(self, pi: Monomial, base: Monomial, fold: int) -> dict[Monomial, int]:
        """op_pi^fold(base) as a raw dict, one memoised op_pi step at a time."""
        if fold == 1:
            psi = self.comodule.psi.apply_monomial(base)
            return {mono: c for (mono, g), c in psi.coeffs.items() if g == pi}
        p = self.module.p
        current = {base: 1}
        for _ in range(fold):
            acc: dict[Monomial, int] = {}
            for mono, c in current.items():
                for m2, c2 in self._image(pi, mono, 1).items():
                    acc[m2] = (acc.get(m2, 0) + c * c2) % p
            current = {m: c for m, c in acc.items() if c}
        return current


def build_resolution_complex(
    H: HopfAlgebroid, comodule: Comodule, window: DegreeWindow
) -> ExtComplex:
    gens = resolution_strands(H)
    M = comodule.module
    ops = DualOperators(comodule)
    p = H.p

    # each generator state's degree, as (m, n) lanes, and moves, once per state
    states = gens.enumerate(window.s_max + 1)
    by_s: dict[int, list[tuple[GenState, int, int]]] = {}
    for st in states:
        degree = gens.degree_of(st)
        by_s.setdefault(gens.s_of(st), []).append((st, degree.m, degree.n))
    moves = {st: gens.moves(st) for st in states}

    # A slice is one block of monomials per state of its height, and the
    # slices share module degrees, so each degree is enumerated once, on
    # first use.  States come sorted and so do the monomials of each degree,
    # so every slice basis is in (state, monomial) order.
    block = cache(lambda m, n: monomials_in_degree(M, D(m, n)))
    reads = ext_reads(window)
    bases = {
        (m, n, s): [
            (m_mono, state)
            for state, dm, dn in by_s.get(s, ())
            for m_mono in block(m - dm, n - dn)
        ]
        for m, n, s in _slice_keys(reads)
    }

    # A factored generator (a, for truncated_hopf) maps the slice one step
    # up its a-column injectively into this one, keeping the (state,
    # monomial) order, so a slice as long as that upper neighbour is its
    # a-translate.  Since op_pi(a m) = a op_pi(m), a differential between two
    # translates is the matrix one step up, shared as the same object when
    # that one is built; only head slices apply the operators.  With no
    # factored generator the step is 0, and the key one step up is the
    # differential's own, not yet built.
    step = M.generator(ops.factored[0]).degree if ops.factored else D(0, 0)
    sm, sn = step.m, step.n

    diffs = {}
    # ordered by the component along step, so the differential one up the
    # a-column is built first
    for m, n, s in sorted(reads, key=lambda k: k[0] * sm + k[1] * sn):
        up = (m - sm, n - sn, s)
        if up in diffs and all(
            len(bases[(m - sm, n - sn, t)]) == len(bases[(m, n, t)]) for t in (s, s + 1)
        ):
            diffs[(m, n, s)] = diffs[up]
            continue
        src = bases[(m, n, s)]
        dst = bases[(m, n, s + 1)]
        dst_index = {idx: i for i, idx in enumerate(dst)}
        columns = []
        for m_mono, state in src:
            col: dict[int, int] = {}
            for pi, new_state, fold, sign in moves[state]:
                for mono, c in ops.apply_fold(pi, m_mono, fold).items():
                    row = dst_index.get((mono, new_state))
                    if row is None:
                        raise BookkeepingError(
                            f"resolution image leaves slice at {D(m, n)}, s={s}"
                        )
                    col[row] = col.get(row, 0) + sign * c
            columns.append(col)
        diffs[(m, n, s)] = SparseMatFp.from_columns(columns, len(dst), p)

    def label(index: tuple[Monomial, GenState]) -> str:
        m_mono, state = index
        parts = (M.format_monomial(m_mono), gens.label_of(state))
        return "*".join(part for part in parts if part != "1") or "1"

    return ExtComplex("resolution", p, window, bases, diffs, label)


def resolution_ext_table(
    H: HopfAlgebroid, comodule: Comodule, window: DegreeWindow
) -> ExtTable:
    return ext_dimensions(build_resolution_complex(H, comodule, window))


def stabilize_over_n(
    p: int, window: DegreeWindow, n_max: int, beta: int = 1, beta_prime: int = 1
):
    """Ext tables over increasing truncation height until two consecutive
    heights agree on the window; returns (table, n, stabilized flag)."""
    fp.check_stabilization_heights(n_max)
    tables = {}
    for n in range(1, n_max + 1):
        H, M = truncated_hopf(p, n, beta, beta_prime)
        tables[n] = resolution_ext_table(H, M, window)
        if n > 1 and tables[n].dims() == tables[n - 1].dims():
            return tables[n - 1], n - 1, True
    return tables[n_max], n_max, False
