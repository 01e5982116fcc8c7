"""Exact sparse linear algebra over a prime field F_p.

All arithmetic is integer arithmetic mod p; nothing in the engine touches
floating point.  Matrices are immutable after construction.  Every basis the
module returns is read off a reduced row echelon form, which is unique for
its row space, so the bases are canonical: independent of entry insertion
order, of row order and of how the elimination proceeds.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import BookkeepingError, CompositionError, ConfigError

Vector = tuple[int, ...]


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ConfigError(f"p must be an odd prime, got {p}")


def check_stabilization_heights(n_max: int) -> None:
    """Stabilization compares consecutive truncation heights 1..n_max, so
    it needs at least two of them."""
    if n_max < 2:
        raise ConfigError("stabilization needs n_max >= 2")


def check_unit(p: int, value: int, label: str) -> int:
    """value mod p, which must be a unit in F_p."""
    value %= p
    if value == 0:
        raise ConfigError(f"{label} must be a unit in F_{p}")
    return value


def inv_mod(a: int, p: int) -> int:
    return pow(a % p, p - 2, p)


class _SparseMatFp(NamedTuple):
    rows: int
    cols: int
    p: int
    entries: Mapping[tuple[int, int], int]


class SparseMatFp(_SparseMatFp):
    """rows x cols matrix over F_p, stored as {(row, col): value}, values in 1..p-1.

    ``__new__`` is the one place that reduces entries mod p and drops
    zeros, so a constructor passes its raw entries through."""

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, p: int, entries: Mapping[tuple[int, int], int]):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise BookkeepingError(f"entry ({i},{j}) out of range {rows}x{cols}")
            v %= p
            if v:
                clean[(i, j)] = v
        return super().__new__(cls, rows, cols, p, dict(sorted(clean.items())))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rows: int, cols: int, p: int) -> "SparseMatFp":
        return SparseMatFp(rows, cols, p, {})

    @staticmethod
    def from_columns(
        columns: Sequence[Mapping[int, int]], rows: int, p: int
    ) -> "SparseMatFp":
        """Columns given as {row: value}; matches how differentials are built."""
        entries = {(i, j): v for j, col in enumerate(columns) for i, v in col.items()}
        return SparseMatFp(rows, len(columns), p, entries)

    # -- basic ops ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def nonzero_rows(self) -> list[list[int]]:
        """The distinct nonzero rows, dense, in order of first appearance.
        A zero row or a repeat of an earlier row adds nothing to the row
        space, so each row is read as its run of (column, value) pairs first
        and only the first of equal runs is built."""
        runs: dict[tuple[tuple[int, int], ...], None] = {}
        run: list[tuple[int, int]] = []
        last = -1
        for (i, j), v in self.entries.items():  # sorted by (row, col)
            if i != last:
                runs[tuple(run)] = None
                run = []
                last = i
            run.append((j, v))
        runs[tuple(run)] = None
        del runs[()]  # the empty run before the first row
        out: list[list[int]] = []
        for key in runs:
            row = [0] * self.cols
            for j, v in key:
                row[j] = v
            out.append(row)
        return out

    def matmul(self, other: "SparseMatFp") -> "SparseMatFp":
        if self.cols != other.rows or self.p != other.p:
            raise BookkeepingError(
                f"cannot compose {self.rows}x{self.cols} with {other.rows}x{other.cols}"
            )
        by_row: dict[int, list[tuple[int, int]]] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, []).append((k, v))
        by_col: dict[int, list[tuple[int, int]]] = {}
        for (k, j), v in other.entries.items():
            by_col.setdefault(k, []).append((j, v))
        acc: dict[tuple[int, int], int] = {}
        for i, row in by_row.items():
            for k, v in row:
                for j, w in by_col.get(k, ()):
                    acc[(i, j)] = (acc.get((i, j), 0) + v * w) % self.p
        return SparseMatFp(self.rows, other.cols, self.p, acc)


def rref(rows_data: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of the rows: (the nonzero RREF rows, their
    pivot columns), both in increasing pivot order.

    The rows are equal-length lists of integers, read mod p: an entry may
    lie outside 0..p-1.  They are reduced in place and the returned rows are
    some of them, so the caller gives the rows up; rows_data itself keeps its
    length and order.  The returned entries lie in 0..p-1.

    Row-major: each row in turn is reduced at its leading entry by the pivot
    row found there until that column has no pivot, which makes the row a
    new pivot row, or the row is zero, which drops it.  A pivot row keeps
    the list of its nonzero columns, so a row operation walks only those.
    A last pass, last pivot first, clears the entries above each pivot.
    """
    ncols = len(rows_data[0]) if rows_data else 0
    columns = range(ncols)
    row_at: list = [None] * ncols
    nonzero_at: list = [None] * ncols
    pivots: list[int] = []
    for row in rows_data:
        # the iterator reads the row live, so it sees each update past c
        leads = compress(columns, row)
        for c in leads:
            v = row[c] % p
            if not v:  # an unreduced multiple of p
                row[c] = 0
                continue
            support = nonzero_at[c]
            if support is None:
                # every entry left of c is zero by now
                support = nonzero_at[c] = [c, *leads]
                if v == 1:
                    for j in support:
                        row[j] %= p
                else:
                    inv = inv_mod(v, p)
                    for j in support:
                        row[j] = row[j] * inv % p
                row_at[c] = row
                pivots.append(c)
                break
            pivot_row = row_at[c]
            for j in support:
                row[j] = (row[j] - v * pivot_row[j]) % p
    pivots.sort()
    rows = list(map(row_at.__getitem__, pivots))
    # a pivot row is final once every later pivot is cleared from it
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        pivot_row = rows[k]
        support = None
        for row in rows[:k]:
            f = row[c]
            if f:
                if support is None:
                    support = list(compress(columns, pivot_row))
                for j in support:
                    row[j] = (row[j] - f * pivot_row[j]) % p
    return rows, pivots


def rank(mat: SparseMatFp) -> int:
    _, pivots = rref(mat.nonzero_rows(), mat.p)
    return len(pivots)


def kernel_basis(mat: SparseMatFp) -> list[Vector]:
    """Canonical null-space basis: one vector per free column, RREF-derived."""
    ncols, p = mat.cols, mat.p
    reduced, pivots = rref(mat.nonzero_rows(), p)
    pivot_set = set(pivots)
    basis: list[Vector] = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for i, pc in enumerate(pivots):
            if reduced[i][j]:
                vec[pc] = (-reduced[i][j]) % p
        basis.append(tuple(vec))
    return basis


class Subspace:
    """Row-span in RREF form: ``rows`` are its canonical RREF rows and
    ``pivots`` their pivot columns.  Supports reduction, membership tests and
    coordinates on the rows."""

    def __init__(self, vectors: Iterable[Sequence[int]], dim: int, p: int):
        self.dim = dim
        self.p = p
        data = []
        for v in vectors:
            if len(v) != dim:
                raise BookkeepingError("subspace vector has wrong length")
            if any(v):  # zero rows add nothing to the span
                data.append(list(v))
        self.rows, self.pivots = rref(data, p) if data else ([], [])
        self.rank = len(self.pivots)

    def reduce(self, vec: Sequence[int]) -> Vector:
        """Canonical residue of vec modulo the subspace."""
        out = [v % self.p for v in vec]
        for row, pc in zip(self.rows, self.pivots):
            if out[pc]:
                f = out[pc]
                for j in range(pc, self.dim):
                    if row[j]:
                        out[j] = (out[j] - f * row[j]) % self.p
        return tuple(out)

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def coordinates(self, vec: Sequence[int]) -> Vector | None:
        """Coefficients of vec on the RREF basis rows, or None when vec is
        not in the span."""
        out = [v % self.p for v in vec]
        if self.rank == self.dim:
            # full rank: the RREF rows are the unit vectors
            return tuple(out)
        coeffs = []
        for row, pc in zip(self.rows, self.pivots):
            f = out[pc]
            coeffs.append(f)
            if f:
                for j in range(pc, self.dim):
                    if row[j]:
                        out[j] = (out[j] - f * row[j]) % self.p
        if any(out):
            return None
        return tuple(coeffs)


def quotient_basis(
    cycles: Iterable[Sequence[int]], boundaries: Subspace, dim: int, p: int
) -> Subspace:
    """span(cycles) / boundaries, as the subspace spanned by the cycles
    reduced modulo the boundaries: its canonical RREF rows are the
    representatives, the same for any spanning set of the same cycles.
    Cycle entries are in 0..p-1, so an empty boundary subspace reduces
    nothing.
    """
    if boundaries.rank:
        cycles = [boundaries.reduce(v) for v in cycles]
    return Subspace(cycles, dim, p)


def check_zero_composite(d_first: SparseMatFp, d_second: SparseMatFp, message: str) -> None:
    """Raise CompositionError(message) unless d_second o d_first = 0.

    The one d o d = 0 check: a nonzero composite means a differential
    upstream is wrong.
    """
    if not d_second.matmul(d_first).is_zero():
        raise CompositionError(message)


def quotient_dimension(
    d_boundary: SparseMatFp, d_cycle: SparseMatFp
) -> tuple[int, list[Vector]]:
    """(dim, reps): the homology at the middle of
    X --d_boundary--> Y --d_cycle--> Z and canonical representatives of it.

    The representatives are the rows of quotient_basis of the kernel of
    d_cycle modulo the image of d_boundary; a count that disagrees with the
    rank formula is a BookkeepingError.  Requires d_cycle o d_boundary = 0
    and does not recompose the pair: the caller has checked it once with
    check_zero_composite (the Ext builders through cobar.validate_dsquare).
    """
    if d_boundary.rows != d_cycle.cols:
        raise BookkeepingError(
            f"not composable: boundary lands in dim {d_boundary.rows}, "
            f"cycle starts at dim {d_cycle.cols}"
        )
    kernel = kernel_basis(d_cycle)
    columns = [[0] * d_boundary.rows for _ in range(d_boundary.cols)]
    for (i, j), v in d_boundary.entries.items():
        columns[j][i] = v
    image = Subspace(columns, d_boundary.rows, d_boundary.p)
    dim = len(kernel) - image.rank
    reps = quotient_basis(kernel, image, d_cycle.cols, d_cycle.p)
    if reps.rank != dim:
        raise BookkeepingError(
            f"quotient_dimension: {reps.rank} representatives for homology of "
            f"dimension {dim} between a {d_boundary.rows}x{d_boundary.cols} boundary "
            f"and a {d_cycle.rows}x{d_cycle.cols} cycle matrix"
        )
    return dim, [tuple(row) for row in reps.rows]
