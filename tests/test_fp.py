import random

import pytest
from hypothesis import given, settings, strategies as st

from spokeseq import fp
from spokeseq.errors import BookkeepingError, CompositionError
from spokeseq.fp import SparseMatFp, Subspace

from sparse_helpers import apply, from_dense, identity, to_dense


def dense_rank_oracle(data, p):
    """Textbook dense Gaussian elimination, kept independent of fp.rref."""
    a = [[v % p for v in row] for row in data]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def rref_oracle(rows_data, p):
    """Column-major Gauss-Jordan elimination, the engine's former rref: for
    each column, the first row at or below the current rank with a nonzero
    entry becomes the pivot row and every other row is cleared in that
    column.  Kept as the oracle for the row-major fp.rref."""
    nrows = len(rows_data)
    ncols = len(rows_data[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows_data[i][c] % p:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows_data[r], rows_data[pivot_row] = rows_data[pivot_row], rows_data[r]
        inv = pow(rows_data[r][c], -1, p)
        row_r = rows_data[r]
        if inv != 1:
            for j in range(c, ncols):
                if row_r[j]:
                    row_r[j] = row_r[j] * inv % p
        for i in range(nrows):
            if i != r and rows_data[i][c]:
                f = rows_data[i][c]
                row_i = rows_data[i]
                for j in range(c, ncols):
                    if row_r[j]:
                        row_i[j] = (row_i[j] - f * row_r[j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows_data[:r], pivots


def test_rank_trivial():
    assert fp.rank(SparseMatFp.zero(3, 3, 3)) == 0
    assert fp.rank(identity(4, 5)) == 4


def test_rank_weyl_square_p3():
    # gamma on span(mu_1, mu_2) at p=3: gamma(mu_1)=mu_2, gamma(mu_2)=-mu_1-mu_2.
    # (gamma-1)^p = 0 and span(mu_1, mu_2) is a single size-2 Jordan block, so
    # (gamma-1)^2 is already zero: rank 0.
    g = from_dense([[0, -1], [1, -1]], 3)
    gm1 = from_dense([[-1, -1], [1, -2]], 3)
    sq = gm1.matmul(gm1)
    assert sq.is_zero()
    assert fp.rank(sq) == 0
    # sanity: gamma^3 = 1
    assert g.matmul(g).matmul(g).entries == identity(2, 3).entries


def test_kernel_trivial():
    assert fp.kernel_basis(identity(2, 3)) == []
    basis = fp.kernel_basis(SparseMatFp.zero(1, 2, 3))
    assert basis == [(1, 0), (0, 1)]


def test_quotient_dimension_trivial():
    z22 = SparseMatFp.zero(2, 2, 3)
    assert fp.quotient_dimension(z22, z22) == (2, [(1, 0), (0, 1)])
    ident = identity(2, 3)
    assert fp.quotient_dimension(ident, z22) == (0, [])


def test_check_zero_composite():
    z22 = SparseMatFp.zero(2, 2, 3)
    ident = identity(2, 3)
    fp.check_zero_composite(ident, z22, "unused")
    with pytest.raises(CompositionError, match=r"^\[E_DSQUARE\] named pair$"):
        fp.check_zero_composite(ident, ident, "named pair")


def test_quotient_with_basis():
    # 0 -> F_3^2 --[1 0;0 0]--> F_3^2: homology = ker / im, dim 1
    d_boundary = from_dense([[1, 0], [0, 0]], 3)
    d_cycle = from_dense([[0, 0], [0, 1]], 3)
    dim, reps = fp.quotient_dimension(d_boundary, d_cycle)
    assert dim == 0 and reps == []
    dim, reps = fp.quotient_dimension(d_boundary, SparseMatFp.zero(2, 2, 3))
    assert dim == 1 and reps == [(0, 1)]


def test_quotient_with_basis_refuses_a_lost_representative(monkeypatch):
    # a representative dropped on the way is a coded error naming both
    # matrix shapes, not an assert that python -O strips
    real = fp.quotient_basis

    def lose_first(cycles, boundaries, dim, p):
        return Subspace(real(cycles, boundaries, dim, p).rows[1:], dim, p)

    monkeypatch.setattr(fp, "quotient_basis", lose_first)
    d_boundary = SparseMatFp.zero(3, 0, 3)
    d_cycle = SparseMatFp.zero(1, 3, 3)
    with pytest.raises(BookkeepingError, match=r"^\[E_BOOKKEEPING\] .*3x0 .* 1x3"):
        fp.quotient_dimension(d_boundary, d_cycle)


# No user input reaches a shape check in fp: a bad shape is an internal
# fault of the caller, [E_BOOKKEEPING] (exit 4), not a configuration error.


def test_entry_out_of_range_is_a_bookkeeping_error():
    with pytest.raises(BookkeepingError, match=r"^\[E_BOOKKEEPING\] entry \(2,0\) out of range"):
        SparseMatFp(2, 1, 3, {(2, 0): 1})


@pytest.mark.parametrize(
    "other", [SparseMatFp.zero(3, 2, 3), SparseMatFp.zero(2, 2, 5)], ids=["shape", "prime"]
)
def test_matmul_mismatch_is_a_bookkeeping_error(other):
    with pytest.raises(BookkeepingError, match=r"^\[E_BOOKKEEPING\] cannot compose 2x2 with"):
        SparseMatFp.zero(2, 2, 3).matmul(other)


def test_subspace_vector_of_wrong_length_is_a_bookkeeping_error():
    with pytest.raises(BookkeepingError, match=r"^\[E_BOOKKEEPING\] subspace vector has wrong"):
        Subspace([(1, 0, 0)], 2, 3)


def test_quotient_of_a_pair_that_does_not_compose_is_a_bookkeeping_error():
    with pytest.raises(BookkeepingError, match=r"^\[E_BOOKKEEPING\] not composable"):
        fp.quotient_dimension(SparseMatFp.zero(3, 1, 3), SparseMatFp.zero(1, 2, 3))


@st.composite
def random_sparse(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    n_entries = draw(st.integers(0, rows * cols))
    entries = {}
    for _ in range(n_entries):
        i = draw(st.integers(0, rows - 1))
        j = draw(st.integers(0, cols - 1))
        entries[(i, j)] = draw(st.integers(1, p - 1))
    return SparseMatFp(rows, cols, p, entries)


@given(random_sparse())
def test_rank_nullity(mat):
    assert fp.rank(mat) + len(fp.kernel_basis(mat)) == mat.cols


@given(random_sparse())
def test_rank_matches_dense_oracle(mat):
    assert fp.rank(mat) == dense_rank_oracle(to_dense(mat), mat.p)


@given(random_sparse(), st.randoms(use_true_random=False))
def test_rank_invariance(mat, rng):
    rows = list(range(mat.rows))
    cols = list(range(mat.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = SparseMatFp(
        mat.rows,
        mat.cols,
        mat.p,
        {(rows[i], cols[j]): v for (i, j), v in mat.entries.items()},
    )
    assert fp.rank(permuted) == fp.rank(mat)
    unit = rng.randrange(1, mat.p)
    scaled = SparseMatFp(
        mat.rows,
        mat.cols,
        mat.p,
        {(i, j): v * unit if i == 0 else v for (i, j), v in mat.entries.items()},
    )
    assert fp.rank(scaled) == fp.rank(mat)


@given(random_sparse())
def test_kernel_vectors_in_kernel(mat):
    for vec in fp.kernel_basis(mat):
        assert not any(apply(mat, vec))


@settings(max_examples=25)
@given(random_sparse())
def test_insertion_order_irrelevant(mat):
    items = sorted(mat.entries.items(), reverse=True)
    rebuilt = SparseMatFp(mat.rows, mat.cols, mat.p, dict(items))
    assert rebuilt.entries == mat.entries
    assert fp.kernel_basis(rebuilt) == fp.kernel_basis(mat)


def test_oracle_at_size_200():
    rng = random.Random(7)
    p = 3
    data = [
        [rng.randrange(p) if rng.random() < 0.05 else 0 for _ in range(200)]
        for _ in range(200)
    ]
    mat = from_dense(data, p)
    assert fp.rank(mat) == dense_rank_oracle(data, p)


def kernel_oracle(data, p):
    """The null-space basis read off rref_oracle, one vector per free column."""
    ncols = len(data[0])
    reduced, pivots = rref_oracle([list(row) for row in data], p)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        vec = [0] * ncols
        vec[j] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[j] % p
        basis.append(tuple(vec))
    return basis


@st.composite
def with_repeated_rows(draw):
    """(mat, taller): taller holds every row of mat in order, with copies
    of some of them interleaved."""
    mat = draw(random_sparse())
    dense = to_dense(mat)
    rows = [list(row) for row in dense]
    copies = draw(st.lists(st.integers(0, mat.rows - 1), min_size=1, max_size=12))
    for i in copies:
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, list(dense[i]))
    return mat, from_dense(rows, mat.p)


@given(with_repeated_rows())
def test_repeated_rows_change_nothing(case):
    # nonzero_rows hands each distinct nonzero row on once; the row space,
    # and so the rank and the canonical kernel, stay those of the matrix
    # without the repeats and those of the column-major oracle
    mat, taller = case
    dense = to_dense(mat)
    got = taller.nonzero_rows()
    assert len(set(map(tuple, got))) == len(got)
    assert set(map(tuple, got)) == {tuple(row) for row in dense if any(row)}
    assert fp.rank(taller) == fp.rank(mat) == len(rref_oracle(dense, mat.p)[1])
    assert fp.kernel_basis(taller) == fp.kernel_basis(mat) == kernel_oracle(dense, mat.p)


@st.composite
def row_lists(draw, unreduced):
    """(rows, p) for fp.rref at p = 3, 5, 7: up to 40 rows of up to 8
    columns, most of them zero and some of them combinations of two rows
    before; entries in 0..p-1, or in -2p..2p when unreduced."""
    p = draw(st.sampled_from([3, 5, 7]))
    entry = st.integers(-2 * p, 2 * p) if unreduced else st.integers(0, p - 1)
    ncols = draw(st.integers(0, 8))
    nrows = draw(st.integers(0, 40))
    kinds = draw(st.lists(st.sampled_from("00rc"), min_size=nrows, max_size=nrows))
    rows = []
    for kind in kinds:
        if kind == "r":
            row = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        elif kind == "c" and rows:
            i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2))
            a, b = draw(st.lists(entry, min_size=2, max_size=2))
            row = [a * x + b * y for x, y in zip(rows[i], rows[j])]
            if not unreduced:
                row = [v % p for v in row]
        else:
            row = [0] * ncols
        rows.append(row)
    return rows, p


@settings(max_examples=200)
@given(row_lists(unreduced=False))
def test_rref_matches_oracle(case):
    rows, p = case
    assert fp.rref([list(row) for row in rows], p) == rref_oracle([list(row) for row in rows], p)


@settings(max_examples=200)
@given(row_lists(unreduced=True))
def test_rref_matches_oracle_mod_p(case):
    # entries outside 0..p-1 are read mod p, and the result is reduced
    rows, p = case
    got_rows, got_pivots = fp.rref([list(row) for row in rows], p)
    want_rows, want_pivots = rref_oracle([list(row) for row in rows], p)
    assert got_pivots == want_pivots
    assert got_rows == [[v % p for v in row] for row in want_rows]
    assert all(0 <= v < p for row in got_rows for v in row)


def test_rref_skips_a_leading_multiple_of_p():
    # a leading p or -p is zero mod p: it is dropped, never inverted
    for p in (3, 5, 7):
        assert fp.rref([[p, -p, p], [0, -p, 1]], p) == ([[0, 0, 1]], [2])
        assert fp.rref([[p, -p, -p], [1, 2, p + 1]], p) == ([[1, 2, 1]], [0])
        assert Subspace([(p, -p, p), (0, 1, 2 * p + 2)], 3, p).rows == [[0, 1, 2]]


def test_subspace_reduce():
    sub = Subspace([(1, 1, 0), (0, 0, 1)], 3, 3)
    assert sub.rank == 2
    assert sub.contains((2, 2, 1))
    assert sub.reduce((0, 1, 0)) == (0, 1, 0) or sub.reduce((0, 1, 0)) != (0, 0, 0)
    assert sub.coordinates((1, 1, 2)) == (1, 2)
    assert sub.coordinates((1, 0, 0)) is None


@st.composite
def subspace_and_vector(draw):
    """(subspace, vector) at p = 3, 5, 7: half the subspaces are the whole
    space, and half the vectors are combinations of the spanning vectors;
    entries run outside 0..p-1."""
    p = draw(st.sampled_from([3, 5, 7]))
    dim = draw(st.integers(1, 6))
    entry = st.integers(-2 * p, 2 * p)
    vectors = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=dim + 1))
    if draw(st.booleans()):
        vectors += [[int(i == j) for i in range(dim)] for j in range(dim)]
    if vectors and draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=len(vectors), max_size=len(vectors)))
        vec = [sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(dim)]
    else:
        vec = draw(st.lists(entry, min_size=dim, max_size=dim))
    return Subspace(vectors, dim, p), vec


@given(subspace_and_vector())
def test_subspace_coordinates(case):
    # None exactly when the vector leaves a residue; otherwise the
    # coefficients, in 0..p-1, times the RREF rows give the vector back mod p
    sub, vec = case
    coords = sub.coordinates(vec)
    assert (coords is None) == any(sub.reduce(vec))
    if coords is not None:
        assert len(coords) == sub.rank
        assert all(0 <= c < sub.p for c in coords)
        back = [sum(c * row[j] for c, row in zip(coords, sub.rows)) % sub.p for j in range(sub.dim)]
        assert back == [v % sub.p for v in vec]


@st.composite
def composable_pair(draw):
    """(d_in, d_out) with d_out o d_in = 0: d_in's columns are random
    combinations of a kernel basis of a random d_out."""
    d_out = draw(random_sparse())
    p = d_out.p
    kernel = fp.kernel_basis(d_out)
    columns = []
    for _ in range(draw(st.integers(0, 6))):
        coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(kernel), max_size=len(kernel)))
        col = [sum(c * vec[i] for c, vec in zip(coeffs, kernel)) % p for i in range(d_out.cols)]
        columns.append({i: v for i, v in enumerate(col) if v})
    return SparseMatFp.from_columns(columns, d_out.cols, p), d_out


@given(composable_pair())
def test_quotient_reps_match_rank_formula(pair):
    # dim = dim ker d_out - rank d_in, and the representatives are cycles
    # that stay independent modulo the boundaries
    d_in, d_out = pair
    dim, reps = fp.quotient_dimension(d_in, d_out)
    assert dim == len(fp.kernel_basis(d_out)) - fp.rank(d_in)
    assert len(reps) == dim
    for vec in reps:
        assert not any(apply(d_out, vec))
    boundaries = [list(col) for col in zip(*to_dense(d_in))]
    span = Subspace(boundaries + [list(v) for v in reps], d_in.rows, d_in.p)
    assert span.rank == fp.rank(d_in) + dim
