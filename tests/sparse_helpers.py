"""Small SparseMatFp constructors and a matrix-vector product for tests.

The engine builds its matrices column by column (``SparseMatFp.from_columns``)
and never needs these; tests use them to write matrices by hand and to check
that a vector is a cycle.
"""

from typing import Sequence

from spokeseq.fp import SparseMatFp


def identity(n: int, p: int) -> SparseMatFp:
    return SparseMatFp(n, n, p, {(i, i): 1 for i in range(n)})


def from_dense(data: Sequence[Sequence[int]], p: int) -> SparseMatFp:
    rows = len(data)
    cols = len(data[0]) if rows else 0
    entries = {(i, j): v for i, row in enumerate(data) for j, v in enumerate(row)}
    return SparseMatFp(rows, cols, p, entries)


def to_dense(mat: SparseMatFp) -> list[list[int]]:
    out = [[0] * mat.cols for _ in range(mat.rows)]
    for (i, j), v in mat.entries.items():
        out[i][j] = v
    return out


def apply(mat: SparseMatFp, vec: Sequence[int]) -> tuple[int, ...]:
    assert len(vec) == mat.cols, (len(vec), mat.cols)
    out = [0] * mat.rows
    for (i, j), v in mat.entries.items():
        out[i] = (out[i] + v * vec[j]) % mat.p
    return tuple(out)
