"""Exact rational Gaussian elimination with deterministic pivoting."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["rref", "solve_columns", "nullspace"]


def rref(
    matrix: Sequence[Sequence[Fraction]], pivot_limit: int | None = None
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals.

    Pivots are chosen deterministically: columns left to right, first row with a
    nonzero entry. Columns at or beyond ``pivot_limit`` are never pivoted on.
    Returns the reduced rows and the pivot column indices.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    limit = ncols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    for col in range(limit):
        hit = next((i for i in range(r, nrows) if rows[i][col]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = rows[r][col]
        if inv != 1:
            rows[r] = [v / inv for v in rows[r]]
        lead = rows[r]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def solve_columns(
    columns: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> tuple[list[Fraction], bool]:
    """Solve sum_j x_j * columns[j] = target exactly.

    Returns ``(x, consistent)``. Free unknowns are set to zero; when the system
    is inconsistent, ``x`` still solves the pivot-row subsystem so the caller
    can report a concrete residual.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [[columns[j][i] for j in range(ncols)] + [target[i]] for i in range(nrows)]
    red, pivots = rref(aug, pivot_limit=ncols)
    x = [Fraction(0)] * ncols
    for row, col in zip(red, pivots):
        x[col] = row[ncols]
    consistent = not any(
        row[ncols] and not any(row[:ncols]) for row in red
    )
    return x, consistent


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column, ascending."""
    if not matrix:
        raise ValueError("nullspace of an empty matrix is ambiguous")
    red, pivots = rref(matrix)
    ncols = len(matrix[0])
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, col in zip(red, pivots):
            if row[free]:
                vec[col] = -row[free]
        basis.append(vec)
    return basis
