"""Exact integer linear algebra over arbitrary-precision ints.

Row-style Hermite normal form with full transformation tracking: every
result row is an explicit integer combination of the input rows, which is
what lets certificates carry provenance for the generators they introduce.
A Hermite form is computed once per family of rows and then answers any
number of membership queries by back-substitution (`HnfResult.solve`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

Row = Tuple[int, ...]


@dataclass(frozen=True, slots=True)
class HnfResult:
    h: Tuple[Row, ...]        # echelon form, zero rows at the bottom
    u: Tuple[Row, ...]        # unimodular, u @ input == h
    pivots: Tuple[int, ...]   # pivot column of each nonzero row of h

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, target: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """Integer coefficients x with x @ rows == target, or None, where
        rows are the input this form was computed from.

        Back-substitutes over h, then maps through u.  When the rows are
        independent the solution is unique; otherwise this is the
        representative whose coordinates on the zero rows of h vanish.
        """
        if self.h and len(target) != len(self.h[0]):
            raise ValueError("dimension mismatch")
        residual = list(map(int, target))
        x = [0] * len(self.u)
        for hr, ur, c in zip(self.h, self.u, self.pivots):
            q, rem = divmod(residual[c], hr[c])
            if rem:
                return None
            if q:
                residual = [a - q * b for a, b in zip(residual, hr)]
                x = [a + q * b for a, b in zip(x, ur)]
        if any(residual):
            return None
        return tuple(x)


def _reduce(h: List[List[int]], u: List[List[int]]) -> List[int]:
    """Row-reduce h to its Hermite form in place, with u following every
    row operation, and return its pivot columns.

    Euclidean elimination column by column: the row with the least nonzero
    entry (first on ties) becomes the pivot, made positive, and reduces the
    rows below it; the entries above each pivot are then reduced into
    [0, pivot).
    """
    m = len(h)
    n = len(h[0]) if m else 0

    def addmul(dst: int, src: int, q: int) -> None:
        h[dst] = [a - q * b for a, b in zip(h[dst], h[src])]
        u[dst] = [a - q * b for a, b in zip(u[dst], u[src])]

    r = 0
    pivots: List[int] = []
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if h[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            piv = h[r][c]
            clean = True
            for i in range(r + 1, m):
                if h[i][c]:
                    addmul(i, r, h[i][c] // piv)
                    if h[i][c]:
                        clean = False
            if clean:
                break
        if h[r][c]:
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    addmul(i, r, q)
            pivots.append(c)
            r += 1
    return pivots


def hnf_rows(rows: Sequence[Sequence[int]]) -> HnfResult:
    """Hermite normal form by row operations.

    Pivots are positive, entries above each pivot lie in [0, pivot), and
    rows below a pivot are zero in its column.
    """
    h = [list(map(int, r)) for r in rows]
    if any(len(r) != len(h[0]) for r in h):
        raise ValueError("ragged matrix")
    m = len(h)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    pivots = _reduce(h, u)
    return HnfResult(
        h=tuple(tuple(row) for row in h),
        u=tuple(tuple(row) for row in u),
        pivots=tuple(pivots),
    )


def combine_rows(
    coeffs: Sequence[int], rows: Sequence[Sequence[int]], width: int
) -> Row:
    """The sum of c * row over zip(coeffs, rows): x @ rows for rows of the
    given width."""
    out = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            out = [a + c * b for a, b in zip(out, row)]
    return tuple(out)


def row_rank(rows: Sequence[Sequence[int]]) -> int:
    return hnf_rows(rows).rank


def solve_in_rowspace(
    rows: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[Tuple[int, ...]]:
    """Integer coefficients x with x @ rows == target, or None; see
    `HnfResult.solve`.  To solve many targets over the same rows, compute
    `hnf_rows(rows)` once and call its `solve`."""
    return hnf_rows(rows).solve(target)


def lattice_basis(
    rows: Sequence[Sequence[int]],
) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
    """Basis of the integer row span, plus provenance.

    Returns (basis, combos) where basis rows are the nonzero Hermite rows
    and combos[i] expresses basis[i] as a combination of the input rows.
    """
    res = hnf_rows(rows)
    k = res.rank
    return res.h[:k], res.u[:k]
