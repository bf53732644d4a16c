"""Exact integer linear algebra over arbitrary-precision ints.

Row-style Hermite normal form with full transformation tracking: every
result row is an explicit integer combination of the input rows, which is
what lets certificates carry provenance for the generators they introduce.
A Hermite form is computed once per family of rows and then answers any
number of membership queries by back-substitution (`HnfResult.solve`).
A family that grows keeps one `GrownForm`, extended by its new rows
instead of recomputed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

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
        return _solve(self.h, self.u, self.pivots, target)

    def back_substitute(
        self, target: Sequence[int]
    ) -> Optional[Tuple[int, ...]]:
        """Integer coefficients q with q @ h[:rank] == target, or None:
        solve without the map through u, for when only whether a solution
        exists matters."""
        return _back_substitute(self.h, self.pivots, target)


def _back_substitute(
    h: Sequence[Sequence[int]], pivots: Sequence[int], target: Sequence[int]
) -> Optional[Tuple[int, ...]]:
    if h and len(target) != len(h[0]):
        raise ValueError("dimension mismatch")
    residual = list(map(int, target))
    q = []
    for hr, c in zip(h, pivots):
        qc, rem = divmod(residual[c], hr[c])
        if rem:
            return None
        if qc:
            residual = [a - qc * b for a, b in zip(residual, hr)]
        q.append(qc)
    if any(residual):
        return None
    return tuple(q)


def _solve(
    h: Sequence[Sequence[int]],
    u: Sequence[Sequence[int]],
    pivots: Sequence[int],
    target: Sequence[int],
) -> Optional[Tuple[int, ...]]:
    q = _back_substitute(h, pivots, target)
    return None if q is None else combine_rows(q, u, len(u))


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


class GrownForm:
    """A Hermite form grown by input rows instead of recomputed.

    h, u and pivots as in HnfResult, held in lists: the first rank rows of
    h are its echelon rows, with positive pivots and the entries above each
    pivot in [0, pivot); the others are zero; u @ input == h.  The echelon
    rows are the Hermite form of the input lattice, which is unique, so
    they match hnf_rows of the whole input.  u does too when the form was
    built by one extend, which takes hnf_rows's result.  A grown u may
    differ when the input rows are dependent.

    extend appends input rows, one at a time.  Each is reduced against the
    stored pivot rows only, and the rows its reduction changed are brought
    back to Hermite form before the next row comes.  The width is fixed:
    a zero row of h stays zero.  This is the row-append scheme of
    Micciancio and Warinschi (ISSAC 2001).
    """

    __slots__ = ("h", "u", "pivots", "width")

    def __init__(self, width: int = 0) -> None:
        self.h: List[List[int]] = []
        self.u: List[List[int]] = []
        self.pivots: List[int] = []
        self.width = width

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def extend(self, rows: Sequence[Sequence[int]]) -> None:
        """Append input rows."""
        if any(len(r) != self.width for r in rows):
            raise ValueError("ragged matrix")
        m, k = len(self.u), len(rows)
        if not m:
            res = hnf_rows(rows)
            self.h = list(map(list, res.h))
            self.u = list(map(list, res.u))
            self.pivots = list(res.pivots)
            return
        for ur in self.u:
            ur.extend([0] * k)
        for i, r in enumerate(rows):
            self._merge(
                list(map(int, r)),
                [0] * m + [1 if i == j else 0 for j in range(k)],
            )

    def raises_rank(self, row: Sequence[int]) -> bool:
        """Whether appending row would raise the rank; the form is left
        as it is."""
        if len(row) != self.width:
            raise ValueError("dimension mismatch")
        # echelon rows are zero at every earlier pivot
        return any(project(zip(self.pivots, self.h), [row])[0])

    def solve(self, target: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """As HnfResult.solve, over the rows given so far."""
        if len(target) != self.width:
            raise ValueError("dimension mismatch")
        return _solve(self.h, self.u, self.pivots, target)

    def back_substitute(
        self, target: Sequence[int]
    ) -> Optional[Tuple[int, ...]]:
        """Integer coefficients q with q @ h[:rank] == target, or None.
        The nonzero rows of h are independent, so q is unique."""
        return _back_substitute(self.h, self.pivots, target)

    def _merge(self, hr: List[int], ur: List[int]) -> None:
        """Bring one (h row, u row) pair into the echelon rows, then
        restore the Hermite bounds above every pivot the merge made or
        changed.  A row that reduces to zero joins the zero rows."""
        h, u, pivots = self.h, self.u, self.pivots
        r = len(pivots)
        kept = h[:r]  # alive until the end, so their ids stay unique
        untouched = {id(row) for row in kept}
        c = next((j for j, a in enumerate(hr) if a), None)
        while c is not None:
            j = bisect_left(pivots, c)
            if j == len(pivots) or pivots[j] != c:
                if hr[c] < 0:
                    hr = [-a for a in hr]
                    ur = [-a for a in ur]
                h.insert(j, hr)
                u.insert(j, ur)
                pivots.insert(j, c)
                break
            # Euclid on column c between the pivot row and hr
            ph, pu = h[j], u[j]
            while hr[c]:
                q = hr[c] // ph[c]
                if q:
                    hr = [a - q * b for a, b in zip(hr, ph)]
                    ur = [a - q * b for a, b in zip(ur, pu)]
                if hr[c]:
                    ph, hr, pu, ur = hr, ph, ur, pu
            h[j], u[j] = ph, pu
            c = next((i for i in range(c + 1, self.width) if hr[i]), None)
        else:
            h.append(hr)
            u.append(ur)
        # a new or changed pivot row may break the bounds of every row
        # above its pivot; a changed row, those at every later pivot
        changed = {
            i for i, row in enumerate(h[: len(pivots)]) if id(row) not in untouched
        }
        dirty = set(changed)
        for j, c in enumerate(pivots):
            p = h[j][c]
            above = range(j) if j in changed else sorted(i for i in dirty if i < j)
            for i in above:
                q = h[i][c] // p
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], h[j])]
                    u[i] = [a - q * b for a, b in zip(u[i], u[j])]
                    dirty.add(i)


def project(
    prior: Iterable[Tuple[int, Sequence[int]]], rows: Sequence[Sequence[int]]
) -> List[List[int]]:
    """Images of rows under one linear map whose kernel is the rational
    span of prior, (pivot column, row) pairs, each row zero at every
    earlier pair's pivot.

    Fraction-free elimination by each pair in turn, r <- b[c]*r -
    r[c]*b, then division by the rows' joint gcd.  All rows share every
    scale, so images of one call may be compared with each other.
    """
    out = [list(r) for r in rows]
    for c, b in prior:
        if not any(r[c] for r in out):
            continue
        s = b[c]
        out = [[s * x - r[c] * y for x, y in zip(r, b)] for r in out]
        g = gcd(*(x for r in out for x in r))
        if g > 1:
            out = [[x // g for x in r] for r in out]
    return out


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
