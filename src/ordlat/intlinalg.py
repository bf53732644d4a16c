"""Exact integer linear algebra over arbitrary-precision ints.

Row-style Hermite normal form with full transformation tracking: every
result row is an explicit integer combination of the input rows, which is
what lets certificates carry provenance for the generators they introduce.
One routine computes every Hermite form: a `GrownForm` takes its input
rows one at a time, and `hnf_rows` is the form grown from no rows by the
whole input.  A form is computed once per family of rows and then answers
any number of membership queries by back-substitution
(`GrownForm.solve`); a family that grows extends its form by the new rows
instead of recomputing it.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

Row = Tuple[int, ...]


class GrownForm:
    """A Hermite form grown by input rows instead of recomputed.

    h, u and pivots in lists: the first rank rows of h are its echelon
    rows, with positive pivots and the entries above each pivot in [0,
    pivot), and pivots[i] is the pivot column of h[i]; the other rows are
    zero; u is unimodular and u @ input == h.  The echelon rows are the
    Hermite form of the input lattice, which is unique.  u is not: when
    the input rows are dependent, it depends on the order they came in.

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
        for ur in self.u:
            ur.extend([0] * k)
        for i, r in enumerate(rows):
            ur = [0] * (m + k)
            ur[m + i] = 1
            self._merge(list(map(int, r)), ur)

    def raises_rank(self, row: Sequence[int]) -> bool:
        """Whether appending row would raise the rank; the form is left
        as it is."""
        if len(row) != self.width:
            raise ValueError("dimension mismatch")
        # echelon rows are zero at every earlier pivot
        return any(project(zip(self.pivots, self.h), [row])[0])

    def solve(self, target: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """Integer coefficients x with x @ rows == target, or None, where
        rows are the input rows given so far.

        Back-substitutes over h, then maps through u.  When the rows are
        independent the solution is unique; otherwise this is the
        representative whose coordinates on the zero rows of h vanish.
        """
        q = self.back_substitute(target)
        return None if q is None else combine_rows(q, self.u, len(self.u))

    def back_substitute(
        self, target: Sequence[int]
    ) -> Optional[Tuple[int, ...]]:
        """Integer coefficients q with q @ h[:rank] == target, or None:
        solve without the map through u, for when only whether a solution
        exists matters.  The nonzero rows of h are independent, so q is
        unique."""
        h = self.h
        if h and len(target) != self.width:
            raise ValueError("dimension mismatch")
        residual = list(map(int, target))
        q = []
        for hr, c in zip(h, self.pivots):
            qc, rem = divmod(residual[c], hr[c])
            if rem:
                return None
            if qc:
                residual = [a - qc * b for a, b in zip(residual, hr)]
            q.append(qc)
        if any(residual):
            return None
        return tuple(q)

    def _merge(self, hr: List[int], ur: List[int]) -> None:
        """Bring one (h row, u row) pair into the echelon rows, then
        restore the Hermite bounds above every pivot the merge made or
        changed.  A row that reduces to zero joins the zero rows."""
        h, u, pivots = self.h, self.u, self.pivots
        # the pivot rows the merge changed, in increasing order: a new row
        # goes in last, past all of them, so no insertion shifts them
        changed: List[int] = []
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
                changed.append(j)
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
            if ph is not h[j]:
                h[j], u[j] = ph, pu
                changed.append(j)
            c = next((i for i in range(c + 1, self.width) if hr[i]), None)
        else:
            h.append(hr)
            u.append(ur)
        if not changed:
            return
        # a new or changed pivot row may break the bounds of every row
        # above its pivot; a changed row, those at every later pivot.
        # Pivots before the first change have nothing to restore.
        dirty = set(changed)
        for j in range(changed[0], len(pivots)):
            c, hj, uj = pivots[j], h[j], u[j]
            p = hj[c]
            above = range(j) if j in changed else [i for i in dirty if i < j]
            for i in above:
                q = h[i][c] // p
                if q:
                    h[i] = [a - q * b for a, b in zip(h[i], hj)]
                    u[i] = [a - q * b for a, b in zip(u[i], uj)]
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


def hnf_rows(rows: Sequence[Sequence[int]]) -> GrownForm:
    """Hermite normal form by row operations: the GrownForm grown from no
    rows by extend(rows).  Its width is that of the rows, so the form of
    no rows has width 0 and takes no further rows.

    Pivots are positive, entries above each pivot lie in [0, pivot), and
    rows below a pivot are zero in its column.
    """
    form = GrownForm(len(rows[0]) if rows else 0)
    form.extend(rows)
    return form


def row_rank(rows: Sequence[Sequence[int]]) -> int:
    return hnf_rows(rows).rank


def solve_in_rowspace(
    rows: Sequence[Sequence[int]], target: Sequence[int]
) -> Optional[Tuple[int, ...]]:
    """Integer coefficients x with x @ rows == target, or None; see
    `GrownForm.solve`.  To solve many targets over the same rows, compute
    `hnf_rows(rows)` once and call its `solve`."""
    return hnf_rows(rows).solve(target)


def lattice_basis(
    rows: Sequence[Sequence[int]],
) -> Tuple[Tuple[Row, ...], Tuple[Row, ...]]:
    """Basis of the integer row span, plus provenance.

    Returns (basis, combos) where basis rows are the nonzero Hermite rows
    and combos[i] expresses basis[i] as a combination of the input rows.
    """
    form = hnf_rows(rows)
    k = form.rank
    return tuple(map(tuple, form.h[:k])), tuple(map(tuple, form.u[:k]))
