"""Finitely generated groups of ladder functions and exact decompositions.

A presentation names a finite family of generators inside one domain.  All
membership questions reduce to integer linear algebra over a finite, faithful
coordinate window: enough evaluation points to pin down every finite part,
plus one scaled axis per (ladder, weight) for behaviour at the limits.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ordlat.element import (
    Domain,
    Element,
    TailTerm,
    WeightFn,
    _tail_sum,
    is_semibasic,
    isolates,
)
from ordlat.intlinalg import GrownForm
from ordlat.ordinal import Ordinal, format_ordinal


class SearchExhaustedError(RuntimeError):
    """The bounded generator search ended without a witness."""


@dataclass(frozen=True)
class Presentation:
    name: str
    domain: Domain
    generators: Tuple[Tuple[str, Element], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "generators", tuple((n, g) for n, g in self.generators)
        )
        names = [n for n, _ in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        for n, g in self.generators:
            if g.domain != self.domain:
                raise ValueError(f"generator {n} lives on a different domain")

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.generators)

    @property
    def elements(self) -> Tuple[Element, ...]:
        return tuple(g for _, g in self.generators)

    def generator(self, name: str) -> Element:
        for n, g in self.generators:
            if n == name:
                return g
        raise KeyError(f"no generator {name!r}")

    @cached_property
    def span(self) -> "Span":
        """The generators factored once; a presentation never changes.
        Every caller shares this Span, so none may extend it."""
        return Span(self.domain, self.elements)


Column = Tuple[str, object]


class CoordinateSystem:
    """Faithful finite coordinates for integer combinations of a family.

    columns: ("point", x) for a prefix point x off the ladders, ("site",
    (ladder id, index)) for a ladder index and ("axis", (ladder id,
    weight)) for a residue coordinate, scaled by scales[(ladder id,
    weight)] to clear denominators.  The window holds every prefix point
    of the family and every ladder index below the ladder's largest tail
    start.  widen builds the columns the window rule asks of new
    elements, appended in first-need order, and grows each axis scale to
    clear their residues; for_elements sorts the columns of a family
    given at once: points in ordinal order, then axes by ladder and
    dominance.  covers tells whether a window already holds what elements
    need.

    coords reads an element's values at the window columns and its scaled
    residues.  It is linear, and one-to-one on the family's combinations:
    past the largest start on a ladder every combination follows its tail
    formula except at the window's own points, so the residues fix the
    values there.  It reads any other element the same way, skipping a
    residue on no axis, and decides nothing about membership.

    coords scatters: it starts from a zero row and writes only what the
    element holds.  A canonical element holds prefix values only below
    its tail start on each ladder, and no term has started there; from
    the start on, its value is the tail formula.  So at a site its value
    is the stored prefix value, or the formula from the start on, or 0,
    and at a point off the ladders it is the stored value or 0: a column
    that nothing writes reads 0.  _sites keeps each ladder's site
    columns in index order, so the formula goes to the sites at or past
    the start alone; the first coords after the columns change builds it.
    """

    __slots__ = ("columns", "scales", "_index", "_ends", "_sites")

    def __init__(self) -> None:
        self.columns: List[Column] = []
        self.scales: Dict[Tuple[str, WeightFn], int] = {}
        self._index: Dict[Column, int] = {}
        self._ends: Dict[str, int] = {}  # per ladder, the largest tail start
        self._sites: Optional[Dict[str, List[Tuple[int, int]]]] = None

    @classmethod
    def for_elements(
        cls, domain: Domain, elements: Sequence[Element]
    ) -> "CoordinateSystem":
        """The sorted columns of a family given at once: with every
        point before the scaled axes, a Hermite form of its rows pivots
        first where spikes are unit rows, which cut smooth_chain_check of
        limitq(120) from 0.53 s (columns in first-need order) to 0.19 s
        (Python 3.11, 2 cores)."""
        cs = cls()
        cs.widen(elements)

        def order(col: Column) -> tuple:
            kind, key = col
            if kind == "axis":
                return (1, key[0], key[1].dominance_key())
            x = domain.ladder(key[0]).point(key[1]) if kind == "site" else key
            return (0, x.key())

        cs.columns.sort(key=order)
        cs._index = {col: i for i, col in enumerate(cs.columns)}
        cs._sites = None
        return cs

    def widen(self, elements: Sequence[Element]) -> None:
        """Append at the right every column the elements need, and grow
        each axis scale to clear their residues."""
        index, ends = self._index, self._ends
        for f in elements:
            for col in self._needs(f):
                if col not in index:
                    index[col] = len(self.columns)
                    self.columns.append(col)
                    self._sites = None
            for t in f.tails:
                key = (t.ladder_id, t.weight)
                self.scales[key] = lcm(self.scales.get(key, 1), _residue_scale(t))
                ends[t.ladder_id] = max(ends.get(t.ladder_id, 0), t.start)

    def covers(self, elements: Sequence[Element]) -> bool:
        """Whether the window holds every column the elements need, by
        widen's rule, and every axis scale clears their residues.  An
        element the window covers costs its terms and its prefix."""
        index, scales = self._index, self.scales
        if not all(col in index for f in elements for col in self._needs(f)):
            return False
        return all(
            scales[(t.ladder_id, t.weight)] % _residue_scale(t) == 0
            for f in elements
            for t in f.tails
        )

    def _needs(self, f: Element) -> Iterator[Column]:
        """The columns f needs by the window rule, in first-need order,
        less the sites below the window's end on each ladder, which the
        window holds already: each tail's axis, the sites from the end up
        to f's tail start there, and f's prefix points and sites."""
        for lid, terms in f._terms.items():
            yield ("axis", (lid, terms[0].weight))
            # every ladder index below the largest start
            for k in range(self._ends.get(lid, 0), terms[0].start):
                yield ("site", (lid, k))
            for t in terms[1:]:
                yield ("axis", (lid, t.weight))
        for x, _ in f.off:
            yield ("point", x)
        for lid, kv in f.on:
            for k, _ in kv:
                yield ("site", (lid, k))

    def coords(self, f: Element) -> List[int]:
        """f at every column, by the scatter rule above."""
        index, sites = self._index, self._sites
        if sites is None:
            sites = self._sites = _ladder_sites(index)
        out = [0] * len(index)
        for x, v in f.off:
            i = index.get(("point", x))
            if i is not None:
                out[i] = v
        for lid, kv in f.on:
            for k, v in kv:
                i = index.get(("site", (lid, k)))
                if i is not None:
                    out[i] = v
        for lid, terms in f._terms.items():
            row = sites.get(lid)
            if row:
                for k, i in row[bisect_left(row, (terms[0].start,)) :]:
                    out[i] = _tail_sum(terms, k)
        for t in f.tails:
            key = (t.ladder_id, t.weight)
            i = index.get(("axis", key))
            if i is not None:
                q, rem = divmod(t.num * self.scales[key], t.den)
                if rem:
                    raise ValueError("residue outside the scaled lattice")
                out[i] = q
        return out


def _residue_scale(t: TailTerm) -> int:
    """The least axis scale that clears t's residue."""
    return t.den // gcd(t.num, t.den)


def _ladder_sites(index: Mapping[Column, int]) -> Dict[str, List[Tuple[int, int]]]:
    """Per ladder, the (ladder index, column) of its site columns in index
    order."""
    sites: Dict[str, List[Tuple[int, int]]] = {}
    for (kind, key), i in index.items():
        if kind == "site":
            sites.setdefault(key[0], []).append((key[1], i))
    for row in sites.values():
        row.sort()
    return sites


@dataclass(frozen=True)
class Decomposition:
    coeffs: Tuple[int, ...]
    unique: bool


class Span:
    """The subgroup generated by a family, factored for membership and
    grown by members instead of refactored.

    Holds the family, its coordinate system, its members' coordinate rows
    and one GrownForm of them, grown from no rows by the family's rows and
    then by each extend's; decompose answers each target by
    back-substitution, and the re-sum decides.  window None gives the
    family the sorted columns of CoordinateSystem.for_elements.  A family
    that grows names the elements it may take as its window: the columns
    they need, in first-need order, are fixed then, so extend appends rows
    only and refuses, with ValueError, a member that needs a column or an
    axis scale the window lacks.  A grown Span of a dependent family may
    pick other coefficients than one built at once.  unique: whether the
    family is independent, so that every member has exactly one
    coefficient vector.
    """

    __slots__ = ("domain", "gens", "cs", "rows", "form")

    def __init__(
        self,
        domain: Domain,
        gens: Sequence[Element] = (),
        window: Optional[Sequence[Element]] = None,
    ) -> None:
        self.domain = domain
        self.gens: Tuple[Element, ...] = tuple(gens)
        if window is None:
            self.cs = CoordinateSystem.for_elements(domain, self.gens)
        else:
            self.cs = CoordinateSystem()
            self.cs.widen(list(window) + list(self.gens))
        self.rows = [self.cs.coords(g) for g in self.gens]
        self.form = GrownForm(len(self.cs.columns))
        self.form.extend(self.rows)

    @property
    def rank(self) -> int:
        return self.form.rank

    @property
    def unique(self) -> bool:
        return self.form.rank == len(self.gens)

    def extend(self, gens: Sequence[Element]) -> None:
        gens = list(gens)
        rows = self._rows(gens)
        self.form.extend(rows)
        self.rows.extend(rows)
        self.gens += tuple(gens)

    def raises_rank(self, el: Element) -> bool:
        """Whether appending el would raise the rank; the span is left as
        it is."""
        return self.form.raises_rank(self._rows([el])[0])

    def decompose(self, target: Element) -> Optional[Decomposition]:
        """Integer coefficients writing target over the family, or None."""
        # coords is one-to-one on the family's combinations (see
        # CoordinateSystem), so a member's coordinates always solve and
        # re-sum to it.  The re-sum alone decides membership: anything else
        # has no coordinates, no solution, or re-sums to something else.
        try:
            sol = self.form.solve(self.cs.coords(target))
        except ValueError:
            return None
        if sol is None or self.domain.combine(sol, self.gens) != target:
            return None
        return Decomposition(coeffs=sol, unique=self.unique)

    def _rows(self, els: Sequence[Element]) -> List[List[int]]:
        """The coordinate rows of els as members: the window must hold
        them."""
        if not self.cs.covers(els):
            raise ValueError("a member needs a column outside the span's window")
        return [self.cs.coords(el) for el in els]


def member_decompose(
    gens: Sequence[Element], target: Element
) -> Optional[Decomposition]:
    """Integer coefficients writing target over gens, or None.  To test
    many targets against one family, build its Span once."""
    return Span(target.domain, gens).decompose(target)


def finite_prime_test(domain: Domain, x: Ordinal) -> bool:
    """Whether evaluation at x is integer-valued on the whole domain."""
    if not domain.space.contains(x):
        return False
    L = domain.target_ladder(x)
    if L is None:
        return True
    return all(w.kind == "constant" for w in L.weights)


def residue_index_at(f: Element, lid: str) -> Optional[int]:
    """Index from which values on the ladder follow the residue formula."""
    return f.tail_start(lid)


def semibasic_construct(pres: Presentation, x: Ordinal) -> Element:
    """Search the presentation for a semibasic element at x.

    Tries e(x) first; otherwise runs a bounded deterministic search for a
    nonnegative combination that isolates x and flattens it to height one
    with a meet.  The search tries combinations of 1 to 3 generators with
    nonzero coefficients in [-4, 4].
    """
    domain = pres.domain
    if domain.target_ladder(x) is not None:
        raise ValueError("no integer-valued evaluation at a ladder target")
    spike = domain.e(x)
    if pres.span.decompose(spike) is not None:
        return spike

    def search(want: Callable[[Element], bool]) -> Optional[Element]:
        gens = pres.elements
        for size in range(1, 4):
            for idx in itertools.combinations(range(len(gens)), size):
                for coeffs in itertools.product(range(-4, 5), repeat=size):
                    if any(c == 0 for c in coeffs):
                        continue
                    f = domain.combine(coeffs, [gens[i] for i in idx])
                    if want(f):
                        return f
        return None

    f = search(lambda g: isolates(g, x))
    if f is None:
        raise SearchExhaustedError(
            f"no isolating combination at {format_ordinal(x)} within bounds"
        )
    if f.value(x) == 1:
        return f
    g = search(lambda h: h.is_nonneg() and h.value(x) == 1)
    if g is None:
        raise SearchExhaustedError(
            f"no height-one combination at {format_ordinal(x)} within bounds"
        )
    q = f.meet(g)
    if not is_semibasic(q, x):
        raise SearchExhaustedError(
            f"bounded search failed to produce a semibasic element at "
            f"{format_ordinal(x)}"
        )
    return q


# supplied quarks by point; the spike stands in at every other point
QuarkSource = Optional[Mapping[Ordinal, Element]]


def span_qx_decompose(
    f: Element, quarks: QuarkSource = None
) -> Dict[Ordinal, int]:
    """Write a finite-support element over semibasic elements, one per
    support point, peeling ranks from the top down.

    Returns an ordered mapping point -> coefficient; iteration order is
    decreasing rank and, within a rank, increasing ordinal.  That order makes
    the quark-value matrix unitriangular, which is what the kernel basis
    certificate exploits.

    work is f less the supplied quarks taken so far.  A quark at x is 1 at
    x and 0 at every other point of rank >= rank(x), so one pass per rank
    reads each coefficient off work, and a point once taken keeps its
    value.  The spike e(x) changes no value but its own, so work never
    subtracts it: each pass takes the support points below the last
    pass's rank.  Only a supplied quark can cancel another's tail; a tail
    left at the end means f is no finite combination of the quarks.
    """
    return _peel_quarks(f, quarks or {}, set())


def _peel_quarks(
    f: Element, quarks: Mapping[Ordinal, Element], tested: Set[Ordinal]
) -> Dict[Ordinal, int]:
    """span_qx_decompose, testing a supplied quark for semibasicness only
    at a point not yet in tested, which then takes that point."""
    if f.tails:
        raise ValueError("decomposition over quarks needs a finite support")
    space = f.domain.space
    result: Dict[Ordinal, int] = {}
    work = f
    ranks: Optional[Dict[Ordinal, Ordinal]] = None  # of work's support
    tailed: Dict[str, Ordinal] = {}  # per ladder, the first quark with a tail on it
    floor: Optional[Ordinal] = None  # the rank of the last pass
    while True:
        if ranks is None:
            ranks = {x: space.cb_rank(x) for x in work.support().points}
        below = [r for r in ranks.values() if floor is None or r < floor]
        if not below:
            break
        floor = max(below)
        for x in sorted((x for x, r in ranks.items() if r == floor), key=Ordinal.key):
            c = work.value(x)
            q = quarks.get(x)
            if q is not None:
                if x not in tested and not is_semibasic(q, x):
                    raise ValueError(
                        f"supplied quark at {format_ordinal(x)} is not semibasic"
                    )
                tested.add(x)
                work = work - c * q
                ranks = None
                for t in q.tails:
                    tailed.setdefault(t.ladder_id, x)
            result[x] = c
    if work.tails:
        lid = work.tails[0].ladder_id
        raise ValueError(
            f"the quark at {format_ordinal(tailed[lid])} leaves a tail on "
            f"ladder {lid}: no finite combination of the quarks"
        )
    return result


@dataclass(frozen=True)
class KernelBasisCertificate:
    """Checkable evidence that the quarks at the listed points are an
    independent family spanning the given finite-support elements.

    points are ordered by decreasing rank then increasing ordinal, so the
    matrix of quark values over the points is unitriangular.
    """

    points: Tuple[Ordinal, ...]
    quarks: Tuple[Element, ...]
    gens: Tuple[Element, ...]
    rows: Tuple[Tuple[int, ...], ...]  # gens over quarks

    def verify(self) -> bool:
        for i, x in enumerate(self.points):
            q = self.quarks[i]
            if q.value(x) != 1:
                return False
            for j, y in enumerate(self.points):
                if j < i and q.value(y) != 0:
                    return False
        return all(
            g.domain.combine(row, self.quarks) == g
            for g, row in zip(self.gens, self.rows)
        )


def kernel_basis_certificate(
    gens: Sequence[Element], quarks: QuarkSource = None
) -> KernelBasisCertificate:
    if not gens:
        raise ValueError("need at least one element")
    quarks = quarks or {}
    domain = gens[0].domain
    space = domain.space
    tested: Set[Ordinal] = set()  # each supplied quark is tested once
    decomps = [_peel_quarks(g, quarks, tested) for g in gens]
    seen: Dict[Ordinal, Element] = {}
    for d in decomps:
        for x in d:
            if x not in seen:
                q = quarks.get(x)
                seen[x] = domain.e(x) if q is None else q
    # by decreasing rank, then increasing ordinal: sorts are stable
    ordered = sorted(seen, key=Ordinal.key)
    ordered.sort(key=lambda x: space.cb_rank(x).key(), reverse=True)
    rows = tuple(
        tuple(d.get(x, 0) for x in ordered) for d in decomps
    )
    return KernelBasisCertificate(
        points=tuple(ordered),
        quarks=tuple(seen[x] for x in ordered),
        gens=tuple(gens),
        rows=rows,
    )
