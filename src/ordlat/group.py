"""Finitely generated groups of ladder functions and exact decompositions.

A presentation names a finite family of generators inside one domain.  All
membership questions reduce to integer linear algebra over a finite, faithful
coordinate window: enough evaluation points to pin down every finite part,
plus one scaled axis per (ladder, weight) for behaviour at the limits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ordlat.element import Domain, Element, WeightFn, is_semibasic, isolates
from ordlat.intlinalg import row_rank, solve_in_rowspace
from ordlat.ordinal import Ordinal, compare, format_ordinal, successor, floor_rank
from ordlat.space import ClopenBlock


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


@dataclass(frozen=True)
class CoordinateSystem:
    """Faithful finite coordinates for integer combinations of a family.

    points: evaluation window (every prefix point of the family plus every
    ladder index below the largest canonical start); sites: each point's
    (ladder id, index), or None off the ladders.  axes: one residue
    coordinate per (ladder, weight) in use, scaled to clear denominators.
    coords refuses an element whose prefix steps outside the window.
    """

    domain: Domain
    points: Tuple[Ordinal, ...]
    sites: Tuple[Optional[Tuple[str, int]], ...]
    axes: Tuple[Tuple[str, WeightFn], ...]
    scales: Tuple[int, ...]

    @classmethod
    def for_elements(
        cls, domain: Domain, elements: Sequence[Element]
    ) -> "CoordinateSystem":
        axes: Dict[Tuple[str, WeightFn], int] = {}
        max_start: Dict[str, int] = {}
        on: Dict[str, set] = {}
        window: Dict[Ordinal, Optional[Tuple[str, int]]] = {}
        for f in elements:
            for t in f.tails:
                key = (t.ladder_id, t.weight)
                axes[key] = lcm(axes.get(key, 1), t.coeff.denominator)
                max_start[t.ladder_id] = max(
                    max_start.get(t.ladder_id, 0), t.start
                )
            window.update((x, None) for x, _ in f.off)
            for lid, kv in f.on:
                on.setdefault(lid, set()).update(k for k, _ in kv)
        for lid, s in max_start.items():
            on.setdefault(lid, set()).update(range(s))
        for lid, ks in on.items():
            L = domain.ladder(lid)
            window.update((L.point(k), (lid, k)) for k in ks)
        points = tuple(sorted(window, key=Ordinal.key))
        axis_keys = sorted(axes, key=lambda a: (a[0], a[1].dominance_key()))
        return cls(
            domain=domain,
            points=points,
            sites=tuple(window[x] for x in points),
            axes=tuple(axis_keys),
            scales=tuple(axes[a] for a in axis_keys),
        )

    @cached_property
    def _inside(self) -> frozenset:
        """The window's off-ladder points and (ladder id, index) sites."""
        return frozenset(
            x if site is None else site for x, site in zip(self.points, self.sites)
        )

    def coords(self, f: Element) -> Tuple[int, ...]:
        inside = self._inside
        outside = [x for x, _ in f.off if x not in inside] + [
            self.domain.ladder(lid).point(k)
            for lid, kv in f.on
            for k, _ in kv
            if (lid, k) not in inside
        ]
        if outside:
            raise ValueError(
                f"prefix point {format_ordinal(min(outside, key=Ordinal.key))} "
                "outside the window"
            )
        out = [
            f._offmap.get(x, 0) if site is None else f._at(*site)
            for x, site in zip(self.points, self.sites)
        ]
        residues = {
            (t.ladder_id, t.weight): t.coeff for t in f.tails
        }
        for (lid, w), scale in zip(self.axes, self.scales):
            r = residues.pop((lid, w), Fraction(0)) * scale
            if r.denominator != 1:
                raise ValueError("residue outside the scaled lattice")
            out.append(int(r))
        if residues:
            raise ValueError("element uses a (ladder, weight) outside the axes")
        return tuple(out)


@dataclass(frozen=True)
class Decomposition:
    coeffs: Tuple[int, ...]
    unique: bool


def member_decompose(
    gens: Sequence[Element], target: Element
) -> Optional[Decomposition]:
    """Integer coefficients writing target over gens, or None; exact, since
    the coordinate window is faithful."""
    if not gens:
        return Decomposition((), True) if target.is_zero else None
    domain = gens[0].domain
    cs = CoordinateSystem.for_elements(domain, list(gens) + [target])
    rows = [cs.coords(g) for g in gens]
    sol = solve_in_rowspace(rows, cs.coords(target))
    if sol is None:
        return None
    if domain.combine(sol, gens) != target:
        raise AssertionError("faithful window produced a bogus solution")
    return Decomposition(coeffs=sol, unique=row_rank(rows) == len(gens))


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


def semibasic_construct(
    pres: Presentation,
    x: Ordinal,
    coeff_bound: int = 4,
    max_terms: int = 3,
) -> Element:
    """Search the presentation for a semibasic element at x.

    Tries e(x) first; otherwise runs a bounded deterministic search for a
    nonnegative combination that isolates x and flattens it to height one
    with a meet.
    """
    domain = pres.domain
    if domain.target_ladder(x) is not None:
        raise ValueError("no integer-valued evaluation at a ladder target")
    spike = domain.e(x)
    if member_decompose(pres.elements, spike) is not None:
        return spike

    def search(want: Callable[[Element], bool]) -> Optional[Element]:
        gens = pres.elements
        for size in range(1, max_terms + 1):
            for idx in itertools.combinations(range(len(gens)), size):
                for coeffs in itertools.product(
                    range(-coeff_bound, coeff_bound + 1), repeat=size
                ):
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


QuarkSource = Union[Mapping[Ordinal, Element], Callable[[Ordinal], Element], None]


def _quark_at(domain: Domain, quarks: QuarkSource, x: Ordinal) -> Element:
    if quarks is None:
        return domain.e(x)
    if callable(quarks):
        return quarks(x)
    return quarks.get(x, domain.e(x))


def span_qx_decompose(
    f: Element, quarks: QuarkSource = None
) -> Dict[Ordinal, int]:
    """Write a finite-support element over semibasic elements, one per
    support point, peeling ranks from the top down.

    Returns an ordered mapping point -> coefficient; iteration order is
    decreasing rank and, within a rank, increasing ordinal.  That order makes
    the quark-value matrix unitriangular, which is what the kernel basis
    certificate exploits.
    """
    if f.tails:
        raise ValueError("decomposition over quarks needs a finite support")
    domain = f.domain
    space = domain.space
    result: Dict[Ordinal, int] = {}
    work = f
    while not work.is_zero:
        gamma = work.cb()
        pts = [
            p
            for p in work.support().points
            if space.cb_rank(p) == gamma
        ]
        clusters: Dict[Ordinal, List[Ordinal]] = {}
        for p in pts:
            clusters.setdefault(floor_rank(p, successor(gamma)), []).append(p)
        for base in sorted(clusters, key=Ordinal.key):
            members = clusters[base]
            hi = max(members, key=Ordinal.key)
            block = ClopenBlock(
                low=None if base.is_zero else base, high=hi
            )
            for x in space.rank_slice(block, gamma):
                c = work.value(x)
                if c == 0:
                    continue
                q = _quark_at(domain, quarks, x)
                if not is_semibasic(q, x):
                    raise ValueError(
                        f"supplied quark at {format_ordinal(x)} is not semibasic"
                    )
                work = work - c * q
                result[x] = c
        if not work.is_zero and compare(work.cb(), gamma) >= 0:
            raise AssertionError("rank failed to descend")
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
    domain = gens[0].domain
    space = domain.space
    decomps = [span_qx_decompose(g, quarks) for g in gens]
    seen: Dict[Ordinal, Element] = {}
    for d in decomps:
        for x in d:
            if x not in seen:
                seen[x] = _quark_at(domain, quarks, x)
    ranks = sorted({space.cb_rank(x) for x in seen}, key=Ordinal.key)
    ordered: List[Ordinal] = []
    for r in reversed(ranks):
        ordered.extend(
            sorted(
                (x for x in seen if space.cb_rank(x) == r), key=Ordinal.key
            )
        )
    rows = tuple(
        tuple(d.get(x, 0) for x in ordered) for d in decomps
    )
    return KernelBasisCertificate(
        points=tuple(ordered),
        quarks=tuple(seen[x] for x in ordered),
        gens=tuple(gens),
        rows=rows,
    )
