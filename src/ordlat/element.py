"""Finitely presented integer functions on a scattered space.

An element is a function from the space to the integers, stored as a finite
prefix (explicit values at finitely many points) plus tail terms.  A tail
term contributes coeff * weight(k) at every ladder point of index k >= start,
so a single term describes an infinite staircase of values climbing toward
the ladder's limit target.

Canonical form pushes tails as far down as integrality and the actual
values allow (maximal tails), stores every remaining value explicitly
(minimal prefix), and keeps one term per (ladder, weight) with a common
start per ladder.  Two equal functions always canonicalize to structurally
identical objects, so dataclass equality is function equality.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ordlat.ordinal import (
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
    _parse_expr,
    _Scanner,
    add,
    format_ordinal,
    from_int,
    last_exponent,
    omega_power,
    successor,
)
from ordlat.space import ScatteredSpace


# --- weights ---------------------------------------------------------------

_TIERS = {"constant": 0, "geometric": 1, "factorial": 2, "factgeom": 3}


@dataclass(frozen=True, slots=True)
class WeightFn:
    """Growth profile of a tail along its ladder.

    table holds w(0..n-1) for every element whose tails use this weight
    (Domain.tail takes its weights from the ladder).  It grows by one step
    when the index just past its end is asked for, so it reaches an index
    only once every smaller one was evaluated: as far as the values some
    element holds, in a prefix, a settle range or a meet.  A lone large
    index, such as a hostile tail start, is computed directly and never
    stored.
    """

    kind: str
    param: int = 0
    table: List[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in _TIERS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "constant" and self.param < 1:
            raise ValueError("constant weight needs param >= 1")
        if self.kind in ("geometric", "factgeom") and self.param < 2:
            raise ValueError(f"{self.kind} weight needs param >= 2")
        if self.kind == "factorial" and self.param != 0:
            raise ValueError("factorial weight takes no param")
        object.__setattr__(self, "table", [self._direct(0)])

    def _direct(self, k: int) -> int:
        if self.kind == "constant":
            return self.param
        if self.kind == "geometric":
            return self.param**k
        if self.kind == "factorial":
            return math.factorial(k)
        return math.factorial(k) * self.param**k

    def value(self, k: int) -> int:
        table = self.table
        if k < len(table):
            return table[k]
        if k == len(table):
            table.append(table[-1] * self.step(k - 1))
            return table[k]
        return self._direct(k)

    def mod(self, k: int, d: int) -> int:
        """w(k) mod d, in O(min(k, d)) small steps when w(k) is not in the
        table: d divides k! once d <= k."""
        table = self.table
        if k < len(table):
            return table[k] % d
        if self.kind == "constant":
            return self.param % d
        if self.kind == "geometric":
            return pow(self.param, k, d)
        if d <= k:
            return 0
        m = 1 if self.kind == "factorial" else pow(self.param, k, d)
        for i in range(2, k + 1):
            m = m * i % d
        return m % d

    def step(self, k: int) -> int:
        """w(k+1) / w(k); an integer for every supported kind."""
        if self.kind == "constant":
            return 1
        if self.kind == "geometric":
            return self.param
        if self.kind == "factorial":
            return k + 1
        return (k + 1) * self.param

    def dominance_key(self) -> Tuple[int, int]:
        """Sort key that orders weights by eventual growth."""
        return (_TIERS[self.kind], self.param)

    def label(self) -> str:
        if self.kind in ("constant", "geometric", "factgeom"):
            return f"{self.kind}({self.param})"
        return "factorial"

    def __str__(self) -> str:
        return self.label()


def parse_weight(text: str) -> WeightFn:
    text = text.strip()
    if text == "factorial":
        return WeightFn("factorial")
    m = re.fullmatch(r"(constant|geometric|factgeom)\((\d+)\)", text)
    if not m:
        raise ValueError(f"bad weight spec {text!r}")
    return WeightFn(m.group(1), int(m.group(2)))


def dominance_monotone_from(hi: WeightFn, lo: WeightFn) -> int:
    """Least K from which hi(k)/lo(k) is nondecreasing.

    Only valid when hi strictly dominates lo; the ratio of consecutive
    steps settles once hi's per-step factor catches up.
    """
    if hi.dominance_key() <= lo.dominance_key():
        raise ValueError("first weight must dominate the second")
    k = 0
    while hi.step(k) < lo.step(k):
        k += 1
    return k


# --- ladders ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Ladder:
    """Strictly increasing point sequence converging to a limit target.

    kind "arith": point(k) = first + step * k with step a single-term
    ordinal (a positive integer or w^e * c).  kind "power":
    point(k) = w^(offset + k), converging to w^w.

    table holds point(0..n-1) and index its inverse.  As WeightFn.table,
    it grows by one point when the index just past its end is asked for,
    and a lone far index is computed and not stored.  The points of a
    ladder increase, so every ladder point up to the last tabled one is
    in the table.
    """

    id: str
    kind: str
    target: Ordinal
    weights: Tuple[WeightFn, ...]
    first: Ordinal = ZERO
    step: Ordinal = ONE
    offset: int = 0
    table: List[Ordinal] = field(init=False, repr=False, compare=False)
    index: Dict[Ordinal, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.id or not self.id.isidentifier():
            raise ValueError(f"ladder id must be an identifier: {self.id!r}")
        if not self.weights:
            raise ValueError("ladder needs at least one weight")
        keys = [w.dominance_key() for w in self.weights]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate weight on one ladder")
        if sum(1 for w in self.weights if w.kind == "constant") > 1:
            raise ValueError("at most one constant weight per ladder")
        if self.kind == "arith":
            if len(self.step.terms) != 1:
                raise ValueError("arith step must be a single-term ordinal")
            expected = add(self.first, omega_power(successor(last_exponent(self.step))))
            if self.target != expected:
                raise ValueError(
                    f"arith ladder to {format_ordinal(self.target)} should "
                    f"converge to {format_ordinal(expected)}"
                )
        elif self.kind == "power":
            if self.offset < 0:
                raise ValueError("power offset must be >= 0")
            if self.target != omega_power(OMEGA):
                raise ValueError("power ladder converges to w^w")
        else:
            raise ValueError(f"unknown ladder kind {self.kind!r}")
        p = self._direct(0)
        object.__setattr__(self, "table", [p])
        object.__setattr__(self, "index", {p: 0})

    def _direct(self, k: int) -> Ordinal:
        if self.kind == "power":
            return omega_power(from_int(self.offset + k))
        exp, coeff = self.step.terms[0]
        return add(self.first, omega_power(exp, coeff * k) if k else ZERO)

    def point(self, k: int) -> Ordinal:
        table = self.table
        if 0 <= k < len(table):
            return table[k]
        if k < 0:
            raise ValueError("ladder index must be >= 0")
        x = self._direct(k)
        if k == len(table):
            table.append(x)
            self.index[x] = k
        return x

    def index_of(self, x: Ordinal) -> Optional[int]:
        """Inverse of point(), or None when x is not on the ladder."""
        k = self.index.get(x)
        if k is not None or x <= self.table[-1]:
            return k
        if self.kind == "power":
            if len(x.terms) != 1 or x.terms[0][1] != 1:
                return None
            exp = x.terms[0][0]
            if not exp.is_nat():
                return None
            k = exp.as_nat() - self.offset
            return k if k >= 0 else None
        if x < self.first or x >= self.target:
            return None
        if x == self.first:
            return 0
        diff = _left_difference(self.first, x)
        exp, coeff = self.step.terms[0]
        if len(diff.terms) != 1 or diff.terms[0][0] != exp:
            return None
        q, r = divmod(diff.terms[0][1], coeff)
        return q if r == 0 and q >= 0 else None

    def weight(self, label: Optional[str] = None) -> WeightFn:
        if label is None:
            if len(self.weights) != 1:
                raise ValueError(f"ladder {self.id} has several weights; name one")
            return self.weights[0]
        for w in self.weights:
            if w.label() == label:
                return w
        raise ValueError(f"ladder {self.id} has no weight {label!r}")


def _left_difference(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique d with a + d == b; requires a <= b."""
    if a > b:
        raise ValueError("left difference needs a <= b")
    for i, (ta, tb) in enumerate(zip(a.terms, b.terms)):
        if ta == tb:
            continue
        (ea, ca), (eb, cb) = ta, tb
        if ea == eb and ca < cb:
            return Ordinal(((ea, cb - ca),) + b.terms[i + 1 :])
        return Ordinal(b.terms[i:])
    return Ordinal(b.terms[len(a.terms) :])


# --- domains ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Domain:
    """A scattered space together with the ladders tails may live on."""

    space: ScatteredSpace
    ladders: Tuple[Ladder, ...] = ()
    # the ladder ids in sorted order: the order of an element's ladders
    ids: Tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = [L.id for L in self.ladders]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ladder ids")
        object.__setattr__(self, "ids", tuple(sorted(ids)))
        for L in self.ladders:
            if not self.space.contains(L.target):
                raise ValueError(f"ladder {L.id} targets a point outside the space")
        targets = [L.target for L in self.ladders]
        if len(set(targets)) != len(targets):
            raise ValueError("two ladders share a target")
        for L in self.ladders:
            for M in self.ladders:
                if L.id == M.id:
                    continue
                if M.index_of(L.target) is not None:
                    raise ValueError(
                        f"target of ladder {L.id} lies on ladder {M.id}"
                    )
                # Past these checks a shared point is index 0 of one ladder.
                # arith/arith: first + w^e*c*k with k >= 1 has lowest
                # exponent e and, above it, the terms of first, which fix
                # the target first + w^(e+1); so equal points past index 0
                # mean equal targets.  power/arith: w^n = first + w^e*c*k
                # with k >= 1 forces e = n and first < w^n, which puts the
                # arith target w^(n+1) on the power ladder.  power/power:
                # both target w^w.
                p = L.point(0)
                if M.index_of(p) is not None:
                    raise ValueError(
                        f"ladders {L.id} and {M.id} share point "
                        f"{format_ordinal(p)}"
                    )

    def ladder(self, lid: str) -> Ladder:
        for L in self.ladders:
            if L.id == lid:
                return L
        raise KeyError(f"no ladder {lid!r}")

    def locate(self, x: Ordinal) -> Optional[Tuple[Ladder, int]]:
        for L in self.ladders:
            k = L.index_of(x)
            if k is not None:
                return (L, k)
        return None

    def target_ladder(self, x: Ordinal) -> Optional[Ladder]:
        for L in self.ladders:
            if L.target == x:
                return L
        return None

    def zero(self) -> "Element":
        return Element(domain=self, off=(), on=(), tails=())

    def _place(self, x: Ordinal) -> Optional[Tuple[Ladder, int]]:
        """The ladder and index of a point where an element may hold a
        value, or None off the ladders: x must lie in the space and off
        every ladder target."""
        if not self.space.contains(x):
            raise ValueError(f"point {format_ordinal(x)} outside the space")
        if self.target_ladder(x) is not None:
            raise ValueError(
                f"{format_ordinal(x)} is a ladder target; values there are "
                "set by tails"
            )
        return self.locate(x)

    def e(self, x: Ordinal) -> "Element":
        """Unit spike at a single point, canonical as built: one prefix
        value and no tails, as literal(((x, 1),), ()) would give."""
        loc = self._place(x)
        if loc is None:
            return Element(domain=self, off=((x, 1),), on=(), tails=())
        L, k = loc
        return Element(domain=self, off=(), on=((L.id, ((k, 1),)),), tails=())

    def tail(
        self,
        lid: str,
        coeff,
        start: int,
        weight: Optional[str] = None,
    ) -> "Element":
        return self.literal((), ((1, lid, coeff, start, weight),))

    def literal(
        self,
        points: Iterable[Tuple[Ordinal, int]],
        tails: Iterable[Tuple[int, str, object, int, Optional[str]]],
    ) -> "Element":
        """The sum of v * e(x) over the (x, v) points and of
        m * tail(lid, coeff, start, weight) over the (m, lid, coeff, start,
        weight) tails, canonicalized once: the one entry for an element
        written out from outside.

        Every point and every tail is checked as written, whatever its
        value or multiplier: a point must lie in the space and off every
        ladder target, and a tail's coefficient (a Fraction or its text)
        must be nonzero and integral under its weight from its start on.
        """
        off: Dict[Ordinal, int] = {}
        on: Dict[str, Dict[int, int]] = {}
        for x, v in points:
            loc = self._place(x)
            if loc is None:
                off[x] = off.get(x, 0) + v
            else:
                vals = on.setdefault(loc[0].id, {})
                vals[loc[1]] = vals.get(loc[1], 0) + v
        # numerators by (ladder, weight, start, denominator), as in combine
        sums: Dict[Tuple[str, WeightFn, int, int], int] = {}
        for m, lid, coeff, start, weight in tails:
            if lid not in self.ids:
                raise ValueError(f"no ladder {lid!r}")
            w = self.ladder(lid).weight(weight)
            try:
                r = Fraction(coeff)  # den >= 1 from here on
            except ZeroDivisionError:
                raise ValueError(
                    f"tail coefficient {coeff!r} has a zero denominator"
                ) from None
            if start < 0:
                raise ValueError("tail start must be >= 0")
            if not r:
                raise ValueError("tail coefficient must be nonzero")
            # integral from start on, since w(k) / w(start) is an integer
            d = r.denominator
            if d > 1 and r.numerator * w.mod(start, d) % d:
                raise ValueError(
                    f"coefficient {r} is not integral from index {start} "
                    f"under {w.label()}"
                )
            key = (lid, w, start, d)
            sums[key] = sums.get(key, 0) + m * r.numerator
        # what cancels goes; _canonical merges the rest over one denominator
        terms = [TailTerm(lid, w, n, d, s) for (lid, w, s, d), n in sums.items() if n]
        return _canonical(self, off, terms, on)

    def combine(
        self, coeffs: Sequence[int], elements: Sequence["Element"]
    ) -> "Element":
        """The sum of c * g over the (c, g) pairs of coeffs and elements.

        + and * are combinations too.  Raises TypeError on a coefficient
        that is not an int, ValueError on an element of another domain or
        on coeffs and elements of different lengths.  A sum with one
        nonzero c * g is that element scaled (Element._scaled); a sum of
        two is built from the two multiples (`_add`); any other is
        canonicalized once.  Three or more terms are not folded two at a
        time: a partial sum may hold a far prefix that a later term cancels.
        """
        live: List[Tuple[int, "Element"]] = []
        for c, g in zip(coeffs, elements, strict=True):
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r:.40} is not an int")
            if g.domain is not self and g.domain != self:
                raise ValueError("elements live on different domains")
            if c and not g.is_zero:
                live.append((c, g))
        if not live:
            return self.zero()
        if len(live) == 1:
            c, g = live[0]
            return g._scaled(c)
        if len(live) == 2:
            (c, f), (d, g) = live
            return _add(f._scaled(c), g._scaled(d))
        return _sum(self, live)


# --- elements ---------------------------------------------------------------


class TailTerm(NamedTuple):
    """The term (num / den) * weight(k) at every ladder index k >= start.

    Plain data: Domain.literal checks the terms written from outside, and
    arithmetic on canonical elements builds only valid ones.  The terms of
    a canonical element on one ladder share one denominator, the least
    that clears all of their coefficients.  A named tuple: builders make
    new terms all the time, and a frozen dataclass sets field by field.
    """

    ladder_id: str
    weight: WeightFn
    num: int
    den: int
    start: int

    @property
    def coeff(self) -> Fraction:
        return Fraction(self.num, self.den)


@dataclass(frozen=True, slots=True)
class SupportInfo:
    """Canonical encoding of where an element is nonzero.

    points: nonzero points outside the eventual ladder regions.
    regimes: (ladder id, least index from which the element stays nonzero),
    one entry per ladder carrying a tail.
    """

    points: frozenset
    regimes: Tuple[Tuple[str, int], ...]


def _tail_sum(terms: Sequence[TailTerm], k: int) -> int:
    """Sum of coeff * weight(k) over the terms already started at index k;
    the terms share one denominator."""
    total = 0
    for t in terms:
        if k >= t.start:
            total += t.num * t.weight.value(k)
    if not total:
        return 0
    q, r = divmod(total, terms[0].den)
    if r:
        raise AssertionError("non-integer ladder value")
    return q


def _settle(terms: Sequence[Tuple[WeightFn, int]], n: int) -> int:
    """Least index at or past n from which sum(c * w(k)) over the (w, c)
    terms, in ascending dominance, keeps the sign of the last term.

    Past every dominance_monotone_from(dom, w) the ratio of the dominant
    weight to each other one does not fall, so once the dominant term
    outweighs the others there it does so for good: the search runs from
    that small index, and a far n never has its weights evaluated.
    """
    if len(terms) < 2:
        return n
    *rest, (dom, c) = terms
    k = max(dominance_monotone_from(dom, w) for w, _ in rest)
    c = abs(c)
    while c * dom.value(k) <= sum(abs(r) * w.value(k) for w, r in rest):
        k += 1
    return max(n, k)


class _lazy:
    """functools.cached_property without its lock, which Python 3.10 and
    3.11 take on every first read: the first read stores the value in the
    instance __dict__, where every later read finds it before this
    descriptor.  Two threads reading at once may both compute it; they
    store equal values."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class Element:
    """A canonical element, its prefix stored by where each point lies.

    off: the nonzero prefix values at points on no ladder, in ordinal
    order.  on: per ladder with prefix values, in ladder-id order, its
    nonzero (index, value) pairs in index order.  tails: by ladder id, then
    by ascending weight dominance, one term per weight and one common start
    per ladder.  The ordinal-keyed prefix is derived from off and on.

    Each ladder's tail terms (`_terms`) are its one record of the ladder's
    limit: start, residue, dominant weight and eventual sign are read off
    them.  `_at` reads one index from the prefix and the tail formula; the
    ladder-wide queries (settle index, mu, support, sign and meet) read it
    at the stored prefix indices and from the start to the settle index.
    """

    domain: Domain
    off: Tuple[Tuple[Ordinal, int], ...]
    on: Tuple[Tuple[str, Tuple[Tuple[int, int], ...]], ...]
    tails: Tuple[TailTerm, ...]

    # -- construction & basic queries --

    @property
    def is_zero(self) -> bool:
        return not self.off and not self.on and not self.tails

    @_lazy
    def prefix(self) -> Tuple[Tuple[Ordinal, int], ...]:
        """Every prefix value keyed by its point, in ordinal order."""
        if not self.on:
            return self.off
        items = list(self.off)
        for lid, kv in self.on:
            L = self.domain.ladder(lid)
            items.extend((L.point(k), v) for k, v in kv)
        return tuple(sorted(items, key=lambda item: item[0].key()))

    @_lazy
    def _offmap(self) -> Dict[Ordinal, int]:
        return dict(self.off)

    @_lazy
    def _onmap(self) -> Dict[str, Dict[int, int]]:
        return {lid: dict(kv) for lid, kv in self.on}

    @_lazy
    def _terms(self) -> Dict[str, Tuple[TailTerm, ...]]:
        """Per ladder with tails, its terms as they sit in tails: the
        element's behaviour at the ladder's target."""
        return _by_ladder(self.tails)

    @_lazy
    def _settles(self) -> Dict[str, int]:
        """settle_index of each ladder with tails or prefix values."""
        out = {lid: kv[-1][0] + 1 for lid, kv in self.on}
        for lid, terms in self._terms.items():
            out[lid] = _settle([(t.weight, t.num) for t in terms], terms[0].start)
        return out

    def tails_on(self, lid: str) -> Tuple[TailTerm, ...]:
        return self._terms.get(lid, ())

    def value(self, x: Ordinal):
        """Integer value at a point.

        At a ladder target the function has no integer value unless every
        active weight there is constant (then the limit value is returned).
        """
        tl = self.domain.target_ladder(x)
        if tl is not None:
            total = 0
            for t in self.tails_on(tl.id):
                if t.weight.kind != "constant":
                    raise ValueError(
                        f"no integer value at target {format_ordinal(x)}; "
                        "inspect residue_at instead"
                    )
                total += t.num * t.weight.param // t.den
            return total
        loc = self.domain.locate(x)
        if loc is not None:
            return self._at(loc[0].id, loc[1])
        if not self.domain.space.contains(x):
            raise ValueError(f"point {format_ordinal(x)} outside the space")
        return self._offmap.get(x, 0)

    # -- ladder analysis --

    def _at(self, lid: str, k: int) -> int:
        """Value at index k of ladder lid: a canonical prefix holds values
        only below the tail start, where no term has started."""
        prefix = self._onmap.get(lid, {}).get(k, 0)
        return prefix + _tail_sum(self._terms.get(lid, ()), k)

    def settle_index(self, lid: str) -> int:
        """Index from which values on the ladder follow a fixed pattern:
        the tail formula with a constant sign, or identically zero.

        On a ladder with tails that is where, from the start on, the
        formula keeps its dominant (last) term's sign (`_settle`).  Without
        tails it is one past the last prefix index.  Each ladder's is
        computed once per element (`_settles`).
        """
        n = self._settles.get(lid)
        if n is None:
            self.domain.ladder(lid)  # raises KeyError for an unknown id
            return 0
        return n

    def residue_at(self, lid: str) -> Dict[WeightFn, Fraction]:
        """Tail coefficient per weight on one ladder (the behaviour at the
        ladder's target)."""
        L = self.domain.ladder(lid)
        got = {t.weight: t.coeff for t in self.tails_on(lid)}
        return {w: got.get(w, Fraction(0)) for w in L.weights}

    def tail_start(self, lid: str) -> Optional[int]:
        terms = self._terms.get(lid)
        return terms[0].start if terms else None

    def mu(self, lid: str) -> Optional[int]:
        """Least ladder index with a nonzero value."""
        n = self.settle_index(lid)
        prefix = self._onmap.get(lid)
        if prefix:  # nonzero values, all below the start
            return min(prefix)
        terms = self._terms.get(lid)
        if not terms:
            return None
        # the value at the settle index of a ladder with tails is nonzero
        return next((k for k in range(terms[0].start, n) if self._at(lid, k)), n)

    # -- support & rank --

    @_lazy
    def _support(self) -> SupportInfo:
        pts = {x for x, _ in self.off}
        regimes = []
        for L in self.domain.ladders:
            lid = L.id
            start = rho = self.settle_index(lid)
            if lid in self._terms:  # nonzero forever from index rho on
                start = self.tail_start(lid)
                while rho > 0 and self._at(lid, rho - 1):
                    rho -= 1
                regimes.append((lid, rho))
            pts.update(
                L.point(k)
                for k in [*self._onmap.get(lid, ()), *range(start, rho)]
                if k < rho and self._at(lid, k)
            )
        return SupportInfo(
            points=frozenset(pts), regimes=tuple(sorted(regimes))
        )

    def support(self) -> SupportInfo:
        return self._support

    def same_support(self, other: "Element") -> bool:
        return self._support == other._support

    def cb(self) -> Ordinal:
        """Rank of the closure of the support: the largest Cantor-Bendixson
        rank met by a support point or by an active ladder's limit."""
        if self.is_zero:
            raise ValueError("the zero element has empty support")
        space = self.domain.space
        ranks = [space.cb_rank(x) for x in self._support.points]
        for lid, rho in self._support.regimes:
            L = self.domain.ladder(lid)
            ranks += [
                space.cb_rank(L.target),
                space.cb_rank(L.point(rho)),
                space.cb_rank(L.point(rho + 1)),
            ]
        return max(ranks)

    # -- order & lattice --

    def is_nonneg(self) -> bool:
        # the eventual sign on a ladder is its dominant (last) term's sign
        if any(terms[-1].num < 0 for terms in self._terms.values()):
            return False
        return (
            all(v >= 0 for _, v in self.off)
            and all(v >= 0 for _, kv in self.on for _, v in kv)
            and all(
                self._at(lid, k) >= 0
                for lid, terms in self._terms.items()
                for k in range(terms[0].start, self.settle_index(lid))
            )
        )

    def meet(self, other: "Element") -> "Element":
        """Pointwise minimum, built in canonical form (`_pick`).

        Direct-build lemma, per ladder.  Past both settle indices each side
        is its tail formula, so the difference is the formula of the
        residue difference: the most dominant weight on which the residues
        differ picks the side that is eventually smaller (for a join,
        larger), and `_settle` from there gives the index n past which that
        choice holds pointwise.  From n on the result is the survivor's
        formula, which is canonical as it stands: same residue,
        denominator and order.  So the survivor's formula started at n and
        the picked values below n go to the shared finish
        (`_finish_ladder`), whose walk down from n finds the result's
        start.  Below the smaller start neither side has a tail, so only
        the prefix indices of the two sides can be nonzero there.
        """
        return self._pick(other, True)

    def join(self, other: "Element") -> "Element":
        """Pointwise maximum, built in canonical form as meet is."""
        return self._pick(other, False)

    def plus_part(self) -> "Element":
        return self.join(self.domain.zero())

    def minus_part(self) -> "Element":
        return self.meet(self.domain.zero())

    def _pick(self, other: "Element", low: bool) -> "Element":
        """The pointwise minimum (low) or maximum of self and other in
        canonical form, by the direct-build lemma in `meet`."""
        self._same_domain(other)
        pick = min if low else max
        on: List[Tuple[str, Tuple[Tuple[int, int], ...]]] = []
        tails: List[TailTerm] = []
        terms: Dict[str, Tuple[TailTerm, ...]] = {}
        fterms, gterms = self._terms, other._terms
        fmap, gmap = self._onmap, other._onmap
        fsettle, gsettle = self._settles, other._settles
        for lid in self.domain.ids:
            fs, gs = fterms.get(lid, ()), gterms.get(lid, ())
            fp, gp = fmap.get(lid, _NO_VALUES), gmap.get(lid, _NO_VALUES)
            if not (fs or gs or fp or gp):
                continue
            lo = n = max(fsettle.get(lid, 0), gsettle.get(lid, 0))
            d, formula = 1, []  # the survivor's formula, over d
            if fs or gs:
                df = fs[0].den if fs else 1
                dg = gs[0].den if gs else 1
                diff = _merge(fs, gs, dg, -df)  # self's residue less other's
                above = bool(diff) and diff[-1][1] > 0  # self eventually larger
                keep = fs if above != low else gs
                if keep:
                    d, formula = keep[0].den, [(t.weight, t.num) for t in keep]
                lo = fs[0].start if fs else gs[0].start
                if fs and gs and gs[0].start < lo:
                    lo = gs[0].start
                n = _settle(diff, n)
            vals: Dict[int, int] = {}
            if fp or gp:
                for k in fp.keys() | gp.keys() if fp and gp else fp or gp:
                    if k < lo:  # no tail below lo; a zero adds nothing
                        v = pick(fp.get(k, 0), gp.get(k, 0))
                        if v:
                            vals[k] = v
            for k in range(lo, n):  # _at on both sides
                a = fp.get(k, 0) + _tail_sum(fs, k)
                b = gp.get(k, 0) + _tail_sum(gs, k)
                vals[k] = pick(a, b)
            raw = [(n, w, c) for w, c in formula]
            ts, prefix = _finish_ladder(lid, vals, d, raw, formula, n, True)
            if ts:
                tails.extend(ts)
                terms[lid] = ts
            if prefix:
                on.append((lid, prefix))
        if self.off and other.off:
            fo, go = self._offmap, other._offmap
            off = [
                (x, v)
                for x in fo.keys() | go.keys()
                if (v := pick(fo.get(x, 0), go.get(x, 0)))
            ]
            off.sort(key=lambda item: item[0].key())
        else:  # one side's points, in ordinal order already
            off = [(x, v) for x, u in self.off or other.off if (v := pick(u, 0))]
        return _built(self.domain, tuple(off), tuple(on), tuple(tails), terms)

    # -- arithmetic --

    def _same_domain(self, other: "Element") -> None:
        if self.domain is not other.domain and self.domain != other.domain:
            raise ValueError("elements live on different domains")

    def _scaled(self, c: int) -> "Element":
        """c * self, which for c != 0 is canonical as built.

        c * f keeps f's tail starts, prefix indices and term order.  Below
        a start s, f(s-1) differs from the tail formula at s-1: an integer
        stands against a non-integer, or two integers differ, and c times
        each keeps them apart.  On each ladder the numerators become
        n*c/g over den/g, g = gcd(den, c), still the least denominator.
        One stop of the walk down is not a difference: on a ladder with
        several terms, one term may fail to be integral at s-1 while their
        sum is integral and equal to f(s-1).  When g > 1 makes every
        scaled term integral there, the start of c * f may fall, and then
        c * f is canonicalized instead.
        """
        if not c:
            return self.domain.zero()
        if c == 1:
            return self
        tails: List[TailTerm] = []
        scaled: Dict[str, Tuple[TailTerm, ...]] = {}
        for lid, terms in self._terms.items():
            den = terms[0].den
            g = math.gcd(den, c)
            d, m = den // g, c // g
            ts = scaled[lid] = tuple(
                [TailTerm(lid, t.weight, t.num * m, d, t.start) for t in terms]
            )
            tails += ts
            k = terms[0].start - 1
            if g > 1 and len(terms) > 1 and k >= 0:
                for t in ts:
                    if t.num * t.weight.mod(k, d) % d:
                        break
                else:
                    return _sum(self.domain, ((c, self),))
        return _built(
            self.domain,
            tuple([(x, c * v) for x, v in self.off]),
            tuple([(lid, tuple([(k, c * v) for k, v in kv])) for lid, kv in self.on]),
            tuple(tails),
            scaled,
        )

    def __add__(self, other: "Element") -> "Element":
        return self.domain.combine((1, 1), (self, other))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return self._scaled(-1)

    def __mul__(self, n: int) -> "Element":
        if not isinstance(n, int):
            return NotImplemented
        return self._scaled(n)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_element(self)


# --- canonicalization -------------------------------------------------------


def _by_ladder(tails: Tuple[TailTerm, ...]) -> Dict[str, Tuple[TailTerm, ...]]:
    """Canonical tails grouped by ladder, in the order they sit."""
    if not tails:
        return {}
    if tails[0].ladder_id == tails[-1].ladder_id:  # in ladder order: one ladder
        return {tails[0].ladder_id: tails}
    return {
        lid: tuple(terms) for lid, terms in groupby(tails, key=attrgetter("ladder_id"))
    }


def _built(
    domain: Domain,
    off: Tuple[Tuple[Ordinal, int], ...],
    on: Tuple[Tuple[str, Tuple[Tuple[int, int], ...]], ...],
    tails: Tuple[TailTerm, ...],
    terms: Dict[str, Tuple[TailTerm, ...]],
) -> Element:
    """The canonical element of these fields, with the per-ladder terms
    its builder already holds stored as its `_terms`.  Element has no
    __post_init__, so its instance dict is filled in one step, not field
    by field through the frozen dataclass __init__."""
    f = object.__new__(Element)
    f.__dict__.update(domain=domain, off=off, on=on, tails=tails, _terms=terms)
    return f


def _merge(
    fs: Sequence[TailTerm], gs: Sequence[TailTerm], a: int, b: int
) -> List[Tuple[WeightFn, int]]:
    """The nonzero (weight, a*m + b*n) on one ladder, in ascending
    dominance, where m and n are the numerators of the weight's term in fs
    and in gs (0 where it has none).  Each side's terms are in that order
    already, so they merge without a sort."""
    out: List[Tuple[WeightFn, int]] = []
    i = j = 0
    nf, ng = len(fs), len(gs)
    while i < nf or j < ng:
        if j == ng:
            t = fs[i]
            w, n = t.weight, a * t.num
            i += 1
        elif i == nf:
            u = gs[j]
            w, n = u.weight, b * u.num
            j += 1
        else:
            t, u = fs[i], gs[j]
            if t.weight is u.weight or t.weight == u.weight:
                w, n = t.weight, a * t.num + b * u.num
                i += 1
                j += 1
            elif t.weight.dominance_key() < u.weight.dominance_key():
                w, n = t.weight, a * t.num
                i += 1
            else:
                w, n = u.weight, b * u.num
                j += 1
        if n:
            out.append((w, n))
    return out


def _add(f: Element, g: Element) -> Element:
    """f + g in canonical form, built without `_canonical`.

    Direct-sum lemma, per ladder.  Where one side is 0, the ladder is the
    other side's as it stands.  Else the terms are the merged residues over
    lcm(df, dg), zeros dropped, divided by their gcd with that
    denominator.  From the larger start on both sides are their formulas
    with integral terms, so the start s of f + g is at most that start.
    - Both sides have tails, starts sf < sg (or the mirror): s = sg.  At sg-1, g leaves its
      formula, by value or by a term not integral there.  By value, f + g
      leaves its own formula by the same amount, since f is its formula
      there.  By a term, f's term of that weight is integral at sg-1, so
      the summed term is not, whether or not other terms cancel.
    - Equal starts: walk down from the start (`_finish_ladder`) with the
      summed prefix values.
    - Only f has tails (or the mirror): a prefix index m >= sf of g
      departs from the formula, so s is one past the largest such index;
      with none, walk down from sf.
    - No term survives: no tail; the values below the larger start are
      the prefix.
    Below the smaller start the prefix is the summed prefix values, and
    from there to s the values of f + g (`_finish_ladder`).  Prefix-only
    ladders and the points off the ladders merge, zeros dropped.

    Reads the prefix values from f's and g's `on` fields: their `_onmap`,
    which an element read once, as a decoded one, needs for nothing else,
    is not built.
    """
    fts, gts = f._terms, g._terms
    fon = dict(f.on) if f.on else _NO_VALUES
    gon = dict(g.on) if g.on else _NO_VALUES
    on: List[Tuple[str, Tuple[Tuple[int, int], ...]]] = []
    tails: List[TailTerm] = []
    terms: Dict[str, Tuple[TailTerm, ...]] = {}
    for lid in f.domain.ids:
        fs, gs = fts.get(lid, ()), gts.get(lid, ())
        fp, gp = fon.get(lid, ()), gon.get(lid, ())
        if not (gs or gp):  # g is 0 on the ladder: f's ladder as it stands
            ts, prefix = fs, fp
        elif not (fs or fp):
            ts, prefix = gs, gp
        elif not (fs or gs):
            ts = ()
            prefix = tuple((k, v) for k, v in sorted(_summed(fp, gp).items()) if v)
        else:
            window = _summed(fp, gp) if fp or gp else _NO_VALUES
            if fs and gs:
                df, dg = fs[0].den, gs[0].den
                den = math.lcm(df, dg)
                a, b = den // df, den // dg
                formula = _merge(fs, gs, a, b)
                raw = [(t.start, t.weight, a * t.num) for t in fs]
                raw += [(t.start, t.weight, b * t.num) for t in gs]
                sf, sg = fs[0].start, gs[0].start
                s, walk = max(sf, sg), sf == sg
            else:
                keep, other = (fs, gp) if fs else (gs, fp)
                den = keep[0].den
                formula = [(t.weight, t.num) for t in keep]
                raw = [(t.start, t.weight, t.num) for t in keep]
                s = keep[0].start
                walk = other[-1][0] < s
                if not walk:  # the other side's prefix reaches s: it rises
                    s = other[-1][0] + 1
            ts, prefix = _finish_ladder(lid, window, den, raw, formula, s, walk)
        if ts:
            tails.extend(ts)
            terms[lid] = ts
        if prefix:
            on.append((lid, prefix))
    if f.off and g.off:
        off = [(x, v) for x, v in _summed(f.off, g.off).items() if v]
        if len(off) > 1:
            off.sort(key=lambda item: item[0].key())
    else:
        off = f.off or g.off
    return _built(f.domain, tuple(off), tuple(on), tuple(tails), terms)


def _summed(a: Iterable[Tuple[object, int]], b: Iterable[Tuple[object, int]]) -> dict:
    """The (key, value) pairs of a and b summed by key, zeros kept."""
    out = dict(a)
    for k, v in b:
        out[k] = out.get(k, 0) + v
    return out


def _sum(domain: Domain, pairs: Iterable[Tuple[int, Element]]) -> Element:
    """The sum of c * g over the (c, g) pairs, canonicalized once."""
    off: Dict[Ordinal, int] = {}
    on: Dict[str, Dict[int, int]] = {}
    # numerators by (ladder, weight, start, denominator); _canonical
    # brings each ladder to one denominator
    tails: Dict[Tuple[str, WeightFn, int, int], int] = {}
    for c, g in pairs:
        for x, v in g.off:
            off[x] = off.get(x, 0) + c * v
        for lid, kv in g.on:
            vals = on.setdefault(lid, {})
            for k, v in kv:
                vals[k] = vals.get(k, 0) + c * v
        for t in g.tails:
            key = (t.ladder_id, t.weight, t.start, t.den)
            tails[key] = tails.get(key, 0) + c * t.num
    terms = [TailTerm(lid, w, n, d, s) for (lid, w, s, d), n in tails.items() if n]
    return _canonical(domain, off, terms, on)


# an empty map, never written to: the window of a ladder without prefix
# values, or the ladders of an element without any
_NO_VALUES: Mapping = {}


def _canonical(
    domain: Domain,
    off: Mapping[Ordinal, int],
    raw_tails: Sequence[TailTerm],
    on: Mapping[str, Mapping[int, int]],
) -> Element:
    """The canonical element with the given prefix values and tail terms:
    off holds values at points on no ladder, on holds each ladder's values
    by index, and every tail term's weight lies on its ladder."""
    by_ladder: Dict[str, List[TailTerm]] = {}
    for t in raw_tails:
        terms = by_ladder.get(t.ladder_id)
        if terms is None:
            by_ladder[t.ladder_id] = [t]
        else:
            terms.append(t)
    lids = list(by_ladder)
    for lid in on:
        if lid not in by_ladder:
            lids.append(lid)
    if len(lids) > 1:
        lids.sort()

    out_on: List[Tuple[str, Tuple[Tuple[int, int], ...]]] = []
    out_tails: List[TailTerm] = []

    for lid in lids:
        # What cancels goes before the walk down picks its first index: a
        # window value that summed to 0, and the terms of one start and
        # weight whose numerators over the ladder's denominator sum to 0
        # (different denominators keep them apart until here).
        window = on.get(lid, _NO_VALUES)
        s = 0
        if window:
            s = 1 + max(window)
            if not window[s - 1]:
                s = 1 + max((k for k, v in window.items() if v), default=-1)
        # (start, weight, numerator) over one denominator for the ladder
        raw: List[Tuple[int, WeightFn, int]] = []
        den = 1
        formula: List[Tuple[WeightFn, int]] = []
        terms = by_ladder.get(lid)
        if terms:
            if len(terms) == 1:
                t = terms[0]
                den = t.den
                raw.append((t.start, t.weight, t.num))
            else:
                den = math.lcm(*[t.den for t in terms])
                merged: Dict[Tuple[int, WeightFn], int] = {}
                for t in terms:
                    key = (t.start, t.weight)
                    merged[key] = merged.get(key, 0) + t.num * (den // t.den)
                for (start, w), n in merged.items():
                    if n:
                        raw.append((start, w, n))
            residue: Dict[WeightFn, int] = {}
            for start, w, n in raw:
                residue[w] = residue.get(w, 0) + n
                if start > s:
                    s = start
            formula = [(w, n) for w, n in residue.items() if n]
            if len(formula) > 1:
                formula.sort(key=lambda wn: wn[0].dominance_key())
        ts, vals = _finish_ladder(lid, window, den, raw, formula, s, True)
        out_tails.extend(ts)
        if vals:
            out_on.append((lid, vals))

    out_off = [(x, v) for x, v in off.items() if v]
    if len(out_off) > 1:
        out_off.sort(key=lambda item: item[0].key())
    return Element(
        domain=domain, off=tuple(out_off), on=tuple(out_on), tails=tuple(out_tails)
    )


def _finish_ladder(
    lid: str,
    window: Mapping[int, int],
    den: int,
    raw: Sequence[Tuple[int, WeightFn, int]],
    formula: List[Tuple[WeightFn, int]],
    s: int,
    walk: bool,
) -> Tuple[Tuple[TailTerm, ...], Tuple[Tuple[int, int], ...]]:
    """One ladder of a canonical element: its tail terms and its prefix.

    The window's values by index and the raw (start, weight, numerator)
    terms over den are the function on the ladder; formula is the raw
    terms' nonzero residue over den, in ascending dominance.  From s on
    the function is the formula.  The gcd pass brings the formula to its
    least denominator.  The start is s, or when walk the least t <= s
    such that every term is integral at each index of [t, s) and the
    formula there is the value: the window value, which must make up for
    the raw terms not yet started (`_makes_up`).  The prefix is every
    nonzero value below the start: the window's below the first raw
    start, the function's from there.

    Meet and join end here too: their window is the picked values below
    the settle index n, and their raw terms are the survivor's formula
    started at n, so the walk down from n finds the result's start.
    """
    terms: Tuple[TailTerm, ...] = ()
    if formula:
        g = math.gcd(den, *[n for _, n in formula])
        d = den // g
        if g > 1:
            formula = [(w, n // g) for w, n in formula]
        # down while every term is integral at k and the formula is the value
        while walk and s > 0:
            k = s - 1
            for w, n in formula if d > 1 else ():
                if n * w.mod(k, d) % d:
                    break
            else:
                if _makes_up(window.get(k, 0) * den, raw, k):
                    s = k
                    continue
            break
        terms = tuple([TailTerm(lid, w, n, d, s) for w, n in formula])
    lo = s  # no term starts before lo
    for start, _, _ in raw:
        if start < lo:
            lo = start
    vals: List[Tuple[int, int]] = []
    if window:
        for k in sorted(window):
            if k >= lo:
                break
            if window[k]:
                vals.append((k, window[k]))
    for k in range(lo, s):
        v = window.get(k, 0) * den
        for start, w, n in raw:
            if k >= start:
                v += n * w.value(k)
        if v:
            q, r = divmod(v, den)
            if r:
                raise AssertionError("non-integer ladder value")
            vals.append((k, q))
    return terms, tuple(vals)


def _makes_up(v: int, raw: Sequence[Tuple[int, WeightFn, int]], k: int) -> bool:
    """Whether v equals the sum of num * weight(k) over the (start, weight,
    num) terms not yet started at k.  Every weight is positive, so terms
    of one sign cannot sum to 0: a start far past k is never evaluated
    there.  Mixed signs are summed by weight first: the sum is 0 when they
    all cancel, and from `_settle` on it keeps its dominant term's sign."""
    if not v:
        pos = neg = False
        for start, _, n in raw:
            if start > k:
                if n > 0:
                    pos = True
                else:
                    neg = True
        if not (pos and neg):
            return not pos and not neg
        residue: Dict[WeightFn, int] = {}
        for start, w, n in raw:
            if start > k:
                residue[w] = residue.get(w, 0) + n
        terms = sorted(
            ((w, n) for w, n in residue.items() if n),
            key=lambda wn: wn[0].dominance_key(),
        )
        if not terms:
            return True
        if k >= _settle(terms, 0):
            return False
    total = 0
    for start, w, n in raw:
        if start > k:
            total += n * w.value(k)
    return v == total


def _from_values(
    domain: Domain,
    off: Mapping[Ordinal, int],
    on: Mapping[str, Mapping[int, int]],
    tails: Sequence[TailTerm],
) -> Element:
    """Element whose value at each listed point off the ladders and at each
    listed ladder index is exactly as given, and whose behaviour elsewhere
    comes from the tails alone."""
    pref: Dict[str, Dict[int, int]] = {}
    for lid, vals in on.items():
        terms = [t for t in tails if t.ladder_id == lid]
        pref[lid] = {k: v - _tail_sum(terms, k) for k, v in vals.items()}
    return _canonical(domain, off, tails, pref)


# --- pointwise predicates ----------------------------------------------------


def isolates(f: Element, x: Ordinal) -> bool:
    """A nonnegative element, positive at x, whose remaining support stays
    strictly below x's rank.  x must not be a ladder target."""
    if f.value(x) < 1 or not f.is_nonneg():
        return False
    space = f.domain.space
    gamma = space.cb_rank(x)
    for p in f._support.points:
        if p != x and space.cb_rank(p) >= gamma:
            return False
    for lid, rho in f._support.regimes:
        L = f.domain.ladder(lid)
        if space.cb_rank(L.target) >= gamma:
            return False
        if rho == 0 and space.cb_rank(L.point(0)) >= gamma:
            return False
    return True


def is_semibasic(f: Element, x: Ordinal) -> bool:
    """An element isolating x with value exactly 1 there; the building
    block of the quark decomposition."""
    return (
        f.domain.target_ladder(x) is None and f.value(x) == 1 and isolates(f, x)
    )


def bounded_ratio_witness(f: Element, g: Element) -> Optional[int]:
    """Least n >= 1 with n*f >= g, or None when no multiple of f ever
    dominates g.  Both elements must be nonnegative.

    Past the support and dominance checks some multiple does dominate: g
    is nonzero only where f is, at finitely many points and, on each
    ladder, from a common index on, where g/f stays bounded because f's
    dominant weight is at least g's.  So the doubling search ends,
    however large n is."""
    f._same_domain(g)
    if not (f.is_nonneg() and g.is_nonneg()):
        raise ValueError("bounded ratio is defined for nonnegative elements")
    if f.is_zero and g.is_zero:
        return 1
    if not f.same_support(g):
        return None
    for lid, gterms in g._terms.items():
        fterms = f._terms.get(lid)
        # the last term carries the dominant weight
        if fterms is None or (
            gterms[-1].weight.dominance_key() > fterms[-1].weight.dominance_key()
        ):
            return None

    def ok(n: int) -> bool:
        return f.domain.combine((n, -1), (f, g)).is_nonneg()

    hi = 1
    while not ok(hi):
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# --- literals ----------------------------------------------------------------


def format_element(f: Element) -> str:
    if f.is_zero:
        return "0"
    parts: List[str] = []
    for x, v in f.prefix:
        atom = f"e({format_ordinal(x)})"
        parts.append(atom if v == 1 else f"{v}*{atom}" if v != -1 else f"-{atom}")
    for t in f.tails:
        parts.append(
            f"tail(ladder={t.ladder_id}, weight={t.weight.label()}, "
            f"r={t.coeff}, start={t.start})"
        )
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-") and "(" not in p[:2]:
            out += f" - {p[1:]}"
        else:
            out += f" + {p}"
    return out


_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+)\s*\*\s*)?")
# a tail(...) call whose arguments may hold one level of parentheses, as
# the weight labels do
_TAIL = re.compile(r"tail\(((?:[^()]|\([^()]*\))*)\)")


def parse_element(domain: Domain, text: str) -> Element:
    """Parse a linear combination of e(...) spikes and tail(...) terms.

    Grammar:  elem := "0" | [[+|-] term (("+"|"-") term)*] ;
    term := [INT *] atom ; atom := e(ORDINAL) | tail(key=value, ...),
    each of the keys ladder, r and start once, and weight at most once.
    """
    sc = _Scanner("" if text.strip() == "0" else text)
    points: List[Tuple[Ordinal, int]] = []
    tails: List[Tuple[int, str, str, int, Optional[str]]] = []

    def error(msg: str):
        raise ValueError(f"{msg} (at offset {sc.pos} in {text!r})")

    while sc.peek():
        m = _TERM.match(sc.text, sc.pos)
        if (points or tails) and not m.group(1):
            error("expected + or -")
        c = (-1 if m.group(1) == "-" else 1) * int(m.group(2) or 1)
        sc.pos = m.end()
        if sc.text.startswith("e(", sc.pos):
            sc.pos += 2
            points.append((_parse_expr(sc), c))
            sc.expect(")")
        elif call := _TAIL.match(sc.text, sc.pos):
            kv: Dict[str, str] = {}
            for piece in call.group(1).split(","):
                key, eq, val = piece.partition("=")
                key = key.strip()
                if not eq or key not in ("ladder", "weight", "r", "start"):
                    error(f"bad tail argument {piece!r}")
                if key in kv:
                    error(f"tail argument {key} given twice")
                kv[key] = val.strip()
            if not {"ladder", "r", "start"} <= kv.keys():
                error("tail needs ladder=, r= and start=")
            tails.append((c, kv["ladder"], kv["r"], int(kv["start"]), kv.get("weight")))
            sc.pos = call.end()
        else:
            error("expected e(...) or tail(...)")
    return domain.literal(points, tails)
