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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ordlat.ordinal import (
    ONE,
    OMEGA,
    ZERO,
    Ordinal,
    add,
    compare,
    format_ordinal,
    from_int,
    last_exponent,
    omega_power,
    parse_ordinal,
    successor,
)
from ordlat.space import ScatteredSpace


# --- weights ---------------------------------------------------------------

_WEIGHT_KINDS = ("constant", "geometric", "factorial", "factgeom")


@dataclass(frozen=True, slots=True)
class WeightFn:
    """Growth profile of a tail along its ladder."""

    kind: str
    param: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if self.kind == "constant" and self.param < 1:
            raise ValueError("constant weight needs param >= 1")
        if self.kind in ("geometric", "factgeom") and self.param < 2:
            raise ValueError(f"{self.kind} weight needs param >= 2")
        if self.kind == "factorial" and self.param != 0:
            raise ValueError("factorial weight takes no param")

    def value(self, k: int) -> int:
        if self.kind == "constant":
            return self.param
        if self.kind == "geometric":
            return self.param**k
        if self.kind == "factorial":
            return math.factorial(k)
        return math.factorial(k) * self.param**k

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
        tier = {"constant": 0, "geometric": 1, "factorial": 2, "factgeom": 3}
        return (tier[self.kind], self.param)

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
    """

    id: str
    kind: str
    target: Ordinal
    weights: Tuple[WeightFn, ...]
    first: Ordinal = ZERO
    step: Ordinal = ONE
    offset: int = 0

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

    def point(self, k: int) -> Ordinal:
        if k < 0:
            raise ValueError("ladder index must be >= 0")
        if self.kind == "power":
            return omega_power(from_int(self.offset + k))
        exp, coeff = self.step.terms[0]
        return add(self.first, omega_power(exp, coeff * k) if k else ZERO)

    def index_of(self, x: Ordinal) -> Optional[int]:
        """Inverse of point(), or None when x is not on the ladder."""
        if self.kind == "power":
            if len(x.terms) != 1 or x.terms[0][1] != 1:
                return None
            exp = x.terms[0][0]
            if not exp.is_nat():
                return None
            k = exp.as_nat() - self.offset
            return k if k >= 0 else None
        if compare(x, self.first) < 0 or compare(x, self.target) >= 0:
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
    if compare(a, b) > 0:
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

    def __post_init__(self) -> None:
        ids = [L.id for L in self.ladders]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ladder ids")
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
        return _canonical(self, {}, [])

    def e(self, x: Ordinal) -> "Element":
        """Unit spike at a single point."""
        return _canonical(self, {x: 1}, [])

    def tail(
        self,
        lid: str,
        coeff,
        start: int,
        weight: Optional[str] = None,
    ) -> "Element":
        L = self.ladder(lid)
        w = L.weight(weight)
        return _canonical(self, {}, [TailTerm(lid, w, Fraction(coeff), start)])

    def combine(
        self, coeffs: Sequence[int], elements: Sequence["Element"]
    ) -> "Element":
        """The sum of c * g over zip(coeffs, elements), canonicalized once.

        + and * are combinations too.  Raises TypeError on a coefficient
        that is not an int, ValueError on an element of another domain.
        """
        off: Dict[Ordinal, int] = {}
        on: Dict[str, Dict[int, int]] = {}
        tails: Dict[Tuple[str, WeightFn, int], Fraction] = {}
        for c, g in zip(coeffs, elements):
            if not isinstance(c, int):
                raise TypeError(f"coefficient {c!r:.40} is not an int")
            if g.domain != self:
                raise ValueError("elements live on different domains")
            if not c:
                continue
            for x, v in g.off:
                off[x] = off.get(x, 0) + c * v
            for lid, kv in g.on:
                vals = on.setdefault(lid, {})
                for k, v in kv:
                    vals[k] = vals.get(k, 0) + c * v
            for t in g.tails:
                key = (t.ladder_id, t.weight, t.start)
                r = t.coeff if c == 1 else c * t.coeff
                old = tails.get(key)
                tails[key] = r if old is None else old + r
        terms = [TailTerm(lid, w, r, s) for (lid, w, s), r in tails.items() if r]
        return _canonical(self, off, terms, on)


# --- elements ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TailTerm:
    ladder_id: str
    weight: WeightFn
    coeff: Fraction
    start: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("tail start must be >= 0")
        if self.coeff == 0:
            raise ValueError("tail coefficient must be nonzero")
        if self.weight.value(self.start) % self.coeff.denominator:
            raise ValueError(
                f"coefficient {self.coeff} is not integral from index "
                f"{self.start} under {self.weight.label()}"
            )


@dataclass(frozen=True, slots=True)
class SupportInfo:
    """Canonical encoding of where an element is nonzero.

    points: nonzero points outside the eventual ladder regions.
    regimes: (ladder id, least index from which the element stays nonzero),
    one entry per ladder carrying a tail.
    """

    points: frozenset
    regimes: Tuple[Tuple[str, int], ...]


@dataclass(frozen=True)
class _LadderAnalysis:
    terms: Tuple[TailTerm, ...]
    start: int
    residue: Tuple[Tuple[WeightFn, Fraction], ...]
    stabilization: int   # values match the formula and keep one sign from here
    eventual_sign: int


def _tail_sum(terms: Sequence[TailTerm], k: int) -> int:
    """Sum of coeff * weight(k) over the terms already started at index k."""
    total = 0
    for t in terms:
        if k >= t.start:
            q, r = divmod(t.coeff.numerator * t.weight.value(k), t.coeff.denominator)
            if r:
                raise AssertionError("non-integer ladder value")
            total += q
    return total


@dataclass(frozen=True)
class Element:
    """A canonical element, its prefix stored by where each point lies.

    off: the nonzero prefix values at points on no ladder, in ordinal
    order.  on: per ladder with prefix values, in ladder-id order, its
    nonzero (index, value) pairs in index order.  tails: by ladder id, then
    by weight dominance.  The ordinal-keyed prefix is derived from off and
    on.
    """

    domain: Domain
    off: Tuple[Tuple[Ordinal, int], ...]
    on: Tuple[Tuple[str, Tuple[Tuple[int, int], ...]], ...]
    tails: Tuple[TailTerm, ...]

    # -- construction & basic queries --

    @property
    def is_zero(self) -> bool:
        return not self.off and not self.on and not self.tails

    @cached_property
    def prefix(self) -> Tuple[Tuple[Ordinal, int], ...]:
        """Every prefix value keyed by its point, in ordinal order."""
        if not self.on:
            return self.off
        items = list(self.off)
        for lid, kv in self.on:
            L = self.domain.ladder(lid)
            items.extend((L.point(k), v) for k, v in kv)
        return tuple(sorted(items, key=lambda item: item[0].key()))

    @cached_property
    def _offmap(self) -> Dict[Ordinal, int]:
        return dict(self.off)

    def tails_on(self, lid: str) -> Tuple[TailTerm, ...]:
        return tuple(t for t in self.tails if t.ladder_id == lid)

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
                total += int(t.coeff * t.weight.param)
            return total
        loc = self.domain.locate(x)
        if loc is not None:
            return self._at(loc[0].id, loc[1])
        if not self.domain.space.contains(x):
            raise ValueError(f"point {format_ordinal(x)} outside the space")
        return self._offmap.get(x, 0)

    # -- ladder analysis --

    @cached_property
    def _analysis(self) -> Dict[str, _LadderAnalysis]:
        out: Dict[str, _LadderAnalysis] = {}
        for L in self.domain.ladders:
            terms = self.tails_on(L.id)
            if not terms:
                continue
            start = terms[0].start
            residue = {t.weight: t.coeff for t in terms}
            weights = sorted(residue, key=WeightFn.dominance_key)
            dom = weights[-1]
            k0 = start
            for w in weights[:-1]:
                k0 = max(k0, dominance_monotone_from(dom, w))
            k = k0
            while not (
                abs(residue[dom]) * dom.value(k)
                > sum(abs(residue[w]) * w.value(k) for w in weights[:-1])
            ):
                k += 1
            out[L.id] = _LadderAnalysis(
                terms=terms,
                start=start,
                residue=tuple((w, residue[w]) for w in weights),
                stabilization=k,
                eventual_sign=1 if residue[dom] > 0 else -1,
            )
        return out

    @cached_property
    def _window(self) -> Dict[str, Tuple[int, ...]]:
        """Per ladder, the values at the indices below its settle index;
        past them a ladder's values are its tail formula."""
        on = dict(self.on)
        window = {}
        for L in self.domain.ladders:
            vals = dict(on.get(L.id, ()))
            info = self._analysis.get(L.id)
            terms = info.terms if info else ()
            n = info.stabilization if info else max(vals, default=-1) + 1
            window[L.id] = tuple(
                vals.get(k, 0) + _tail_sum(terms, k) for k in range(n)
            )
        return window

    def _values_on(self, lid: str) -> Tuple[int, ...]:
        vals = self._window.get(lid)
        if vals is None:
            self.domain.ladder(lid)  # raises KeyError for an unknown id
        return vals

    def _at(self, lid: str, k: int) -> int:
        """Value at index k of ladder lid."""
        vals = self._values_on(lid)
        if k < len(vals):
            return vals[k]
        info = self._analysis.get(lid)
        return _tail_sum(info.terms, k) if info else 0

    def settle_index(self, lid: str) -> int:
        """Index from which values on the ladder follow a fixed pattern:
        the tail formula with a constant sign, or identically zero."""
        return len(self._values_on(lid))

    def residue_at(self, lid: str) -> Dict[WeightFn, Fraction]:
        """Tail coefficient per weight on one ladder (the behaviour at the
        ladder's target)."""
        L = self.domain.ladder(lid)
        info = self._analysis.get(lid)
        got = dict(info.residue) if info else {}
        return {w: got.get(w, Fraction(0)) for w in L.weights}

    def tail_start(self, lid: str) -> Optional[int]:
        info = self._analysis.get(lid)
        return info.start if info else None

    def mu(self, lid: str) -> Optional[int]:
        """Least ladder index with a nonzero value."""
        vals = self._values_on(lid)
        for k, v in enumerate(vals):
            if v:
                return k
        # the value at the settle index of a ladder with tails is nonzero
        return len(vals) if lid in self._analysis else None

    # -- support & rank --

    @cached_property
    def _support(self) -> SupportInfo:
        pts = {x for x, _ in self.off}
        regimes = []
        for L in self.domain.ladders:
            vals = self._window[L.id]
            rho = len(vals)
            if L.id in self._analysis:  # nonzero forever from index rho on
                while rho > 0 and vals[rho - 1] != 0:
                    rho -= 1
                regimes.append((L.id, rho))
            pts.update(L.point(k) for k in range(rho) if vals[k])
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
        best = ZERO
        for x in self._support.points:
            r = space.cb_rank(x)
            if compare(r, best) > 0:
                best = r
        for lid, rho in self._support.regimes:
            L = self.domain.ladder(lid)
            for cand in (
                space.cb_rank(L.target),
                space.cb_rank(L.point(rho)),
                space.cb_rank(L.point(rho + 1)),
            ):
                if compare(cand, best) > 0:
                    best = cand
        return best

    # -- order & lattice --

    def is_nonneg(self) -> bool:
        if any(info.eventual_sign < 0 for info in self._analysis.values()):
            return False
        return all(v >= 0 for _, v in self.off) and all(
            v >= 0 for vals in self._window.values() for v in vals
        )

    def meet(self, other: "Element") -> "Element":
        """Pointwise minimum."""
        self._same_domain(other)
        diff = self - other
        on: Dict[str, Dict[int, int]] = {}
        tails: List[TailTerm] = []
        for L in self.domain.ladders:
            lid = L.id
            active = lid in self._analysis or lid in other._analysis
            if active:
                dinfo = diff._analysis.get(lid)
                survivor = other if (dinfo and dinfo.eventual_sign > 0) else self
                tails.extend(survivor.tails_on(lid))
            k_settle = max(
                self.settle_index(lid),
                other.settle_index(lid),
                diff.settle_index(lid),
            )
            vals = on[lid] = {}
            for k in range(k_settle):
                v = min(self._at(lid, k), other._at(lid, k))
                if v or active:  # a zero off the tails adds nothing
                    vals[k] = v
        off: Dict[Ordinal, int] = {}
        for x, _ in self.off + other.off:
            if x not in off:
                off[x] = min(self._offmap.get(x, 0), other._offmap.get(x, 0))
        return _from_values(self.domain, off, on, tails)

    def join(self, other: "Element") -> "Element":
        return -((-self).meet(-other))

    def plus_part(self) -> "Element":
        return self.join(self.domain.zero())

    def minus_part(self) -> "Element":
        return self.meet(self.domain.zero())

    # -- arithmetic --

    def _same_domain(self, other: "Element") -> None:
        if self.domain != other.domain:
            raise ValueError("elements live on different domains")

    def __add__(self, other: "Element") -> "Element":
        return self.domain.combine((1, 1), (self, other))

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        # -f is canonical as it stands: each canonical-form condition is
        # unchanged by a sign flip.  -r * w(k) is integral exactly where
        # r * w(k) is, and val(k) == formula(k) holds for -f exactly where
        # it holds for f, so every tail start stays; nonzero values stay
        # nonzero, and the order of points, indices and terms stays.
        return Element(
            domain=self.domain,
            off=tuple((x, -v) for x, v in self.off),
            on=tuple(
                (lid, tuple((k, -v) for k, v in kv)) for lid, kv in self.on
            ),
            tails=tuple(
                TailTerm(t.ladder_id, t.weight, -t.coeff, t.start)
                for t in self.tails
            ),
        )

    def __mul__(self, n: int) -> "Element":
        if not isinstance(n, int):
            return NotImplemented
        return self.domain.combine((n,), (self,))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_element(self)


# --- canonicalization -------------------------------------------------------


def _canonical(
    domain: Domain,
    raw_prefix: Mapping[Ordinal, int],
    raw_tails: Sequence[TailTerm],
    on: Optional[Mapping[str, Mapping[int, int]]] = None,
) -> Element:
    """The canonical element with the given prefix values and tail terms.

    With on=None this is the ordinal entry: raw_prefix may hold any points,
    which are validated and located here, once.  Otherwise raw_prefix holds
    values at points on no ladder and on holds each ladder's values by
    index, as the arithmetic on canonical elements produces them.
    """
    if on is None:
        off: Dict[Ordinal, int] = {}
        on = {}
        for x, v in raw_prefix.items():
            if v == 0:
                continue
            if not domain.space.contains(x):
                raise ValueError(f"point {format_ordinal(x)} outside the space")
            if domain.target_ladder(x) is not None:
                raise ValueError(
                    f"{format_ordinal(x)} is a ladder target; values there are "
                    "set by tails"
                )
            loc = domain.locate(x)
            if loc is None:
                off[x] = v
            else:
                on.setdefault(loc[0].id, {})[loc[1]] = v
        raw_prefix = off

    by_ladder: Dict[str, List[TailTerm]] = {}
    for t in raw_tails:
        L = domain.ladder(t.ladder_id)
        if t.weight not in L.weights:
            raise ValueError(
                f"weight {t.weight.label()} not configured on ladder {L.id}"
            )
        by_ladder.setdefault(t.ladder_id, []).append(t)

    out_on: List[Tuple[str, Tuple[Tuple[int, int], ...]]] = []
    out_tails: List[TailTerm] = []

    for lid in sorted(set(by_ladder) | set(on)):
        terms = by_ladder.get(lid, [])
        window = on.get(lid, {})

        residue: Dict[WeightFn, Fraction] = {}
        for t in terms:
            r = residue.get(t.weight)
            residue[t.weight] = t.coeff if r is None else r + t.coeff
        residue = {w: r for w, r in residue.items() if r != 0}

        hi = max((t.start for t in terms), default=0)
        hi = max(hi, 1 + max(window, default=-1))

        if residue:
            weights = sorted(residue, key=WeightFn.dominance_key)
            s = hi
            while s > 0:
                k = s - 1
                # the value at k equals the tail formula sum(residue * w(k))
                # exactly when the window value at k makes up for the terms
                # that have not started by k
                if any(w.value(k) % residue[w].denominator for w in weights):
                    break
                if window.get(k, 0) != sum(
                    t.coeff * t.weight.value(k) for t in terms if t.start > k
                ):
                    break
                s = k
            for w in weights:
                out_tails.append(TailTerm(lid, w, residue[w], s))
        else:
            s = hi
        vals = tuple(
            (k, v)
            for k in range(s)
            if (v := window.get(k, 0) + _tail_sum(terms, k))
        )
        if vals:
            out_on.append((lid, vals))

    return Element(
        domain=domain,
        off=tuple(
            sorted(
                ((x, v) for x, v in raw_prefix.items() if v),
                key=lambda item: item[0].key(),
            )
        ),
        on=tuple(out_on),
        tails=tuple(out_tails),
    )


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
        if p != x and compare(space.cb_rank(p), gamma) >= 0:
            return False
    for lid, rho in f._support.regimes:
        L = f.domain.ladder(lid)
        if compare(space.cb_rank(L.target), gamma) >= 0:
            return False
        if rho == 0 and compare(space.cb_rank(L.point(0)), gamma) >= 0:
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
    dominates g.  Both elements must be nonnegative."""
    f._same_domain(g)
    if not (f.is_nonneg() and g.is_nonneg()):
        raise ValueError("bounded ratio is defined for nonnegative elements")
    if f.is_zero and g.is_zero:
        return 1
    if not f.same_support(g):
        return None
    for lid, ginfo in g._analysis.items():
        finfo = f._analysis.get(lid)
        if finfo is None:
            return None
        gdom = max((w for w, r in ginfo.residue), key=WeightFn.dominance_key)
        fdom = max((w for w, r in finfo.residue), key=WeightFn.dominance_key)
        if gdom.dominance_key() > fdom.dominance_key():
            return None

    def ok(n: int) -> bool:
        return (n * f - g).is_nonneg()

    hi = 1
    while not ok(hi):
        hi *= 2
        if hi > 2**63:
            return None
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


_TOKEN = re.compile(
    r"\s*(?:(?P<num>-?\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<sym>[()*+,=/-]))"
)


def parse_element(domain: Domain, text: str) -> Element:
    """Parse a linear combination of e(...) spikes and tail(...) terms.

    Grammar:  elem := [-] term (("+"|"-") term)* ;
    term := [INT *] atom ; atom := e(ORDINAL) | tail(key=value, ...).
    """
    if text.strip() == "0":
        return domain.zero()
    pos = 0
    coeffs: List[int] = []
    atoms: List[Element] = []
    sign = 1
    first = True

    def error(msg: str):
        raise ValueError(f"{msg} (at offset {pos} in {text!r})")

    n = len(text)
    while pos < n:
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            break
        if not first or text[pos] in "+-":
            if text[pos] == "+":
                sign = 1
            elif text[pos] == "-":
                sign = -1
            elif first:
                sign = 1
                pos -= 1  # no sign; re-read
            else:
                error("expected + or -")
            pos += 1
        first = False
        while pos < n and text[pos].isspace():
            pos += 1
        m = re.match(r"(\d+)\s*\*\s*", text[pos:])
        coeff = 1
        if m:
            coeff = int(m.group(1))
            pos += m.end()
        if text.startswith("e(", pos):
            depth, j = 1, pos + 2
            while j < n and depth:
                depth += text[j] == "("
                depth -= text[j] == ")"
                j += 1
            if depth:
                error("unbalanced parentheses")
            coeffs.append(sign * coeff)
            atoms.append(domain.e(parse_ordinal(text[pos + 2 : j - 1])))
            pos = j
        elif text.startswith("tail(", pos):
            depth, j = 1, pos + 5
            while j < n and depth:
                depth += text[j] == "("
                depth -= text[j] == ")"
                j += 1
            if depth:
                error("unbalanced tail(...)")
            body = text[pos + 5 : j - 1]
            kv: Dict[str, str] = {}
            for piece in body.split(","):
                if "=" not in piece:
                    error(f"bad tail argument {piece!r}")
                key, val = piece.split("=", 1)
                kv[key.strip()] = val.strip()
            unknown = set(kv) - {"ladder", "weight", "r", "start"}
            if unknown:
                error(f"unknown tail arguments {sorted(unknown)}")
            if "ladder" not in kv or "r" not in kv or "start" not in kv:
                error("tail needs ladder=, r= and start=")
            coeffs.append(sign * coeff)
            atoms.append(
                domain.tail(
                    kv["ladder"],
                    Fraction(kv["r"]),
                    int(kv["start"]),
                    weight=kv.get("weight"),
                )
            )
            pos = j
        else:
            error("expected e(...) or tail(...)")
    return domain.combine(coeffs, atoms)
