"""Independent oracles the tests compare library output against.

Everything here recomputes answers from first principles with different
algorithms than the package uses: the ordinal order by a term-by-term
walk of the normal forms, ordinal addition by block rewriting,
derived-set ranks by grid refinement, kernel decompositions by greedy
forced-coefficient peeling and by the earlier block-slicing loop, a
family's coordinates by the window and reader built at once for the
whole family and by the earlier reader, which probes every column of the
element, membership in a window widened by the target with two
separate Hermite forms, quotient and final bases of a chain by rational
solves, torsion witnesses by a point-by-point re-sum with Fraction
residues, the lattice meet through the canonical difference of its
arguments and by the earlier meet, which hands the values it read to
_from_values, element literals by a character scanner that sums one
canonical atom per term, and the canonical form by the earlier
canonicalizer, which re-sums every multiple and combination term by
term.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ordlat.element import (
    Domain,
    Element,
    TailTerm,
    WeightFn,
    _from_values,
    _settle,
    is_semibasic,
)
from ordlat.group import CoordinateSystem, Decomposition
from ordlat.intlinalg import row_rank, solve_in_rowspace
from ordlat.ordinal import (
    Ordinal,
    compare,
    floor_rank,
    format_ordinal,
    from_int,
    omega_power,
    parse_ordinal,
    successor,
)
from ordlat.space import ClopenBlock, ScatteredSpace

# --- the ordinal order, read off the normal forms ------------------------------


def reference_compare(a: Ordinal, b: Ordinal) -> int:
    """Three-way comparison by walking both normal forms term by term:
    the first differing exponent decides, then the coefficient, then
    which form runs out first.  Reads no stored key."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = reference_compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


# --- bounded ordinal grids -------------------------------------------------------


def iter_below(bound: Ordinal, coeff_cap: int) -> Iterator[Ordinal]:
    """Yield the grid of ordinals <= bound whose coefficients are all <= cap.

    Only supports bounds below w^4, which covers every space used here.
    """
    exps = [from_int(i) for i in range(4)]
    digits = [range(coeff_cap + 1) for _ in exps]

    def build(ds):
        terms = []
        for exp, d in zip(reversed(exps), reversed(ds)):
            if d:
                terms.append((exp, d))
        return Ordinal(tuple(terms))

    for ds in itertools.product(*digits):
        x = build(ds)
        if compare(x, bound) <= 0:
            yield x


# --- ordinal addition below w^3 by block rewriting -----------------------------

Triple = Tuple[int, int, int]  # (c2, c1, c0) encodes w^2*c2 + w*c1 + c0


def triple_of(a: Ordinal) -> Triple:
    c = [0, 0, 0]
    for exp, coeff in a.terms:
        if not exp.is_nat() or exp.as_nat() > 2:
            raise ValueError("oracle only handles ordinals below w^3")
        c[exp.as_nat()] = coeff
    return (c[2], c[1], c[0])


def ordinal_of(t: Triple) -> Ordinal:
    acc = omega_power(from_int(2), t[0])
    acc = acc + omega_power(from_int(1), t[1])
    return acc + from_int(t[2])


def add_triples(a: Triple, b: Triple) -> Triple:
    """Left blocks at or below the right block's leading power vanish."""
    if b[0]:
        return (a[0] + b[0], b[1], b[2])
    if b[1]:
        return (a[0], a[1] + b[1], b[2])
    return (a[0], a[1], a[2] + b[2])


# --- derived-set rank via grid refinement ---------------------------------------


def _largest_below(sorted_keys: List, key) -> Optional[int]:
    i = bisect_left(sorted_keys, key)
    return i - 1 if i else None


def _survivors(level: List[Ordinal], finer: List[Ordinal]) -> List[Ordinal]:
    ck = [p.key() for p in level]
    fk = [p.key() for p in finer]
    out = []
    for p in level:
        i = _largest_below(fk, p.key())
        if i is None:
            continue
        j = _largest_below(ck, p.key())
        if j is not None and ck[j] < fk[i]:
            out.append(p)
    return out


@lru_cache(maxsize=None)
def rank_table(top: Ordinal, cap: int, depth: int = 4) -> Dict[Ordinal, int]:
    """Rank of every base-grid point, read off a tower of nested grids.

    A point sits in the next derived set exactly when refining the grid
    moves its nearest lower neighbour among the current level's points
    upward (they accumulate at it from below); a lower neighbour that
    stays put under refinement, or none at all, means isolated.  Level k
    on grid j is computed from level k-1 on grids j and j+1, so a tower
    of depth+1 grids resolves ranks up to depth.

    The table covers points with coefficients at most cap.  Building it
    is the expensive part, so it is cached per (top, cap, depth) and
    shared by every grid_rank probe.
    """
    levels = [
        sorted(iter_below(top, cap + 2 * j), key=Ordinal.key)
        for j in range(depth + 1)
    ]
    ranks = {p: 0 for p in levels[0]}
    rank = 0
    while len(levels) >= 2:
        levels = [
            _survivors(levels[j], levels[j + 1]) for j in range(len(levels) - 1)
        ]
        rank += 1
        for p in levels[0]:
            ranks[p] = rank
    if levels[0]:
        raise RuntimeError("rank oracle tower exhausted; raise depth")
    return ranks


def grid_rank(space: ScatteredSpace, x: Ordinal, cap: int, depth: int = 4) -> int:
    """Rank of x on the cached grid tower for (space.top, cap).

    Probe points must lie on the base grid (coefficients at most cap).
    """
    table = rank_table(space.top, cap, depth)
    if x not in table:
        raise ValueError("probe point must lie on the base grid")
    return table[x]


# --- greedy kernel decomposition -------------------------------------------------


def greedy_peel(
    f: Element, quark_at=None
) -> Dict[Ordinal, int]:
    """Peel a finitely supported element by forced coefficients.

    At the highest-rank remaining support point the coefficient of any
    unit-spike-like quark is forced to the value there; subtract and
    recurse.  Independent of the library's block-slicing decomposition.
    """
    if f.tails:
        raise ValueError("oracle peels finitely supported elements only")
    space = f.domain.space
    work = f
    out: Dict[Ordinal, int] = {}
    for _ in range(10_000):
        if work.is_zero:
            return out
        points = sorted(
            (x for x, _ in work.prefix),
            key=lambda p: (space.cb_rank(p).key(), p.key()),
            reverse=True,
        )
        x = points[0]
        c = work.value(x)
        q = f.domain.e(x) if quark_at is None else quark_at(x)
        assert q.value(x) == 1
        out[x] = out.get(x, 0) + c
        work = work - c * q
        if out[x] == 0:
            del out[x]
    raise RuntimeError("peel oracle runaway")


def reference_span_qx_decompose(
    f: Element, quarks: Optional[Mapping[Ordinal, Element]] = None
) -> Dict[Ordinal, int]:
    """The quark decomposition as it was written before spikes were taken
    without arithmetic: each round recomputes the rank of what is left,
    clusters its top-rank support points into blocks, walks each block's
    rank slice, and subtracts every quark, spikes included."""
    if f.tails:
        raise ValueError("decomposition over quarks needs a finite support")
    quarks = quarks or {}
    domain = f.domain
    space = domain.space
    result: Dict[Ordinal, int] = {}
    work = f
    while not work.is_zero:
        gamma = work.cb()
        pts = [p for p in work.support().points if space.cb_rank(p) == gamma]
        clusters: Dict[Ordinal, List[Ordinal]] = {}
        for p in pts:
            clusters.setdefault(floor_rank(p, successor(gamma)), []).append(p)
        for base in sorted(clusters, key=Ordinal.key):
            hi = max(clusters[base], key=Ordinal.key)
            block = ClopenBlock(low=None if base.is_zero else base, high=hi)
            for x in space.rank_slice(block, gamma):
                c = work.value(x)
                if c == 0:
                    continue
                q = quarks.get(x, domain.e(x))
                if not is_semibasic(q, x):
                    raise ValueError(
                        f"supplied quark at {format_ordinal(x)} is not semibasic"
                    )
                work = work - c * q
                result[x] = c
        if not work.is_zero and work.cb() >= gamma:
            raise AssertionError("rank failed to descend")
    return result


# --- coordinates of a family given at once ----------------------------------------


def reference_coordinates(
    domain: Domain, elements: Sequence[Element]
) -> Callable[[Element], Tuple[int, ...]]:
    """The reader of a family's coordinates as it was built before its
    columns could grow: the window is every prefix point of the family
    and every ladder index below the ladder's largest start, in ordinal
    order, then one axis per (ladder, weight) by ladder and dominance,
    scaled by the lcm of the reduced denominators.  The reader raises
    on a residue outside the scaled lattice or on no axis."""
    axes: Dict[Tuple[str, WeightFn], int] = {}
    max_start: Dict[str, int] = {}
    on: Dict[str, set] = {}
    window: Dict[Ordinal, Optional[Tuple[str, int]]] = {}
    for f in elements:
        for t in f.tails:
            key = (t.ladder_id, t.weight)
            axes[key] = math.lcm(axes.get(key, 1), t.den // math.gcd(t.num, t.den))
            max_start[t.ladder_id] = max(max_start.get(t.ladder_id, 0), t.start)
        window.update((x, None) for x, _ in f.off)
        for lid, kv in f.on:
            on.setdefault(lid, set()).update(k for k, _ in kv)
    for lid, s in max_start.items():
        on.setdefault(lid, set()).update(range(s))
    for lid, ks in on.items():
        L = domain.ladder(lid)
        window.update((L.point(k), (lid, k)) for k in ks)
    points = tuple(sorted(window, key=Ordinal.key))
    sites = tuple(window[x] for x in points)
    axis_keys = sorted(axes, key=lambda a: (a[0], a[1].dominance_key()))
    scales = tuple(axes[a] for a in axis_keys)

    def coords(f: Element) -> Tuple[int, ...]:
        offmap = f._offmap
        out = [
            offmap.get(x, 0) if site is None else f._at(*site)
            for x, site in zip(points, sites)
        ]
        residues = {(t.ladder_id, t.weight): t for t in f.tails}
        for (lid, w), scale in zip(axis_keys, scales):
            t = residues.pop((lid, w), None)
            q, rem = divmod(t.num * scale, t.den) if t else (0, 0)
            if rem:
                raise ValueError("residue outside the scaled lattice")
            out.append(q)
        if residues:
            raise ValueError("element uses a (ladder, weight) outside the axes")
        return tuple(out)

    return coords


def reference_probe_coords(cs: CoordinateSystem, f: Element) -> List[int]:
    """f at every column of cs, probed one column at a time: a site
    through Element._at, a point through the prefix map and an axis
    through the scaled residue.  This is the reader before coords
    scattered what the element holds; it raises the same ValueError on a
    residue outside the scaled lattice and skips a residue on no axis."""
    offmap = f._offmap
    residues = {(t.ladder_id, t.weight): t for t in f.tails}
    out = []
    for kind, key in cs.columns:
        if kind == "site":
            out.append(f._at(*key))
        elif kind == "point":
            out.append(offmap.get(key, 0))
        else:
            t = residues.get(key)
            q, rem = divmod(t.num * cs.scales[key], t.den) if t else (0, 0)
            if rem:
                raise ValueError("residue outside the scaled lattice")
            out.append(q)
    return out


# --- membership in a target-widened window ----------------------------------------


def full_window_decompose(
    gens: Sequence[Element], target: Element
) -> Optional[Decomposition]:
    """Integer coefficients writing target over gens, or None.

    The window holds the prefix points and tail starts of the target as
    well as the family's, so the target's coordinates always exist; one
    Hermite form solves for them and a second one gives the rank.
    """
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


# --- quotient bases of a chain, by rational projection ------------------------------


def quotient_basis_ok(cert) -> bool:
    """Whether each step's quotient rows form a basis of L / sat_L(P).

    L is the lattice of the pool prefix the step's quotient combinations
    range over, P that of the entries before the step, and sat_L(P) the
    part of L in P's rational span.  Right-multiplying by a matrix whose
    columns span the kernel of P's rows maps L onto a lattice isomorphic
    to L / sat_L(P), and sends the entries before the step to 0.  So the
    rows form a basis exactly when their images are independent and each
    of the step's own entries maps to an integer combination of them.
    The lattice algebra is sympy's; only the coordinate rows come from
    the package.
    """
    import sympy

    pool = [p.element for p in cert.pool]
    if not pool:
        return not cert.steps
    cs = CoordinateSystem.for_elements(pool[0].domain, pool)
    rows = [cs.coords(g) for g in pool]
    ncols = len(rows[0])

    def matrix(rs, width=ncols):
        return sympy.Matrix(len(rs), width, [x for r in rs for x in r])

    cursor = 0
    for step in cert.steps:
        width = cursor + len(step.a_extension) + len(step.b_extras)
        combos = step.quotient_basis
        if step.quotient_over != width or any(len(c) != width for c in combos):
            return False
        kernel = matrix(rows[:cursor]).nullspace()
        proj = sympy.Matrix.hstack(sympy.zeros(ncols, 0), *kernel)
        own = matrix(rows[cursor:width]) * proj
        quot = matrix(combos, width) * matrix(rows[:width]) * proj
        cursor = width
        if not combos:
            if not own.is_zero_matrix:
                return False
            continue
        if quot.rank() != len(combos):
            return False
        try:
            coeffs, _ = quot.T.gauss_jordan_solve(own.T)
        except ValueError:  # an entry's image is not in their rational span
            return False
        if not all(x.is_integer for x in coeffs):
            return False
    return True


# --- the final basis, by rational solves ---------------------------------------------


def final_basis_ok(cert) -> bool:
    """Whether the final basis is a lattice basis of the pool on which
    each target has the coefficients it names.

    The basis rows, the final-basis combinations times the pool rows, must
    be independent, every pool row must be an integer combination of
    them, and each target's row must be its coefficients times them.  The
    coordinates cover the pool and the targets, so they are one-to-one on
    every combination of both and a target's row decides the target.  The
    lattice algebra is sympy's; only the coordinate rows come from the
    package.
    """
    import sympy

    pool = [p.element for p in cert.pool]
    combos = cert.final_basis
    if cert.rank != len(combos) or any(len(c) != len(pool) for c in combos):
        return False
    if not pool:
        return not combos and not cert.targets
    targets = [t.element for t in cert.targets]
    cs = CoordinateSystem.for_elements(pool[0].domain, pool + targets)
    ncols = len(cs.columns)

    def matrix(rs, width=ncols):
        return sympy.Matrix(len(rs), width, [x for r in rs for x in r])

    rows = matrix([cs.coords(g) for g in pool])
    basis = matrix(combos, len(pool)) * rows
    if basis.rank() != len(combos):
        return False
    if combos:
        try:
            coeffs, _ = basis.T.gauss_jordan_solve(rows.T)
        except ValueError:  # a pool row is not in their rational span
            return False
        if not all(x.is_integer for x in coeffs):
            return False
    elif not rows.is_zero_matrix:
        return False
    for t in cert.targets:
        if len(t.coeffs) != len(combos):
            return False
        got = matrix([t.coeffs], len(combos)) * basis
        if got != matrix([cs.coords(t.element)]):
            return False
    return True


# --- torsion witnesses, re-summed point by point -------------------------------


def witnesses_resum(cert) -> bool:
    """Whether every torsion witness writes bound * extra over the pool
    prefix it names.

    Each side is read point by point with `Element.value`: every off-ladder
    prefix point of an element involved, and every ladder index below the
    largest prefix index or tail start among them.  From there on each
    element follows its tail formula, so the residues decide the rest:
    per (ladder, weight), the sum of c * num / den must vanish.
    """
    pool = [p.element for p in cert.pool]
    names = [p.name for p in cert.pool]
    for step in cert.steps:
        for w in step.torsion_witnesses:
            if w.extra not in names or len(w.coeffs) > len(pool):
                return False
            terms = list(zip(w.coeffs, pool)) + [
                (-w.bound, pool[names.index(w.extra)])
            ]
            residues: Dict[Tuple[str, object], Fraction] = {}
            ends: Dict[str, int] = {}
            points = set()
            for c, g in terms:
                for t in g.tails:
                    key = (t.ladder_id, t.weight)
                    residues[key] = residues.get(key, 0) + c * Fraction(t.num, t.den)
                    ends[t.ladder_id] = max(ends.get(t.ladder_id, 0), t.start)
                for lid, kv in g.on:
                    ends[lid] = max(ends.get(lid, 0), kv[-1][0] + 1)
                points.update(x for x, _ in g.off)
            if any(residues.values()):
                return False
            domain = pool[0].domain
            for lid, end in ends.items():
                L = domain.ladder(lid)
                points.update(L.point(k) for k in range(end))
            for x in points:
                if sum(c * g.value(x) for c, g in terms):
                    return False
    return True


# --- meet through the canonical difference -----------------------------------------


def subtract_meet(f: Element, g: Element) -> Element:
    """Pointwise minimum read off the canonical form of f - g.

    Per ladder, the sign of the difference's dominant tail term picks the
    side whose tails the minimum keeps, and the difference's own settle
    index bounds where the two may still cross; below that the minimum is
    taken value by value.
    """
    diff = f - g
    on: Dict[str, Dict[int, int]] = {}
    tails = []
    for L in f.domain.ladders:
        lid = L.id
        active = bool(f.tails_on(lid) or g.tails_on(lid))
        if active:
            dterms = diff.tails_on(lid)
            survivor = g if (dterms and dterms[-1].coeff > 0) else f
            tails.extend(survivor.tails_on(lid))
        top = max(f.settle_index(lid), g.settle_index(lid), diff.settle_index(lid))
        vals = on[lid] = {}
        for k in range(top):
            v = min(f._at(lid, k), g._at(lid, k))
            if v or active:
                vals[k] = v
    off = {}
    for x, _ in f.off + g.off:
        off[x] = min(f._offmap.get(x, 0), g._offmap.get(x, 0))
    return _from_values(f.domain, off, on, tails)


# --- meet through the values, by the earlier meet -------------------------------
#
# reference_meet is the package's Element.meet as it was before meet and
# join built their canonical form directly: it collects the values and
# the surviving tails and hands them to _from_values.  Only the names
# differ.  _reference_residue_difference is the package's residue
# difference of that time, before one merge served meet and sum.


def reference_meet(f: Element, g: Element) -> Element:
    """Pointwise minimum.

    Past both settle indices each side is its tail formula, so the
    difference is the formula of the residue difference: the most
    dominant weight on which the residues differ picks the eventually
    smaller side, whose tails the minimum keeps, and `_settle` from
    there gives the index past which that choice holds pointwise.
    Below the smaller start neither side has a tail, so only the prefix
    indices of the two sides can be nonzero there.
    """
    f._same_domain(g)
    on: Dict[str, Dict[int, int]] = {}
    tails: List[TailTerm] = []
    for L in f.domain.ladders:
        lid = L.id
        fs, gs = f._terms.get(lid, ()), g._terms.get(lid, ())
        lo = n = max(f.settle_index(lid), g.settle_index(lid))
        if fs or gs:
            diff = _reference_residue_difference(fs, gs)
            survivor = g if (diff and diff[-1][1] > 0) else f
            tails.extend(survivor.tails_on(lid))
            lo = min(terms[0].start for terms in (fs, gs) if terms)
            n = _settle(diff, n)
        vals = on[lid] = {}
        for k in f._onmap.get(lid, {}).keys() | g._onmap.get(lid, {}).keys():
            if k < lo:  # a zero off the tails adds nothing
                v = min(f._at(lid, k), g._at(lid, k))
                if v:
                    vals[k] = v
        for k in range(lo, n):
            vals[k] = min(f._at(lid, k), g._at(lid, k))
    off: Dict[Ordinal, int] = {}
    for x, _ in f.off + g.off:
        if x not in off:
            off[x] = min(f._offmap.get(x, 0), g._offmap.get(x, 0))
    return _from_values(f.domain, off, on, tails)


def _reference_residue_difference(
    fs: Sequence[TailTerm], gs: Sequence[TailTerm]
) -> List[Tuple[WeightFn, int]]:
    """The nonzero (weight, c) of f's residue minus g's on one ladder, in
    ascending dominance, scaled by both denominators: f and g's terms
    there, each side over its one denominator."""
    df = fs[0].den if fs else 1
    dg = gs[0].den if gs else 1
    diff: Dict[WeightFn, int] = {t.weight: t.num * dg for t in fs}
    for t in gs:
        diff[t.weight] = diff.get(t.weight, 0) - t.num * df
    return sorted(
        ((w, c) for w, c in diff.items() if c),
        key=lambda wc: wc[0].dominance_key(),
    )


def reference_join(f: Element, g: Element) -> Element:
    """Pointwise maximum, as the negated minimum of the negations."""
    return -reference_meet(-f, -g)


# --- element literals, one atom per term ----------------------------------------


def reference_parse_element(domain: Domain, text: str) -> Element:
    """Parse a linear combination of e(...) spikes and tail(...) terms.

    Each term becomes its own canonical atom through Domain.e or
    Domain.tail, found by matching parentheses character by character,
    and Domain.combine sums the atoms.  A repeated tail argument keeps its
    last value, and a zero denominator raises ZeroDivisionError.

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


# --- the canonical form, by the earlier canonicalizer ------------------------------
#
# reference_canonical and _reference_makes_up are the package's _canonical
# and _makes_up as they were before scalar multiples kept their canonical
# form and _canonical took one pass per ladder; only the names differ.


def reference_canonical(
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
        by_ladder.setdefault(t.ladder_id, []).append(t)

    out_on: List[Tuple[str, Tuple[Tuple[int, int], ...]]] = []
    out_tails: List[TailTerm] = []

    for lid in sorted(set(by_ladder) | set(on)):
        # What cancels goes before the walk down picks its first index: a
        # window value that summed to 0, and the terms of one start and
        # weight whose numerators over the ladder's denominator sum to 0
        # (different denominators keep them apart until here).
        window = on.get(lid, {})
        s = 1 + max(window, default=-1)
        if s and not window[s - 1]:
            s = 1 + max((k for k, v in window.items() if v), default=-1)
        # (start, weight, numerator) over one denominator for the ladder
        raw: List[Tuple[int, WeightFn, int]] = []
        den = 1
        terms = by_ladder.get(lid)
        if terms:
            den = math.lcm(*{t.den for t in terms})
            raw = [(t.start, t.weight, t.num * (den // t.den)) for t in terms]
            if len(terms) > 1 and len({t.start for t in terms}) < len(terms):
                merged: Dict[Tuple[int, WeightFn], int] = {}
                for start, w, n in raw:
                    merged[start, w] = merged.get((start, w), 0) + n
                raw = [(start, w, n) for (start, w), n in merged.items() if n]
            residue: Dict[WeightFn, int] = {}
            for start, w, n in raw:
                residue[w] = residue.get(w, 0) + n
                s = max(s, start)
            weights = sorted(
                (w for w, n in residue.items() if n), key=WeightFn.dominance_key
            )
            if weights:
                g = math.gcd(den, *(residue[w] for w in weights))
                d = den // g
                nums = [residue[w] // g for w in weights]
                while s > 0:
                    k = s - 1
                    # the value at k equals the tail formula
                    # sum(residue * w(k)) exactly when the window value at k
                    # makes up for the terms that have not started by k
                    if d > 1 and any(
                        n * w.mod(k, d) % d for w, n in zip(weights, nums)
                    ):
                        break
                    if not _reference_makes_up(window.get(k, 0) * den, raw, k):
                        break
                    s = k
                out_tails.extend(
                    TailTerm(lid, w, n, d, s) for w, n in zip(weights, nums)
                )
        lo = min((start for start, _, _ in raw), default=s)  # no term before lo
        vals = [(k, v) for k, v in sorted(window.items()) if k < min(lo, s) and v]
        for k in range(lo, s):
            v = window.get(k, 0) * den + sum(
                n * w.value(k) for start, w, n in raw if k >= start
            )
            if v:
                q, r = divmod(v, den)
                if r:
                    raise AssertionError("non-integer ladder value")
                vals.append((k, q))
        if vals:
            out_on.append((lid, tuple(vals)))

    return Element(
        domain=domain,
        off=tuple(
            sorted(
                ((x, v) for x, v in off.items() if v),
                key=lambda item: item[0].key(),
            )
        ),
        on=tuple(out_on),
        tails=tuple(out_tails),
    )


def _reference_makes_up(v: int, raw: Sequence[Tuple[int, WeightFn, int]], k: int) -> bool:
    """Whether v equals the sum of num * weight(k) over the (start, weight,
    num) terms not yet started at k.  Every weight is positive, so terms
    of one sign cannot sum to 0: a start far past k is never evaluated
    there.  Mixed signs are summed by weight first: the sum is 0 when they
    all cancel, and from `_settle` on it keeps its dominant term's sign."""
    late = [(w, n) for start, w, n in raw if start > k]
    if not v:
        if all(n > 0 for _, n in late) or all(n < 0 for _, n in late):
            return not late
        residue: Dict[WeightFn, int] = {}
        for w, n in late:
            residue[w] = residue.get(w, 0) + n
        terms = sorted(
            ((w, n) for w, n in residue.items() if n),
            key=lambda wn: wn[0].dominance_key(),
        )
        if not terms:
            return True
        if k >= _settle(terms, 0):
            return False
    return v == sum(n * w.value(k) for w, n in late)


def reference_combine(
    domain: Domain, coeffs: Sequence[int], elements: Sequence[Element]
) -> Element:
    """The sum of c * g over the (c, g) pairs: every prefix value and tail
    numerator scaled and summed by hand, then canonicalized once by
    reference_canonical, so that neither Domain.combine nor + and * take
    part."""
    off: Dict = {}
    on: Dict[str, Dict[int, int]] = {}
    tails: List[TailTerm] = []
    for c, g in zip(coeffs, elements):
        for x, v in g.off:
            off[x] = off.get(x, 0) + c * v
        for lid, kv in g.on:
            vals = on.setdefault(lid, {})
            for k, v in kv:
                vals[k] = vals.get(k, 0) + c * v
        tails += [
            TailTerm(t.ladder_id, t.weight, c * t.num, t.den, t.start)
            for t in g.tails
            if c
        ]
    return reference_canonical(domain, off, tails, on)
