"""Freeness certificates for ladder-function groups.

The builders in this module produce certificates: explicit pools of
generators with provenance, step-by-step extension data with torsion
witnesses, and a final basis with coefficients for every certified target.
The companion checker `smooth_chain_check` re-verifies a certificate using
nothing but exact evaluation and integer linear algebra, so a certificate
stands or falls independently of the construction that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ordlat.element import Element, WeightFn, _from_values
from ordlat.group import CoordinateSystem, Presentation, member_decompose
from ordlat.intlinalg import hnf_rows, lattice_basis, row_rank, solve_in_rowspace
from ordlat.ordinal import ZERO, Ordinal, compare, format_ordinal, from_int, omega_power
from ordlat.space import ClopenBlock


class ChainError(RuntimeError):
    """A chain construction could not complete on this presentation."""


class CompositionError(ChainError):
    """A block restriction left the presented group."""


# --- staircases ---------------------------------------------------------------


@dataclass(frozen=True)
class StaircaseAxiom:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class StaircaseReport:
    ladder_id: str
    names: Tuple[str, ...]
    axioms: Tuple[StaircaseAxiom, ...]
    d: Tuple[Optional[int], ...]

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.axioms)


@dataclass(frozen=True)
class StaircaseBase:
    ladder_id: str
    elements: Tuple[Tuple[str, Element], ...]
    d: Tuple[int, ...]


def _ladder_family(
    pres: Presentation, lid: str
) -> List[Tuple[str, Element]]:
    fam = [
        (n, g) for n, g in pres.generators if g.tails_on(lid)
    ]
    fam.sort(key=lambda item: item[1].mu(lid))
    return fam


def _residue_ratio(base: Element, other: Element, lid: str):
    """Positive rational t with t * residue(other) == residue(base), if any."""
    rb = base.residue_at(lid)
    ro = other.residue_at(lid)
    t: Optional[Fraction] = None
    for w in rb:
        b, o = rb[w], ro[w]
        if (b == 0) != (o == 0):
            return None
        if b == 0:
            continue
        ratio = b / o
        if ratio <= 0 or (t is not None and ratio != t):
            return None
        t = ratio
    return t


def verify_staircase(
    pres: Presentation,
    ladder_id: Optional[str] = None,
    family: Optional[Sequence[Tuple[str, Element]]] = None,
) -> StaircaseReport:
    """Check the staircase axioms for a ladder's generator family.

    1. every member is nonnegative and nonzero;
    2. least nonzero indices are strictly increasing along the family;
    3. each member's residue is a common positive integer divisor d_n of
       the base residue;
    4. d_n * b_n - b_0 is a finite correction supported strictly below the
       member's own least index;
    5. d_n divides n! (torsion stays factorially bounded).
    """
    lid = ladder_id or pres.domain.ladders[0].id
    pres.domain.ladder(lid)  # raises KeyError for an unknown id
    fam = list(family) if family is not None else _ladder_family(pres, lid)
    names = tuple(n for n, _ in fam)
    axioms: List[StaircaseAxiom] = []
    ds: List[Optional[int]] = []

    bad = [n for n, g in fam if g.is_zero or not g.is_nonneg()]
    axioms.append(
        StaircaseAxiom(
            "positive",
            not bad and bool(fam),
            "all members nonnegative and nonzero"
            if not bad and fam
            else f"violations: {bad or 'empty family'}",
        )
    )

    mus = [g.mu(lid) for _, g in fam]
    increasing = all(
        a is not None and b is not None and a < b
        for a, b in zip(mus, mus[1:])
    ) and (not mus or mus[0] is not None)
    axioms.append(
        StaircaseAxiom(
            "ascending",
            increasing,
            f"least indices {mus}",
        )
    )

    ok3, ok4, ok5 = True, True, True
    det3: List[str] = []
    det4: List[str] = []
    det5: List[str] = []
    if fam:
        base = fam[0][1]
        for n, (name, g) in enumerate(fam):
            t = _residue_ratio(base, g, lid)
            if t is None or t.denominator != 1 or t < 1:
                ok3 = False
                det3.append(f"{name}: residue ratio {t}")
                ds.append(None)
                continue
            d = int(t)
            ds.append(d)
            diff = d * g - base
            if diff.tails:
                ok3 = False
                det3.append(f"{name}: d*b - base keeps a tail")
                continue
            mu_n = g.mu(lid)
            L = pres.domain.ladder(lid)
            for x in diff.support().points:
                k = L.index_of(x)
                if k is None or (mu_n is not None and k >= mu_n):
                    ok4 = False
                    det4.append(f"{name}: correction at {format_ordinal(x)}")
            if math.factorial(n) % d:
                ok5 = False
                det5.append(f"{name}: d={d} does not divide {n}!")
    axioms.append(
        StaircaseAxiom(
            "commensurable",
            ok3,
            "; ".join(det3) or "integer residue ratios to the base",
        )
    )
    axioms.append(
        StaircaseAxiom(
            "low-difference",
            ok4,
            "; ".join(det4) or "corrections sit strictly below each least index",
        )
    )
    axioms.append(
        StaircaseAxiom(
            "factorial-bound",
            ok5,
            "; ".join(det5) or "each d_n divides n!",
        )
    )
    return StaircaseReport(
        ladder_id=lid, names=names, axioms=tuple(axioms), d=tuple(ds)
    )


def construct_staircase(
    pres: Presentation, ladder_id: Optional[str] = None
) -> StaircaseBase:
    """Flatten a generator family into a staircase by shaving low values.

    Follows the recursion: subtract each member's window below
    max(correction height, previous least index), which forces the least
    indices to ascend while keeping residues untouched.
    """
    lid = ladder_id or pres.domain.ladders[0].id
    L = pres.domain.ladder(lid)
    fam = _ladder_family(pres, lid)
    if not fam:
        raise ChainError(f"no generators carry a tail on ladder {lid}")
    out: List[Tuple[str, Element]] = []
    ds: List[int] = []
    base: Optional[Element] = None
    prev_mu = -1
    for n, (name, g) in enumerate(fam):
        if not g.is_nonneg():
            raise ChainError(f"{name} is not nonnegative")
        if n == 0:
            base = g
            ds.append(1)
            out.append((f"{name}~", g))
            prev_mu = g.mu(lid)
            continue
        t = _residue_ratio(base, g, lid)
        if t is None or t.denominator != 1 or t < 1:
            raise ChainError(f"{name}: residues are not commensurable")
        d = int(t)
        if math.factorial(n) % d:
            raise ChainError(f"{name}: divisor {d} exceeds the {n}! bound")
        diff = d * g - base
        if diff.tails:
            raise ChainError(f"{name}: residue ratio failed to cancel the tail")
        lam = 0
        for x in diff.support().points:
            k = L.index_of(x)
            if k is None:
                raise ChainError(
                    f"{name}: correction off the ladder at {format_ordinal(x)}"
                )
            lam = max(lam, k + 1)
        window = [L.point(k) for k in range(max(lam, prev_mu) + 1)]
        shaved = pres.domain.combine(
            [1] + [-g.value(x) for x in window],
            [g] + [pres.domain.e(x) for x in window],
        )
        ds.append(d)
        out.append((f"{name}~", shaved))
        prev_mu = shaved.mu(lid)
    base_report = verify_staircase(pres, lid, family=out)
    if not base_report.ok:
        raise ChainError("constructed staircase failed its own axioms")
    return StaircaseBase(ladder_id=lid, elements=tuple(out), d=tuple(ds))


# --- certificates --------------------------------------------------------------


@dataclass(frozen=True)
class PoolEntry:
    name: str
    element: Element
    provenance: Optional[Tuple[int, ...]]  # over presentation generators


@dataclass(frozen=True)
class TorsionWitness:
    extra: str
    bound: int
    over: int                 # pool entries visible to the witness
    coeffs: Tuple[int, ...]


@dataclass(frozen=True)
class ChainStep:
    label: str
    a_extension: Tuple[str, ...]
    b_extras: Tuple[str, ...]
    torsion_bound: int
    torsion_witnesses: Tuple[TorsionWitness, ...]
    quotient_over: int        # pool entries a quotient combo may use
    quotient_basis: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class TargetEntry:
    name: str
    element: Element
    coeffs: Tuple[int, ...]   # over the final basis


@dataclass(frozen=True)
class FreenessCertificate:
    presentation: str
    kind: str                 # successor | limit | composite
    pool: Tuple[PoolEntry, ...]
    steps: Tuple[ChainStep, ...]
    final_basis: Tuple[Tuple[int, ...], ...]  # combos over the pool
    targets: Tuple[TargetEntry, ...]
    rank: int

    def pool_elements(self) -> Tuple[Element, ...]:
        return tuple(p.element for p in self.pool)

    def basis_elements(self) -> Tuple[Element, ...]:
        pool = self.pool_elements()
        return tuple(pool[0].domain.combine(c, pool) for c in self.final_basis)


def free_from_bounded_torsion(
    a_basis: Sequence[Element],
    b_gens: Sequence[Element],
    n: int,
    modulo: Sequence[Element] = (),
) -> Tuple[Tuple[Element, Tuple[int, ...]], ...]:
    """Pull back a basis for the group generated by a free family and
    finitely many n-torsion extras, working modulo a subgroup.

    Every n * b must reduce into the span of a_basis modulo the subgroup;
    the Hermite form of the stacked coordinate rows then picks combinations
    of the originals whose classes are independent.  Returns (element,
    coefficients over a_basis + b_gens) pairs.
    """
    if n < 1:
        raise ValueError("torsion bound must be >= 1")
    origins = list(a_basis) + list(b_gens)
    if not origins:
        return ()
    domain = origins[0].domain
    m = len(a_basis)
    rows: List[List[int]] = []
    for i in range(m):
        rows.append([n if j == i else 0 for j in range(m)])
    reducer = list(a_basis) + list(modulo)
    for b in b_gens:
        dec = member_decompose(reducer, n * b)
        if dec is None:
            raise ValueError(
                "an extra does not reduce into the base modulo the subgroup"
            )
        rows.append(list(dec.coeffs[:m]))
    res = hnf_rows(rows)
    return tuple(
        (domain.combine(combo, origins), tuple(combo))
        for combo in res.u[: res.rank]
    )


# --- chain builders -------------------------------------------------------------


def _provenance(pres: Presentation, x: Element) -> Optional[Tuple[int, ...]]:
    dec = member_decompose(pres.elements, x)
    return dec.coeffs if dec is not None else None


def _append_step(
    pool: List[PoolEntry],
    steps: List[ChainStep],
    pres: Presentation,
    label: str,
    a_ext: Sequence[Tuple[str, Element, Optional[Tuple[int, ...]]]],
    extras: Sequence[Tuple[str, Element, Optional[Tuple[int, ...]]]],
    bound: int,
) -> None:
    prior = [p.element for p in pool]
    for name, el, prov in a_ext:
        pool.append(PoolEntry(name, el, prov))
    visible = [p.element for p in pool]
    witnesses = []
    for name, el, prov in extras:
        dec = member_decompose(visible, bound * el)
        if dec is None:
            raise ChainError(
                f"{label}: no witness that {bound} * {name} falls into the "
                "current span"
            )
        witnesses.append(
            TorsionWitness(
                extra=name, bound=bound, over=len(visible), coeffs=dec.coeffs
            )
        )
        pool.append(PoolEntry(name, el, prov))
    quotient = free_from_bounded_torsion(
        [el for _, el, _ in a_ext],
        [el for _, el, _ in extras],
        bound,
        modulo=prior,
    )
    offset = len(prior)
    width = len(pool)
    q_rows = []
    for _, combo in quotient:
        row = [0] * width
        for j, c in enumerate(combo):
            row[offset + j] = c
        q_rows.append(tuple(row))
    steps.append(
        ChainStep(
            label=label,
            a_extension=tuple(n for n, _, _ in a_ext),
            b_extras=tuple(n for n, _, _ in extras),
            torsion_bound=bound,
            torsion_witnesses=tuple(witnesses),
            quotient_over=width,
            quotient_basis=tuple(q_rows),
        )
    )


def _finalize(
    pres: Presentation,
    kind: str,
    pool: List[PoolEntry],
    steps: List[ChainStep],
    targets: Sequence[Tuple[str, Element]],
) -> FreenessCertificate:
    elements = [p.element for p in pool]
    cs = CoordinateSystem.for_elements(
        pres.domain, elements + [t for _, t in targets]
    )
    rows = [cs.coords(g) for g in elements]
    _, combos = lattice_basis(rows)
    basis_elements = [pres.domain.combine(c, elements) for c in combos]
    entries = []
    for name, t in targets:
        dec = member_decompose(basis_elements, t)
        if dec is None:
            raise ChainError(f"target {name} escapes the final basis")
        entries.append(TargetEntry(name=name, element=t, coeffs=dec.coeffs))
    return FreenessCertificate(
        presentation=pres.name,
        kind=kind,
        pool=tuple(pool),
        steps=tuple(steps),
        final_basis=tuple(tuple(c) for c in combos),
        targets=tuple(entries),
        rank=len(combos),
    )


def build_chain_successor(
    pres: Presentation,
    depth: int,
    ladder_id: Optional[str] = None,
    base_index: int = 0,
    name_prefix: str = "",
) -> FreenessCertificate:
    """Step-by-step freeness certificate along one ladder.

    Step r adjoins the spike at ladder index base_index + r plus any family
    leader arriving there; later family members arriving at r are bounded
    torsion modulo the previous steps, with witnesses at bound r!.
    """
    lid = ladder_id or pres.domain.ladders[0].id
    L = pres.domain.ladder(lid)
    report = verify_staircase(pres, lid)
    if report.ok:
        fam = _ladder_family(pres, lid)
    else:
        base = construct_staircase(pres, lid)
        fam = list(base.elements)
    local_mu: List[int] = []
    for name, g in fam:
        mu = g.mu(lid)
        if mu is None or mu < base_index:
            raise ChainError(f"{name} starts below the chain base")
        local_mu.append(mu - base_index)

    pool: List[PoolEntry] = []
    steps: List[ChainStep] = []
    for r in range(depth + 1):
        spike = pres.domain.e(L.point(base_index + r))
        a_ext = [(f"{name_prefix}e_{r}", spike, _provenance(pres, spike))]
        extras = []
        for k, (name, g) in enumerate(fam):
            if local_mu[k] != r:
                continue
            prov = _provenance(pres, g)
            if k == 0:
                a_ext.append((f"{name_prefix}{name}", g, prov))
            else:
                extras.append((f"{name_prefix}{name}", g, prov))
        _append_step(
            pool,
            steps,
            pres,
            f"{name_prefix}step {r}",
            a_ext,
            extras,
            math.factorial(r),
        )

    targets = [
        (f"{name_prefix}e_{r}", pres.domain.e(L.point(base_index + r)))
        for r in range(depth + 1)
    ]
    for k, (name, g) in enumerate(fam):
        if local_mu[k] <= depth:
            targets.append((f"{name_prefix}{name}", g))
    return _finalize(pres, "successor", pool, steps, targets)


def chain_torsion_bound(alphas: Sequence[int], delta: int) -> int:
    """Factorial torsion bound at rank delta: n! for the first level whose
    rank threshold reaches delta."""
    for n, a in enumerate(alphas):
        if delta <= a:
            return math.factorial(n)
    raise ValueError("rank exceeds the chain's thresholds")


def build_chain_limit(pres: Presentation, levels: int) -> FreenessCertificate:
    """Freeness certificate for a power ladder reaching a rank-limit space.

    Level n compares each weight's n-th family member against the family
    base: the combination n! * f_n - t * f_0 cancels the residue, and
    either lands above rank n to extend the chain or the level is padded
    with a spike at w^(n+1), the smallest point of the next rank.
    """
    if len(pres.domain.ladders) != 1 or pres.domain.ladders[0].kind != "power":
        raise ChainError("limit chains need a single power ladder")
    L = pres.domain.ladders[0]
    lid = L.id

    families: Dict[WeightFn, List[Tuple[str, Element]]] = {}
    for name, g in pres.generators:
        terms = g.tails_on(lid)
        if not terms:
            continue
        if len(terms) != 1:
            raise ChainError(f"{name}: limit chains take single-weight tails")
        families.setdefault(terms[0].weight, []).append((name, g))
    if not families:
        raise ChainError("no generator carries a tail")
    for w in families:
        families[w].sort(key=lambda item: item[1].mu(lid))

    weights = sorted(families, key=WeightFn.dominance_key)

    pool: List[PoolEntry] = []
    steps: List[ChainStep] = []
    for n in range(levels + 1):
        a_ext: List[Tuple[str, Element, Optional[Tuple[int, ...]]]] = []
        extras: List[Tuple[str, Element, Optional[Tuple[int, ...]]]] = []
        grew = False
        for w in weights:
            fam = families[w]
            if n >= len(fam):
                continue
            name, f_n = fam[n]
            if n == 0:
                a_ext.append((name, f_n, _provenance(pres, f_n)))
                continue
            r_n = f_n.residue_at(lid)[w]
            base = fam[0][1]
            r_0 = base.residue_at(lid)[w]
            t = math.factorial(n) * r_n / r_0
            if t.denominator != 1:
                raise ChainError(
                    f"{name}: level {n} residue does not clear at bound {n}!"
                )
            g = math.factorial(n) * f_n - int(t) * base
            if not g.is_zero:
                # the cancellation extends the chain only when it lands
                # strictly above the level's rank threshold
                beta = g.cb()
                if compare(beta, from_int(n)) > 0:
                    a_ext.append(
                        (f"g_{w.label()}_{n}", g, _provenance(pres, g))
                    )
                    grew = True
            extras.append((name, f_n, _provenance(pres, f_n)))
        if not grew:
            x = omega_power(from_int(n + 1))
            if pres.domain.space.contains(x):
                spike = pres.domain.e(x)
                a_ext.append(
                    (f"pad_{n}", spike, _provenance(pres, spike))
                )
        _append_step(
            pool, steps, pres, f"level {n}", a_ext, extras, math.factorial(n)
        )

    targets = []
    for w in weights:
        for i, (name, g) in enumerate(families[w]):
            if i <= levels:
                targets.append((name, g))
    return _finalize(pres, "limit", pool, steps, targets)


# --- composition over clopen blocks ---------------------------------------------


def restrict_element(f: Element, block: ClopenBlock) -> Element:
    """The function agreeing with f on the block and vanishing outside."""
    domain = f.domain
    off = {x: v for x, v in f.off if block.contains(x)}
    on: Dict[str, Dict[int, int]] = {}
    tails = []
    for L in domain.ladders:
        low = block.low
        if low is not None and compare(L.target, low) <= 0:
            continue  # ladder entirely below the block
        vals = on[L.id] = {}
        if block.contains(L.target):
            k_first = 0
            while not block.contains(L.point(k_first)):
                k_first += 1
            for t in f.tails_on(L.id):
                tails.append(replace(t, start=max(t.start, k_first)))
            for k in range(k_first, f.settle_index(L.id)):
                vals[k] = f._at(L.id, k)
        else:
            k = 0
            while compare(L.point(k), block.high) <= 0:
                x = L.point(k)
                if block.contains(x):
                    vals[k] = f._at(L.id, k)
                k += 1
    return _from_values(domain, off, on, tails)


def _blocks_disjoint(blocks: Sequence[ClopenBlock]) -> bool:
    ordered = sorted(blocks, key=lambda b: b.high.key())
    for a, b in zip(ordered, ordered[1:]):
        if b.low is None or compare(a.high, b.low) > 0:
            return False
    return True


def multi_prime_compose(
    pres: Presentation, blocks: Sequence[ClopenBlock]
) -> FreenessCertificate:
    """Split a presentation over disjoint clopen blocks, certify each block
    with its own chain, and reassemble a global certificate.

    Every generator restriction must stay inside the presented group (its
    provenance is recomputed over the original generators); the part of
    each generator outside all blocks must be a finite correction, which is
    certified directly as an integer lattice.
    """
    domain = pres.domain
    if not blocks:
        raise CompositionError("need at least one block")
    if not _blocks_disjoint(blocks):
        raise CompositionError("blocks overlap")
    for L in domain.ladders:
        if sum(1 for b in blocks if b.contains(L.target)) != 1:
            raise CompositionError(
                f"target of ladder {L.id} must lie in exactly one block"
            )

    restrictions: List[List[Element]] = []
    for bi, block in enumerate(blocks):
        col = []
        for name, g in pres.generators:
            r = restrict_element(g, block)
            if not r.is_zero and member_decompose(pres.elements, r) is None:
                raise CompositionError(
                    f"restriction of {name} to {block} leaves the group"
                )
            col.append(r)
        restrictions.append(col)

    residues = []
    for i, (name, g) in enumerate(pres.generators):
        parts = [g] + [col[i] for col in restrictions]
        rest = domain.combine([1] + [-1] * len(restrictions), parts)
        if rest.tails:
            raise CompositionError(
                f"outside the blocks {name} keeps a tail"
            )
        residues.append(rest)

    pool: List[PoolEntry] = []
    steps: List[ChainStep] = []

    nonzero = [r for r in residues if not r.is_zero]
    if nonzero:
        cs = CoordinateSystem.for_elements(domain, nonzero)
        _, combos = lattice_basis([cs.coords(r) for r in nonzero])
        a_ext = []
        for i, combo in enumerate(combos):
            acc = domain.combine(combo, nonzero)
            a_ext.append((f"res_{i}", acc, _provenance(pres, acc)))
        _append_step(pool, steps, pres, "residual", a_ext, [], 1)

    for bi, block in enumerate(blocks):
        L = next(M for M in domain.ladders if block.contains(M.target))
        k_first = 0
        while not block.contains(L.point(k_first)):
            k_first += 1
        sub_gens = tuple(
            (name, restrictions[bi][i])
            for i, (name, g) in enumerate(pres.generators)
            if not restrictions[bi][i].is_zero
        )
        if not sub_gens:
            continue
        sub = Presentation(
            f"{pres.name}@{bi}", domain, sub_gens
        )
        fam = _ladder_family(sub, L.id)
        depth = 0
        for _, g in fam:
            mu = g.mu(L.id)
            depth = max(depth, (mu or 0) - k_first)
        sub_cert = build_chain_successor(
            sub,
            depth,
            ladder_id=L.id,
            base_index=k_first,
            name_prefix=f"b{bi}.",
        )
        offset = len(pool)
        for entry in sub_cert.pool:
            prov = _provenance(pres, entry.element)
            pool.append(replace(entry, provenance=prov))
        for step in sub_cert.steps:
            witnesses = tuple(
                replace(w, over=w.over + offset, coeffs=(0,) * offset + w.coeffs)
                for w in step.torsion_witnesses
            )
            q_rows = tuple(
                (0,) * offset + row for row in step.quotient_basis
            )
            steps.append(
                replace(
                    step,
                    torsion_witnesses=witnesses,
                    quotient_over=step.quotient_over + offset,
                    quotient_basis=q_rows,
                )
            )

    targets = [(name, g) for name, g in pres.generators]
    return _finalize(pres, "composite", pool, steps, targets)


def _auto_blocks(pres: Presentation) -> List[ClopenBlock]:
    """One block per ladder: from the previous target up to its own."""
    targets = sorted((L.target for L in pres.domain.ladders), key=Ordinal.key)
    return [ClopenBlock(low, t) for low, t in zip([ZERO] + targets, targets)]


def certify(
    pres: Presentation, mode: str = "auto", depth: Optional[int] = None
) -> FreenessCertificate:
    """Build a freeness certificate with the chain that fits the domain.

    mode "auto" composes over one block per ladder when there are several
    ladders, builds a limit chain on a power ladder and a successor chain
    otherwise.  depth defaults to the highest least index in the ladder's
    family (successor) or one less than the family's size (limit levels).
    """
    ladders = pres.domain.ladders
    if not ladders:
        raise ChainError("a chain needs a ladder")
    if mode == "auto":
        mode = (
            "compose" if len(ladders) > 1
            else "limit" if ladders[0].kind == "power"
            else "successor"
        )
    if mode == "compose":
        return multi_prime_compose(pres, _auto_blocks(pres))
    lid = ladders[0].id
    family = [g for _, g in pres.generators if g.tails_on(lid)]
    if mode == "limit":
        return build_chain_limit(pres, len(family) - 1 if depth is None else depth)
    if mode == "successor":
        if depth is None:
            depth = max((g.mu(lid) or 0 for g in family), default=0)
        return build_chain_successor(pres, depth)
    raise ValueError(f"unknown chain mode {mode!r}")


# --- the independent checker -----------------------------------------------------


@dataclass(frozen=True)
class CheckFailure:
    location: str
    message: str


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failures: Tuple[CheckFailure, ...]

    def explain(self) -> str:
        if self.ok:
            return "certificate verified"
        return "\n".join(f"{f.location}: {f.message}" for f in self.failures)


def smooth_chain_check(
    pres: Presentation, cert: FreenessCertificate
) -> CheckReport:
    """Re-verify a freeness certificate from scratch.

    Uses only exact evaluation and integer row reduction: provenance
    re-sums, per-step independence ranks, torsion witness re-sums, final
    basis rank, and target re-sums.  No chain-building logic is trusted.
    """
    failures: List[CheckFailure] = []
    domain = pres.domain
    pool = cert.pool

    names = [p.name for p in pool]
    if len(set(names)) != len(names):
        failures.append(CheckFailure("pool", "duplicate pool names"))

    for entry in pool:
        if entry.provenance is None:
            continue
        if len(entry.provenance) != len(pres.generators):
            failures.append(
                CheckFailure(f"pool:{entry.name}", "provenance length mismatch")
            )
            continue
        if domain.combine(entry.provenance, pres.elements) != entry.element:
            failures.append(
                CheckFailure(
                    f"pool:{entry.name}",
                    "provenance does not re-sum to the pool element",
                )
            )

    elements = [p.element for p in pool]
    # The window comes from the pool alone, so a target cannot widen it.
    # It stays faithful: coords only ever sees pool elements and their
    # combinations, and a combination's prefix lies inside the pool window
    # (its on-ladder prefix sits below the largest pool start, since a
    # canonical element has no prefix point at or past its own start, and
    # its other prefix points are pool prefix points).  Targets are checked
    # by re-summing alone.
    cs = CoordinateSystem.for_elements(domain, elements)
    rows = [cs.coords(g) for g in elements]

    cursor = 0
    for step in cert.steps:
        expected = list(step.a_extension) + list(step.b_extras)
        got = names[cursor : cursor + len(expected)]
        if got != expected:
            failures.append(
                CheckFailure(
                    f"step:{step.label}",
                    f"pool order mismatch: expected {expected}, found {got}",
                )
            )
            cursor += len(expected)
            continue
        prior = rows[:cursor]
        ext_rows = rows[cursor : cursor + len(step.a_extension)]
        base_rank = row_rank(prior)
        if row_rank(prior + ext_rows) != base_rank + len(ext_rows):
            failures.append(
                CheckFailure(
                    f"step:{step.label}",
                    "extension is dependent modulo the previous steps",
                )
            )
        if step.torsion_bound < 1:
            failures.append(
                CheckFailure(f"step:{step.label}", "torsion bound below 1")
            )
        visible = cursor + len(step.a_extension)
        witnessed = set()
        for w in step.torsion_witnesses:
            if w.over != visible or len(w.coeffs) != visible:
                failures.append(
                    CheckFailure(
                        f"step:{step.label}",
                        f"witness for {w.extra} uses the wrong pool prefix",
                    )
                )
                continue
            if w.bound != step.torsion_bound:
                failures.append(
                    CheckFailure(
                        f"step:{step.label}",
                        f"witness bound {w.bound} != step bound",
                    )
                )
            try:
                idx = names.index(w.extra)
            except ValueError:
                failures.append(
                    CheckFailure(
                        f"step:{step.label}", f"unknown extra {w.extra}"
                    )
                )
                continue
            acc = domain.combine(w.coeffs, elements[:visible])
            if acc != w.bound * elements[idx]:
                failures.append(
                    CheckFailure(
                        f"step:{step.label}",
                        f"witness for {w.extra} does not re-sum",
                    )
                )
            witnessed.add(w.extra)
        missing = set(step.b_extras) - witnessed
        if missing:
            failures.append(
                CheckFailure(
                    f"step:{step.label}",
                    f"extras without witnesses: {sorted(missing)}",
                )
            )
        width = cursor + len(expected)
        if step.quotient_over != width:
            failures.append(
                CheckFailure(
                    f"step:{step.label}", "quotient combos use the wrong prefix"
                )
            )
        q_rows = []
        for combo in step.quotient_basis:
            if len(combo) != step.quotient_over:
                failures.append(
                    CheckFailure(
                        f"step:{step.label}", "quotient combo length mismatch"
                    )
                )
                continue
            acc = domain.combine(combo, elements[: len(combo)])
            q_rows.append(cs.coords(acc))
        if q_rows and row_rank(prior + q_rows) != base_rank + len(q_rows):
            failures.append(
                CheckFailure(
                    f"step:{step.label}",
                    "quotient basis is dependent modulo the previous steps",
                )
            )
        cursor += len(expected)
    if cursor != len(pool):
        failures.append(
            CheckFailure("pool", "steps do not account for every pool entry")
        )

    basis_rows = []
    basis_elements = []
    for i, combo in enumerate(cert.final_basis):
        if len(combo) != len(pool):
            failures.append(
                CheckFailure(f"basis:{i}", "combo length mismatch")
            )
            continue
        acc = domain.combine(combo, elements)
        basis_elements.append(acc)
        basis_rows.append(cs.coords(acc))
    if row_rank(basis_rows) != len(basis_rows):
        failures.append(CheckFailure("basis", "final basis is dependent"))
    if cert.rank != len(cert.final_basis):
        failures.append(
            CheckFailure("basis", "declared rank differs from basis size")
        )
    for i, row in enumerate(rows):
        if solve_in_rowspace(basis_rows, row) is None:
            failures.append(
                CheckFailure(
                    f"pool:{pool[i].name}",
                    "pool element escapes the final basis",
                )
            )

    for t in cert.targets:
        if len(t.coeffs) != len(basis_elements):
            failures.append(
                CheckFailure(f"target:{t.name}", "coefficient length mismatch")
            )
            continue
        if domain.combine(t.coeffs, basis_elements) != t.element:
            failures.append(
                CheckFailure(
                    f"target:{t.name}", "coefficients do not re-sum to the target"
                )
            )

    return CheckReport(ok=not failures, failures=tuple(failures))
