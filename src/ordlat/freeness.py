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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ordlat.element import Element, WeightFn, _from_values
from ordlat.group import CoordinateSystem, Presentation, Span
from ordlat.intlinalg import Row, combine_rows, hnf_rows, project
from ordlat.ordinal import ZERO, Ordinal, format_ordinal, from_int
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


def _ladder_family(
    pres: Presentation, lid: str
) -> List[Tuple[str, Element]]:
    fam = [
        (n, g) for n, g in pres.generators if g.tails_on(lid)
    ]
    fam.sort(key=lambda item: item[1].mu(lid))
    return fam


def _divisor(base: Element, other: Element, lid: str) -> Optional[int]:
    """The integer d >= 1 with d * residue(other) == residue(base), if any.

    Each side's terms share one denominator, so the ratio is the same on
    every weight exactly when the numerators are proportional.  Then
    d * other - base keeps no tail term.
    """
    bt, ot = base.tails_on(lid), other.tails_on(lid)
    if not bt or [t.weight for t in bt] != [t.weight for t in ot]:
        return None
    b0, o0 = bt[0].num, ot[0].num
    if any(b.num * o0 != o.num * b0 for b, o in zip(bt, ot)):
        return None
    d, rem = divmod(b0 * ot[0].den, o0 * bt[0].den)
    return d if d >= 1 and not rem else None


def _ladder_or_first(pres: Presentation, ladder_id: Optional[str]) -> str:
    if ladder_id:
        return ladder_id
    if not pres.domain.ladders:
        raise ChainError("a staircase needs a ladder")
    return pres.domain.ladders[0].id


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
    lid = _ladder_or_first(pres, ladder_id)
    L = pres.domain.ladder(lid)  # raises KeyError for an unknown id
    fam = list(family) if family is not None else _ladder_family(pres, lid)
    bad = [n for n, g in fam if g.is_zero or not g.is_nonneg()]
    mus = [g.mu(lid) for _, g in fam]
    ascending = None not in mus and all(a < b for a, b in zip(mus, mus[1:]))
    ds = [_divisor(fam[0][1], g, lid) for _, g in fam]
    ratios, corrections, bounds = [], [], []
    for n, ((name, g), d, mu) in enumerate(zip(fam, ds, mus)):
        if d is None:
            ratios.append(f"{name}: residue ratio None")
            continue
        for x in sorted((d * g - fam[0][1]).support().points, key=Ordinal.key):
            k = L.index_of(x)
            if k is None or (mu is not None and k >= mu):
                corrections.append(f"{name}: correction at {format_ordinal(x)}")
        if math.factorial(n) % d:
            bounds.append(f"{name}: d={d} does not divide {n}!")
    # each axiom: its detail when it holds, and its violations
    table = (
        ("positive", "all members nonnegative and nonzero",
         [f"violations: {bad or 'empty family'}"] if bad or not fam else []),
        ("ascending", f"least indices {mus}",
         [] if ascending else [f"least indices {mus}"]),
        ("commensurable", "integer residue ratios to the base", ratios),
        ("low-difference", "corrections sit strictly below each least index",
         corrections),
        ("factorial-bound", "each d_n divides n!", bounds),
    )
    return StaircaseReport(
        ladder_id=lid,
        names=tuple(n for n, _ in fam),
        axioms=tuple(
            StaircaseAxiom(name, not v, "; ".join(v) or holds)
            for name, holds, v in table
        ),
        d=tuple(ds),
    )


def construct_staircase(
    pres: Presentation, ladder_id: Optional[str] = None
) -> Tuple[Tuple[str, Element], ...]:
    """Flatten a generator family into a staircase by shaving low values.

    Follows the recursion: subtract each member's values up to
    max(correction height, previous least index), which forces the least
    indices to ascend while keeping residues untouched.  The base has no
    correction and no previous member, so it is kept as it is.
    """
    lid = _ladder_or_first(pres, ladder_id)
    L = pres.domain.ladder(lid)
    fam = _ladder_family(pres, lid)
    if not fam:
        raise ChainError(f"no generators carry a tail on ladder {lid}")
    base = fam[0][1]
    out: List[Tuple[str, Element]] = []
    top = -1  # shave up to here: the previous least index, or past a correction
    for n, (name, g) in enumerate(fam):
        if not g.is_nonneg():
            raise ChainError(f"{name} is not nonnegative")
        d = _divisor(base, g, lid)
        if d is None:
            raise ChainError(f"{name}: residues are not commensurable")
        if math.factorial(n) % d:
            raise ChainError(f"{name}: divisor {d} exceeds the {n}! bound")
        for x in sorted((d * g - base).support().points, key=Ordinal.key):
            k = L.index_of(x)
            if k is None:
                raise ChainError(
                    f"{name}: correction off the ladder at {format_ordinal(x)}"
                )
            top = max(top, k + 1)
        window = range(top + 1)
        shaved = pres.domain.combine(
            [1] + [-g._at(lid, k) for k in window],
            [g] + [pres.domain.e(L.point(k)) for k in window],
        )
        out.append((f"{name}~", shaved))
        top = shaved.mu(lid)
    if not verify_staircase(pres, lid, family=out).ok:
        raise ChainError("constructed staircase failed its own axioms")
    return tuple(out)


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

    def basis_elements(self) -> Tuple[Element, ...]:
        pool = [p.element for p in self.pool]
        return tuple(pool[0].domain.combine(c, pool) for c in self.final_basis)


def _quotient_combos(
    n: int, m: int, b_rows: Sequence[Sequence[int]]
) -> Tuple[Tuple[int, ...], ...]:
    """Combinations of a free family of m and the extras whose classes are
    independent: the Hermite transform of n * I (m x m) stacked over the
    coefficients of each n * b on the family."""
    rows = [[n if j == i else 0 for j in range(m)] for i in range(m)]
    res = hnf_rows(rows + list(b_rows))
    return res.u[: res.rank]


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
    coefficients over a_basis + b_gens) pairs.  A chain step derives the
    same rows from its torsion witnesses.
    """
    if n < 1:
        raise ValueError("torsion bound must be >= 1")
    origins = list(a_basis) + list(b_gens)
    if not origins:
        return ()
    domain = origins[0].domain
    m = len(a_basis)
    reducer = Span(domain, list(a_basis) + list(modulo))
    b_rows = []
    for b in b_gens:
        dec = reducer.decompose(n * b)
        if dec is None:
            raise ValueError(
                "an extra does not reduce into the base modulo the subgroup"
            )
        b_rows.append(dec.coeffs[:m])
    return tuple(
        (domain.combine(combo, origins), combo)
        for combo in _quotient_combos(n, m, b_rows)
    )


# --- chain builders -------------------------------------------------------------


# one step of a chain plan: the arguments of _Chain.step
Named = Tuple[str, Element]
Step = Tuple[str, List[Named], List[Named], int, Optional[Named]]


class _Chain:
    """A certificate under construction: its pool and its steps.

    An entry gets its provenance over the presentation's generators when it
    joins the pool.  span: the whole pool, one Span that starts empty and
    is extended by each step's entries rather than factored again; finish
    reads the final basis off its form.  Its coordinate window is fixed
    at the start from window, every element the steps may adjoin, so the
    form only grows by rows.  Every step sees the whole pool, so
    composition builds each block's chain straight into the composite
    pool, and a block's extension must be free modulo every earlier entry.
    """

    def __init__(
        self, pres: Presentation, kind: str, window: Sequence[Element]
    ) -> None:
        self.pres = pres
        self.kind = kind
        self.pool: List[PoolEntry] = []
        self.steps: List[ChainStep] = []
        self.span = Span(pres.domain, window=window)
        # an independent family writes its i-th generator only as e_i
        gens = pres.elements if pres.span.unique else ()
        self._units = {g: i for i, g in enumerate(gens)}

    def _join(self, name: str, el: Element) -> None:
        i = self._units.get(el) if self._units else None
        if i is not None:
            prov = tuple(int(j == i) for j in range(len(self._units)))
        else:
            dec = self.pres.span.decompose(el)
            prov = dec.coeffs if dec is not None else None
        self.pool.append(PoolEntry(name, el, prov))

    def step(
        self,
        label: str,
        a_ext: Sequence[Tuple[str, Element]],
        extras: Sequence[Tuple[str, Element]],
        bound: int,
        pad: Optional[Tuple[str, Element]] = None,
    ) -> None:
        """Adjoin the free family a_ext and the extras, each of which falls
        into the span of the visible pool when multiplied by bound.  pad
        joins a_ext only if it raises the rank; otherwise it is torsion
        modulo the pool and is left out.

        The chain's one grown form takes the entries that joined since
        the last step and a_ext, and tries pad as a row it does not keep.
        Its rank and its solves give the witnesses, and through their
        coefficients on a_ext the quotient rows, the same rows
        free_from_bounded_torsion derives modulo the earlier entries.
        Raises ChainError when a_ext does not raise the rank by its length,
        that is, when it is not free modulo the pool.
        """
        offset = len(self.pool)
        visible = self.span
        before = visible.rank
        unread = self.pool[len(visible.gens) :]
        visible.extend([p.element for p in unread] + [el for _, el in a_ext])
        if (
            pad
            and visible.rank == before + len(a_ext)
            and visible.raises_rank(pad[1])
        ):
            visible.extend([pad[1]])
            a_ext = list(a_ext) + [pad]
        if visible.rank != before + len(a_ext):
            raise ChainError(
                f"{label}: the extension raises the rank by "
                f"{visible.rank - before}, not {len(a_ext)}"
            )
        for name, el in a_ext:
            self._join(name, el)
        over = len(self.pool)
        witnesses = []
        b_rows = []
        for name, el in extras:
            dec = visible.decompose(bound * el)
            if dec is None:
                raise ChainError(
                    f"{label}: no witness that {bound} * {name} falls into the "
                    "current span"
                )
            witnesses.append(
                TorsionWitness(extra=name, bound=bound, over=over, coeffs=dec.coeffs)
            )
            b_rows.append(dec.coeffs[offset:])
            self._join(name, el)
        combos = _quotient_combos(bound, len(a_ext), b_rows)
        self.steps.append(
            ChainStep(
                label=label,
                a_extension=tuple(n for n, _ in a_ext),
                b_extras=tuple(n for n, _ in extras),
                torsion_bound=bound,
                torsion_witnesses=tuple(witnesses),
                quotient_over=len(self.pool),
                quotient_basis=tuple((0,) * offset + c for c in combos),
            )
        )

    def finish(self, targets: Sequence[Tuple[str, Element]]) -> FreenessCertificate:
        """A lattice basis of the pool and each target's coefficients on it.

        The chain's span takes the entries that joined after the last
        step, and then holds the whole pool.  The basis is u[:rank] of its
        form: its coordinate rows are the nonzero rows of h, which are
        independent, so back-substitution over them gives a target's only
        possible coefficients, and a re-sum over the pool decides.  A
        target that is a pool element needs no re-sum, and its row is
        one of the span's rows: coords is one-to-one on the pool's
        combinations (see CoordinateSystem).
        """
        domain = self.pres.domain
        elements = [p.element for p in self.pool]
        at = {id(e): i for i, e in enumerate(elements)}  # the pool keeps them
        span = self.span
        span.extend(elements[len(span.gens) :])
        form = span.form
        combos = tuple(tuple(r) for r in form.u[: form.rank])
        entries = []
        for name, t in targets:
            i = at.get(id(t))
            try:
                row = span.cs.coords(t) if i is None else span.rows[i]
                coeffs = form.back_substitute(row)
            except ValueError:
                coeffs = None
            if coeffs is None or (
                i is None
                and domain.combine(
                    combine_rows(coeffs, combos, len(elements)), elements
                ) != t
            ):
                raise ChainError(f"target {name} escapes the final basis")
            entries.append(TargetEntry(name=name, element=t, coeffs=coeffs))
        return FreenessCertificate(
            presentation=self.pres.name,
            kind=self.kind,
            pool=tuple(self.pool),
            steps=tuple(self.steps),
            final_basis=combos,
            targets=tuple(entries),
            rank=len(combos),
        )


def _run(
    pres: Presentation, kind: str, steps: Sequence[Step], targets: Sequence[Named]
) -> FreenessCertificate:
    """Run a chain plan and finish it on targets.  The chain's window
    takes the plan's elements in first-need order: per step a_ext, then
    pad, which is tried even when it is left out, then the extras."""
    window = [
        el
        for _, a_ext, extras, _, pad in steps
        for _, el in [*a_ext, *([pad] if pad else []), *extras]
    ]
    chain = _Chain(pres, kind, window)
    for step in steps:
        chain.step(*step)
    return chain.finish(targets)


def _successor_steps(
    family: Presentation,
    depth: Optional[int] = None,
    ladder_id: Optional[str] = None,
    first: int = 0,
    prefix: str = "",
) -> Tuple[List[Step], List[Named]]:
    """The steps of a successor chain along one ladder, and its targets:
    the spikes and the family members it reaches.

    Step r adjoins the spike at ladder index first + r plus any family
    leader arriving there; later family members arriving at r are bounded
    torsion modulo the previous steps, with witnesses at bound r!.  The
    family is the ladder's staircase in `family`, constructed if needed;
    depth None reaches its highest least index.
    """
    report = verify_staircase(family, ladder_id)
    lid = report.ladder_id
    if report.ok:
        fam = _ladder_family(family, lid)
    else:
        fam = construct_staircase(family, lid)
    local_mu: List[int] = []
    for name, g in fam:
        mu = g.mu(lid)
        if mu is None or mu < first:
            raise ChainError(f"{name} starts below the chain base")
        local_mu.append(mu - first)
    if depth is None:
        depth = max(local_mu)

    domain = family.domain
    L = domain.ladder(lid)
    spikes = [
        (f"{prefix}e_{r}", domain.e(L.point(first + r))) for r in range(depth + 1)
    ]
    steps: List[Step] = []
    for r, spike in enumerate(spikes):
        a_ext = [spike]
        extras = []
        for k, (name, g) in enumerate(fam):
            if local_mu[k] == r:
                (a_ext if k == 0 else extras).append((prefix + name, g))
        steps.append((f"{prefix}step {r}", a_ext, extras, math.factorial(r), None))
    return steps, spikes + [
        (prefix + name, g) for k, (name, g) in enumerate(fam) if local_mu[k] <= depth
    ]


def build_chain_successor(
    pres: Presentation, depth: Optional[int] = None
) -> FreenessCertificate:
    """Successor-chain certificate along the first ladder (`_successor_steps`)."""
    return _run(pres, "successor", *_successor_steps(pres, depth))


def chain_torsion_bound(alphas: Sequence[int], delta: int) -> int:
    """Factorial torsion bound at rank delta: n! for the first level whose
    rank threshold reaches delta."""
    for n, a in enumerate(alphas):
        if delta <= a:
            return math.factorial(n)
    raise ValueError("rank exceeds the chain's thresholds")


def build_chain_limit(
    pres: Presentation, levels: Optional[int] = None
) -> FreenessCertificate:
    """Freeness certificate for a power ladder reaching a rank-limit space.

    Level n compares each weight's n-th family member against the family
    base: the combination n! * f_n - t * f_0 cancels the residue, and
    either lands above rank n to extend the chain or the level is padded
    with a spike at the smallest point of rank n + 1, where that spike
    raises the rank.  levels None runs one level per family member: the
    family's size less one.
    """
    if len(pres.domain.ladders) != 1 or pres.domain.ladders[0].kind != "power":
        raise ChainError("limit chains need a single power ladder")
    lid = pres.domain.ladders[0].id
    members = _ladder_family(pres, lid)
    families: Dict[WeightFn, List[Tuple[str, Element]]] = {}
    for name, g in members:
        terms = g.tails_on(lid)
        if len(terms) != 1:
            raise ChainError(f"{name}: limit chains take single-weight tails")
        families.setdefault(terms[0].weight, []).append((name, g))
    if not families:
        raise ChainError("no generator carries a tail")
    if levels is None:
        levels = len(members) - 1
    weights = sorted(families, key=WeightFn.dominance_key)

    steps: List[Step] = []
    for n in range(levels + 1):
        a_ext: List[Tuple[str, Element]] = []
        extras: List[Tuple[str, Element]] = []
        grew = False
        for w in weights:
            fam = families[w]
            if n >= len(fam):
                continue
            name, f_n = fam[n]
            if n == 0:
                a_ext.append((name, f_n))
                continue
            base = fam[0][1]
            (r_n,), (r_0,) = f_n.tails_on(lid), base.tails_on(lid)
            t, rem = divmod(
                math.factorial(n) * r_n.num * r_0.den, r_n.den * r_0.num
            )
            if rem:
                raise ChainError(
                    f"{name}: level {n} residue does not clear at bound {n}!"
                )
            g = math.factorial(n) * f_n - t * base
            if not g.is_zero:
                # the cancellation extends the chain only when it lands
                # strictly above the level's rank threshold
                beta = g.cb()
                if beta > from_int(n):
                    a_ext.append((f"g_{w.label()}_{n}", g))
                    grew = True
            extras.append((name, f_n))
        pad = None
        if not grew:
            x = pres.domain.space.smallest_point_of_rank(from_int(n + 1))
            if x is not None:
                pad = (f"pad_{n}", pres.domain.e(x))
        steps.append((f"level {n}", a_ext, extras, math.factorial(n), pad))

    return _run(
        pres,
        "limit",
        steps,
        [m for w in weights for i, m in enumerate(families[w]) if i <= levels],
    )


# --- composition over clopen blocks ---------------------------------------------


def restrict_element(f: Element, block: ClopenBlock) -> Element:
    """The function agreeing with f on the block and vanishing outside."""
    domain = f.domain
    off = {x: v for x, v in f.off if block.contains(x)}
    on: Dict[str, Dict[int, int]] = {}
    tails = []
    for L in domain.ladders:
        low = block.low
        if low is not None and L.target <= low:
            continue  # ladder entirely below the block
        vals = on[L.id] = {}
        if block.contains(L.target):
            k_first = 0
            while not block.contains(L.point(k_first)):
                k_first += 1
            for t in f.tails_on(L.id):
                tails.append(t._replace(start=max(t.start, k_first)))
            for k in range(k_first, f.settle_index(L.id)):
                vals[k] = f._at(L.id, k)
        else:
            k = 0
            while L.point(k) <= block.high:
                x = L.point(k)
                if block.contains(x):
                    vals[k] = f._at(L.id, k)
                k += 1
    return _from_values(domain, off, on, tails)


def multi_prime_compose(pres: Presentation) -> FreenessCertificate:
    """Split a presentation over one clopen block per ladder and build one
    composite certificate: a residual step, then each block's successor
    steps, joined into one plan.

    The blocks follow the ladders in target order: each runs from the
    previous ladder's target (exclusive; 0 for the first) up to its own.
    Every generator restriction must stay inside the presented group (it
    must decompose over the original generators).  Each block chain sees
    its restrictions' ladder values only; what is left of each generator,
    outside all blocks or off the ladders, must be a finite correction,
    which is certified directly as an integer lattice.
    """
    domain = pres.domain
    ladders = sorted(domain.ladders, key=lambda L: L.target)
    lows = [ZERO] + [L.target for L in ladders]
    blocks = [ClopenBlock(low, L.target) for low, L in zip(lows, ladders)]

    restrictions: List[List[Element]] = []
    for block in blocks:
        col = []
        for name, g in pres.generators:
            r = restrict_element(g, block)
            if not r.is_zero and pres.span.decompose(r) is None:
                raise CompositionError(
                    f"restriction of {name} to {block} leaves the group"
                )
            # no block chain adjoins a point off the ladders, so those
            # values are left to the residual step
            spikes = [domain.e(x) for x, _ in r.off]
            col.append(domain.combine([1] + [-v for _, v in r.off], [r] + spikes))
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

    steps: List[Step] = []
    nonzero = [r for r in residues if not r.is_zero]
    if nonzero:
        form = Span(domain, nonzero).form
        a_ext = [
            (f"res_{i}", domain.combine(combo, nonzero))
            for i, combo in enumerate(form.u[: form.rank])
        ]
        steps.append(("residual", a_ext, [], 1, None))

    for bi, (L, block) in enumerate(zip(ladders, blocks)):
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
        steps += _successor_steps(sub, None, L.id, k_first, f"b{bi}.")[0]

    return _run(pres, "composite", steps, pres.generators)


def certify(
    pres: Presentation, mode: str = "auto", depth: Optional[int] = None
) -> FreenessCertificate:
    """Build a freeness certificate with the chain that fits the domain.

    mode "auto" composes over one block per ladder when there are several
    ladders, builds a limit chain on a power ladder and a successor chain
    otherwise.  depth None leaves the builder its own default;
    composition takes no depth.
    """
    if depth is not None and depth < 0:
        raise ValueError("chain depth must be >= 0")
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
        return multi_prime_compose(pres)
    if mode == "successor":
        return build_chain_successor(pres, depth)
    if mode == "limit":
        return build_chain_limit(pres, depth)
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
    re-sums, per-step independence ranks, one quotient row per extension
    element and the quotient's index, torsion witness re-sums, final basis
    rank, and target re-sums.  No chain-building logic is trusted.
    When a provenance fails, the check stops after the provenance re-sums.

    Each pool element's coordinate row is read once.  coords is linear, so
    the row of a combination of pool elements is the same combination of
    their rows: quotient and final-basis rows come from row arithmetic
    alone.  Provenance, witnesses and targets are re-sums of elements.
    """
    failures: List[CheckFailure] = []

    def fail(location: str, message: str) -> None:
        failures.append(CheckFailure(location, message))

    domain = pres.domain
    pool = cert.pool

    names = [p.name for p in pool]
    if len(set(names)) != len(names):
        fail("pool", "duplicate pool names")

    provenance_fails = False
    for entry in pool:
        if entry.provenance is None:
            continue
        if len(entry.provenance) != len(pres.generators):
            fail(f"pool:{entry.name}", "provenance length mismatch")
            provenance_fails = True
            continue
        if domain.combine(entry.provenance, pres.elements) != entry.element:
            fail(
                f"pool:{entry.name}",
                "provenance does not re-sum to the pool element",
            )
            provenance_fails = True
    if provenance_fails:
        # The certificate has failed, and a pool element that is not the
        # combination its provenance names may be anything: with a tail
        # from index 4 000, the window alone would hold 4 000 columns and
        # every combination of it 4 000 factorial-sized values.  Every
        # later check combines pool elements, so the check ends here.
        return CheckReport(ok=False, failures=tuple(failures))

    elements = [p.element for p in pool]
    # The window comes from the pool alone, so a target cannot widen it.
    # Each pool element is now a checked combination of the generators or
    # has no provenance.  coords reads pool elements only; the rows of
    # their combinations are the same combinations of their rows, which
    # the window keeps faithful (see CoordinateSystem).  Targets are
    # checked by re-summing alone.
    cs = CoordinateSystem.for_elements(domain, elements)
    rows = [cs.coords(g) for g in elements]
    ncols = len(cs.columns)
    # (pivot column, row) pairs whose rows span the pool entries before
    # the step rationally, each row zero at every earlier pivot
    prior: List[Tuple[int, Row]] = []

    cursor = 0
    for step in cert.steps:
        at = f"step:{step.label}"
        expected = list(step.a_extension) + list(step.b_extras)
        width = cursor + len(expected)
        got = names[cursor:width]
        if got != expected:
            fail(at, f"pool order mismatch: expected {expected}, found {got}")
            form = hnf_rows(project(prior, rows[cursor:width]))
            prior.extend(zip(form.pivots, form.h))
            cursor = width
            continue
        visible = cursor + len(step.a_extension)
        q_rows = [
            combine_rows(combo, rows, ncols)
            for combo in step.quotient_basis
            if len(combo) == step.quotient_over
        ]
        # one map for the step's own rows and its quotient rows: it sends
        # the earlier steps to 0 and is one-to-one modulo their span
        images = project(prior, rows[cursor:width] + q_rows)
        own, q_images = images[: width - cursor], images[width - cursor :]
        # a step without extras has only its extension's rows: one form
        # serves the independence check and the prior rows below
        head = hnf_rows(own[: visible - cursor])
        if head.rank != visible - cursor:
            fail(at, "extension is dependent modulo the previous steps")
        if step.torsion_bound < 1:
            fail(at, "torsion bound below 1")
        witnessed = set()
        for w in step.torsion_witnesses:
            if w.over != visible or len(w.coeffs) != visible:
                fail(at, f"witness for {w.extra} uses the wrong pool prefix")
                continue
            if w.bound != step.torsion_bound:
                fail(at, f"witness bound {w.bound} != step bound")
            try:
                idx = names.index(w.extra)
            except ValueError:
                fail(at, f"unknown extra {w.extra}")
                continue
            # coeffs over the visible pool less bound * the extra
            residual = domain.combine(
                (*w.coeffs, -w.bound), elements[:visible] + [elements[idx]]
            )
            if not residual.is_zero:
                fail(at, f"witness for {w.extra} does not re-sum")
            witnessed.add(w.extra)
        missing = set(step.b_extras) - witnessed
        if missing:
            fail(at, f"extras without witnesses: {sorted(missing)}")
        if step.quotient_over != width:
            fail(at, "quotient combos use the wrong prefix")
        for combo in step.quotient_basis:
            if len(combo) != step.quotient_over:
                fail(at, "quotient combo length mismatch")
        quotient = hnf_rows(q_images)
        if q_rows and quotient.rank != len(q_rows):
            fail(at, "quotient basis is dependent modulo the previous steps")
        elif len(step.quotient_basis) != len(step.a_extension):
            fail(at, "quotient basis needs one row per extension element")
        elif q_rows and any(quotient.back_substitute(r) is None for r in own):
            # the map is one-to-one on L / sat_L(P): the rows are its basis
            # exactly when their images generate the step's own images
            fail(
                at,
                "quotient basis does not generate the step modulo the "
                "previous steps",
            )
        form = head if visible == width else hnf_rows(own)
        prior.extend(zip(form.pivots, form.h))
        cursor = width
    if cursor != len(pool):
        fail("pool", "steps do not account for every pool entry")

    combos = []
    for i, combo in enumerate(cert.final_basis):
        if len(combo) != len(pool):
            fail(f"basis:{i}", "combo length mismatch")
            continue
        combos.append(combo)
    # one Hermite form of the basis gives its rank and every pool solve;
    # the membership checks below need no coefficients over the input,
    # so they back-substitute over h alone
    basis = hnf_rows([combine_rows(c, rows, ncols) for c in combos])
    if basis.rank != len(combos):
        fail("basis", "final basis is dependent")
    if cert.rank != len(cert.final_basis):
        fail("basis", "declared rank differs from basis size")
    for entry, row in zip(pool, rows):
        if basis.back_substitute(row) is None:
            fail(f"pool:{entry.name}", "pool element escapes the final basis")

    for t in cert.targets:
        if len(t.coeffs) != len(combos):
            fail(f"target:{t.name}", "coefficient length mismatch")
            continue
        # one re-sum over the pool: the coefficients times the basis combos
        over_pool = combine_rows(t.coeffs, combos, len(pool))
        if domain.combine(over_pool, elements) != t.element:
            fail(f"target:{t.name}", "coefficients do not re-sum to the target")

    return CheckReport(ok=not failures, failures=tuple(failures))
