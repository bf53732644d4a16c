"""Multiplicative ideal dictionary for lattice-group elements.

An element is read as an exponent function: composing ideals adds
exponents, forming the ideal sum takes pointwise minima, and the inverse
fractional ideal negates.  The checks here probe that dictionary on random
combinations of a presentation's generators, with the meet operation
injectable so a corrupted lattice structure is caught by the translation
law rather than trusted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ordlat.element import Element, bounded_ratio_witness
from ordlat.group import Presentation
from ordlat.ordinal import from_int

MeetFn = Callable[[Element, Element], Element]


@dataclass(frozen=True)
class IdealFunction:
    """An ideal presented by its exponent function."""

    f: Element

    def __mul__(self, other: "IdealFunction") -> "IdealFunction":
        return IdealFunction(self.f + other.f)

    def __pow__(self, n: int) -> "IdealFunction":
        if n < 0:
            raise ValueError("use inverse() for negative powers")
        return IdealFunction(n * self.f)

    def inverse(self) -> "IdealFunction":
        return IdealFunction(-self.f)

    def plus(self, other: "IdealFunction") -> "IdealFunction":
        """Ideal sum: the smaller exponent wins pointwise."""
        return IdealFunction(self.f.meet(other.f))

    def contains(self, other: "IdealFunction") -> bool:
        """Bigger exponents cut out smaller ideals."""
        return (other.f - self.f).is_nonneg()

    def is_integral(self) -> bool:
        return self.f.is_nonneg()


def sample_combination(pres: Presentation, rng: random.Random) -> Element:
    """Small random integer combination of the presentation's generators:
    1 to 3 draws, each a coefficient in [-3, 3] on a random generator."""
    gens = pres.elements
    if not gens:
        raise ValueError("no generators to combine")
    coeffs: List[int] = []
    picks: List[Element] = []
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(-3, 3)
        if c:
            coeffs.append(c)
            picks.append(rng.choice(gens))
    return pres.domain.combine(coeffs, picks)


@dataclass(frozen=True)
class BatteryReport:
    name: str
    checked: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def phi_homomorphism_check(
    pres: Presentation,
    cases: int = 200,
    seed: int = 0,
    meet_fn: Optional[MeetFn] = None,
) -> BatteryReport:
    """Translation law for the ideal sum: f + (g ^ h) == (f + g) ^ (f + h).

    Multiplicatively this says composing with a fixed ideal distributes
    over ideal sums.  The law only pins the sum down together with the
    order axioms, so each case also probes commutativity, idempotence,
    the lower-bound property, and maximality against sampled lower
    bounds; a tampered meet_fn breaks one of them.  Stops after five
    failures; checked counts the cases that ran.
    """
    if cases < 0:
        raise ValueError("case count must be >= 0")
    rng = random.Random(seed)
    meet: MeetFn = meet_fn or (lambda a, b: a.meet(b))
    failures: List[str] = []
    done = 0
    for i in range(cases):
        done = i + 1
        f = sample_combination(pres, rng)
        g = sample_combination(pres, rng)
        h = sample_combination(pres, rng)
        m = meet(g, h)
        if f + m != meet(f + g, f + h):
            failures.append(f"case {i}: translation law broken")
        if m != meet(h, g):
            failures.append(f"case {i}: not commutative")
        if meet(g, g) != g:
            failures.append(f"case {i}: not idempotent")
        if not (g - m).is_nonneg() or not (h - m).is_nonneg():
            failures.append(f"case {i}: not a lower bound")
        else:
            for low in (f, m - f.plus_part()):
                if (
                    (g - low).is_nonneg()
                    and (h - low).is_nonneg()
                    and not (m - low).is_nonneg()
                ):
                    failures.append(f"case {i}: not the greatest lower bound")
                    break
        if len(failures) >= 5:
            break
    return BatteryReport("phi-homomorphism", done, tuple(failures))


def witness_battery(
    pres: Presentation, cases: int = 100, seed: int = 0
) -> BatteryReport:
    """Random radical-membership witnesses (least n with n * f >= g, so
    the n-th power of g's ideal falls inside f's), each checked for
    minimality."""
    if cases < 0:
        raise ValueError("case count must be >= 0")
    rng = random.Random(seed)
    failures: List[str] = []
    done = 0
    attempts = 0
    while done < cases and attempts < cases * 20:
        attempts += 1
        f = sample_combination(pres, rng).plus_part()
        if f.is_zero:
            continue
        m = rng.randint(1, 6)
        k = rng.randint(0, 4)
        extra = sample_combination(pres, rng).plus_part()
        g = m * f + k * f.meet(extra)
        n = bounded_ratio_witness(f, g)
        tag = f"case {done} (m={m}, k={k})"
        if n is None:
            failures.append(f"{tag}: no witness for a same-support pair")
        else:
            if not (n * f - g).is_nonneg():
                failures.append(f"{tag}: witness {n} does not dominate")
            if n > 1 and ((n - 1) * f - g).is_nonneg():
                failures.append(f"{tag}: witness {n} is not minimal")
        done += 1
        if len(failures) >= 5:
            break
    return BatteryReport("radical-witness", done, tuple(failures))


def spec_map_check(
    pres: Presentation, cases: int = 50, seed: int = 0
) -> Dict[str, bool]:
    """Probe battery for the ideal dictionary; name -> held on all probes."""
    rng = random.Random(seed)
    zero = pres.domain.zero()
    unit_ok = True
    product_ok = True
    sum_ok = True
    inverse_ok = True
    order_ok = True
    radical_ok = True
    spots = []
    k = 0
    while len(spots) < 2 and k < 64:
        x = from_int(k)
        if pres.domain.space.contains(x) and not pres.domain.target_ladder(x):
            spots.append(x)
        k += 1
    if len(spots) == 2:
        ex, ey = pres.domain.e(spots[0]), pres.domain.e(spots[1])
        radical_ok &= bounded_ratio_witness(ex, ex + ey) is None
    for _ in range(cases):
        f = sample_combination(pres, rng)
        g = sample_combination(pres, rng)
        I, J = IdealFunction(f), IdealFunction(g)
        unit_ok &= (I * IdealFunction(zero)).f == f
        product_ok &= (I * J).f == f + g
        sum_ok &= I.plus(J).f == f.meet(g)
        inverse_ok &= (I * I.inverse()).f == zero
        fp, gp = f.plus_part(), g.plus_part()
        order_ok &= IdealFunction(fp).contains(IdealFunction(fp + gp))
        if not gp.is_zero:
            order_ok &= not IdealFunction(fp + gp).contains(IdealFunction(fp))
        if not fp.is_zero:
            radical_ok &= bounded_ratio_witness(fp, 3 * fp) == 3
    return {
        "unit-is-identity": unit_ok,
        "product-adds-exponents": product_ok,
        "sum-takes-minima": sum_ok,
        "inverse-cancels": inverse_ok,
        "containment-reverses-order": order_ok,
        "radical-tracks-support": radical_ok,
    }
