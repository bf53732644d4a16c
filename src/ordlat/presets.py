"""Ready-made domains and presentations used by the CLI, tests, and scripts.

Each preset is a zero-argument callable registered in PRESETS; `load(name)`
builds it once per process.  A presentation is immutable, so every caller
shares that one instance and its cached span.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Callable, Dict, List, Tuple

from ordlat.element import Domain, Element, Ladder, WeightFn
from ordlat.group import Presentation
from ordlat.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    add,
    from_int,
    omega_power,
)
from ordlat.space import ScatteredSpace

FACTORIAL = WeightFn("factorial")


def limitq(count: int = 10) -> Presentation:
    """Staircase family on [0, w]: a_n carries residue 1/n! from index n."""
    dom = Domain(
        ScatteredSpace(OMEGA),
        (
            Ladder(
                id="q",
                kind="arith",
                target=OMEGA,
                weights=(FACTORIAL,),
                first=ZERO,
                step=ONE,
            ),
        ),
    )
    gens = tuple(
        (f"a_{n}", dom.tail("q", Fraction(1, factorial(n)), n))
        for n in range(count)
    )
    return Presentation("limitq", dom, gens)


def twoblock() -> Presentation:
    """[0, w*2] with a factorial ladder riding above w and loose spikes below."""
    top = omega_power(ONE, 2)
    dom = Domain(
        ScatteredSpace(top),
        (
            Ladder(
                id="main",
                kind="arith",
                target=top,
                weights=(FACTORIAL,),
                first=add(OMEGA, ONE),
                step=ONE,
            ),
        ),
    )
    gens: List[Tuple[str, Element]] = []
    for n in range(5):
        gens.append(
            (f"t_{n}", dom.tail("main", Fraction(1, factorial(n)), n))
        )
    for k in range(4):
        gens.append((f"e_{k}", dom.e(from_int(k))))
    gens.append(("e_w", dom.e(OMEGA)))
    return Presentation("twoblock", dom, gens)


def gridrows() -> Presentation:
    """[0, w^2] with a ladder stepping by w, so points are rank-1 limits."""
    top = omega_power(from_int(2))
    dom = Domain(
        ScatteredSpace(top),
        (
            Ladder(
                id="rows",
                kind="arith",
                target=top,
                weights=(WeightFn("geometric", 2),),
                first=OMEGA,
                step=OMEGA,
            ),
        ),
    )
    gens: List[Tuple[str, Element]] = []
    for n in range(4):
        gens.append(
            (f"c_{n}", dom.tail("rows", Fraction(1, 2**n), n))
        )
    for k in (0, 1, 2):
        gens.append((f"e_{k}", dom.e(from_int(k))))
    return Presentation("gridrows", dom, gens)


def two_prime() -> Presentation:
    """Two disjoint factorial ladders on [0, w*2] plus a stray spike at 0."""
    top = omega_power(ONE, 2)
    dom = Domain(
        ScatteredSpace(top),
        (
            Ladder(
                id="fin",
                kind="arith",
                target=OMEGA,
                weights=(FACTORIAL,),
                first=ONE,
                step=ONE,
            ),
            Ladder(
                id="inf",
                kind="arith",
                target=top,
                weights=(FACTORIAL,),
                first=add(OMEGA, ONE),
                step=ONE,
            ),
        ),
    )
    gens: List[Tuple[str, Element]] = []
    for n in range(6):
        gens.append(
            (f"u_{n}", dom.tail("fin", Fraction(1, factorial(n)), n))
        )
    for n in range(6):
        gens.append(
            (f"v_{n}", dom.tail("inf", Fraction(1, factorial(n)), n))
        )
    gens.append(("e_0", dom.e(ZERO)))
    return Presentation("two_prime", dom, gens)


def _power_domain() -> Domain:
    top = omega_power(OMEGA)
    return Domain(
        ScatteredSpace(top),
        (
            Ladder(
                id="pw",
                kind="power",
                target=top,
                weights=(FACTORIAL,),
                offset=1,
            ),
        ),
    )


def limit_power() -> Presentation:
    """Factorial staircase f_0..f_5 on the power ladder of [0, w^w]."""
    dom = _power_domain()
    gens = tuple(
        (f"f_{n}", dom.tail("pw", Fraction(1, factorial(n)), n))
        for n in range(6)
    )
    return Presentation("limit_power", dom, gens)


def limit_power_two_weights() -> Presentation:
    """Two weight scales sharing one power ladder: f_0..f_4 and h_0..h_4."""
    top = omega_power(OMEGA)
    dom = Domain(
        ScatteredSpace(top),
        (
            Ladder(
                id="pw",
                kind="power",
                target=top,
                weights=(FACTORIAL, WeightFn("factgeom", 2)),
                offset=1,
            ),
        ),
    )
    gens = tuple(
        (f"{p}_{n}", dom.tail("pw", Fraction(1, factorial(n)), n, weight=w))
        for p, w in (("f", "factorial"), ("h", "factgeom(2)"))
        for n in range(5)
    )
    return Presentation("limit_power_two_weights", dom, gens)


def limit_power_integer() -> Presentation:
    """Degenerate staircase f_0..f_4: every residue is 1, so levels stay
    redundant."""
    dom = _power_domain()
    gens = tuple(
        (f"f_{n}", dom.tail("pw", Fraction(1), n))
        for n in range(5)
    )
    return Presentation("limit_power_integer", dom, gens)


def limit_power_jump() -> Presentation:
    """f_0..f_3 start three rungs per level up, so cancellations land high."""
    dom = _power_domain()
    gens = tuple(
        (f"f_{n}", dom.tail("pw", Fraction(1, factorial(n)), 3 * n))
        for n in range(4)
    )
    return Presentation("limit_power_jump", dom, gens)


PRESETS: Dict[str, Callable[[], Presentation]] = {
    "limitq": limitq,
    "twoblock": twoblock,
    "gridrows": gridrows,
    "two_prime": two_prime,
    "limit_power": limit_power,
    "limit_power_two_weights": limit_power_two_weights,
    "limit_power_integer": limit_power_integer,
    "limit_power_jump": limit_power_jump,
}


@cache
def load(name: str) -> Presentation:
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
