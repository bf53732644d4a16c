"""Countable compact scattered spaces presented as ordinal intervals.

The carrier is [0, top] in the order topology.  Every point is an ordinal
in Cantor normal form, and the Cantor-Bendixson rank of a nonzero point is
the last exponent of its normal form, so derived-set membership and rank
slices reduce to arithmetic on exponents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ordlat.ordinal import (
    ZERO,
    Ordinal,
    add,
    classify,
    floor_rank,
    format_ordinal,
    last_exponent,
    omega_power,
    successor,
)


class InfiniteSliceError(ValueError):
    """Raised when a rank slice over a block has infinitely many points."""


@dataclass(frozen=True, slots=True)
class ClopenBlock:
    """Order interval (low, high], clopen in any ambient [0, top] with top >= high.

    low is an exclusive lower endpoint; None means the block starts at 0
    inclusive, i.e. [0, high].
    """

    low: Optional[Ordinal]
    high: Ordinal

    def __post_init__(self) -> None:
        if self.low is not None and self.low >= self.high:
            raise ValueError("empty block: low must be strictly below high")

    def contains(self, x: Ordinal) -> bool:
        return x <= self.high and (self.low is None or x > self.low)

    def __str__(self) -> str:
        lo = "[0" if self.low is None else f"({format_ordinal(self.low)}"
        return f"{lo}, {format_ordinal(self.high)}]"


@dataclass(frozen=True, slots=True)
class ScatteredSpace:
    top: Ordinal

    def contains(self, x: Ordinal) -> bool:
        return x <= self.top

    def whole_block(self) -> ClopenBlock:
        return ClopenBlock(low=None, high=self.top)

    def cb_rank(self, x: Ordinal) -> Ordinal:
        """Cantor-Bendixson rank of a point: how many derived sets keep it."""
        self._check(x)
        if x.is_zero:
            return ZERO
        return last_exponent(x)

    def space_rank(self) -> Ordinal:
        """Least gamma whose derived set is empty: rank(top) + 1."""
        return successor(self.cb_rank(self.top))

    def in_derived_set(self, x: Ordinal, gamma: Ordinal) -> bool:
        self._check(x)
        if gamma.is_zero:
            return True
        if x.is_zero:
            return False
        return last_exponent(x) >= gamma

    def is_limit_point(self, x: Ordinal) -> bool:
        return self.contains(x) and classify(x)[0] == "limit"

    def smallest_point_of_rank(self, gamma: Ordinal) -> Optional[Ordinal]:
        p = omega_power(gamma)
        return p if self.contains(p) else None

    def isolating_block(self, x: Ordinal) -> ClopenBlock:
        """Smallest natural clopen block around x whose only point of rank
        >= rank(x) is x itself: decrement the last coefficient of x."""
        self._check(x)
        if x.is_zero:
            return ClopenBlock(low=None, high=ZERO)

        exp, coeff = x.terms[-1]
        if coeff > 1:
            low = Ordinal(x.terms[:-1] + ((exp, coeff - 1),))
        else:
            low = Ordinal(x.terms[:-1])
        return ClopenBlock(low=low, high=x)

    def slice_is_finite(self, block: ClopenBlock, gamma: Ordinal) -> bool:
        """The rank-gamma points of a block form a finite set exactly when
        the block contains no point of any higher rank."""
        barrier = floor_rank(block.high, successor(gamma))
        if block.low is None:
            return barrier.is_zero
        return barrier <= block.low

    def rank_slice(
        self, block: ClopenBlock, gamma: Ordinal
    ) -> Tuple[Ordinal, ...]:
        """All points of rank exactly gamma in the block, in increasing order."""
        if block.high > self.top:
            raise ValueError("block exceeds the space")
        if not self.slice_is_finite(block, gamma):
            raise InfiniteSliceError(
                f"rank-{format_ordinal(gamma)} slice of {block} is infinite"
            )
        out: List[Ordinal] = []
        low = ZERO if block.low is None else block.low
        if block.low is None and gamma.is_zero:
            out.append(ZERO)
        step = omega_power(gamma)
        x = add(floor_rank(low, gamma), step)
        while x <= block.high:
            if x > low:
                out.append(x)
            x = add(x, step)
        return tuple(out)

    def _check(self, x: Ordinal) -> None:
        if not self.contains(x):
            raise ValueError(
                f"point {format_ordinal(x)} outside [0, {format_ordinal(self.top)}]"
            )
