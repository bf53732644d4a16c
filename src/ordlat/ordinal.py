"""Exact ordinal arithmetic in Cantor normal form.

An ordinal below epsilon_0 is stored as a tuple of (exponent, coefficient)
pairs with strictly decreasing exponents and positive integer coefficients;
the empty tuple is zero.  Everything here is immutable and hashable so
ordinals can key dictionaries and sit inside frozen dataclasses.  Equality,
hash and order read one key stored at construction: the terms with each
exponent replaced by its own key.  Normal forms compare term by term,
exponent first, so the lexicographic order of the keys is the ordinal order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

MAX_DEPTH = 8
MAX_COEFF = 2**31


class OrdinalCapError(ValueError):
    """Raised when a literal exceeds the nesting-depth or coefficient caps."""


class OrdinalParseError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True, slots=True, order=True)
class Ordinal:
    terms: Tuple[Tuple["Ordinal", int], ...] = field(default=(), compare=False)
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        key = []
        for exp, coeff in self.terms:
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError(f"coefficient must be a positive int, got {coeff!r}")
            if coeff > MAX_COEFF:
                raise OrdinalCapError(f"coefficient {coeff} exceeds cap {MAX_COEFF}")
            if key and exp._key >= key[-1][0]:
                raise ValueError("exponents must be strictly decreasing")
            key.append((exp._key, coeff))
        object.__setattr__(self, "_key", tuple(key))
        if self.depth() > MAX_DEPTH:
            raise OrdinalCapError(f"nesting depth exceeds cap {MAX_DEPTH}")

    def depth(self) -> int:
        if not self.terms:
            return 0
        return 1 + max(exp.depth() for exp, _ in self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_nat(self) -> bool:
        """True when the ordinal is a natural number (possibly zero)."""
        if not self.terms:
            return True
        return len(self.terms) == 1 and self.terms[0][0].is_zero

    def as_nat(self) -> int:
        if not self.is_nat():
            raise ValueError(f"{self} is not a natural number")
        return self.terms[0][1] if self.terms else 0

    def key(self) -> tuple:
        """The stored order key; a sort key that costs no comparison calls."""
        return self._key

    def __add__(self, other: "Ordinal") -> "Ordinal":
        return add(self, other)

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal[{format_ordinal(self)}]"


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are nonnegative")
    if n == 0:
        return ZERO
    return Ordinal(((ZERO, n),))


def omega_power(exp: Ordinal, coeff: int = 1) -> Ordinal:
    if coeff == 0:
        return ZERO
    return Ordinal(((exp, coeff),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """Three-way comparison: -1, 0 or 1."""
    return (a._key > b._key) - (a._key < b._key)


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum.  Non-commutative: terms of a below b's lead are absorbed."""
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    lead_exp = b.terms[0][0]
    kept = [t for t in a.terms if t[0] > lead_exp]
    boundary = [t for t in a.terms if t[0] == lead_exp]
    if boundary:
        merged = (lead_exp, boundary[0][1] + b.terms[0][1])
        return Ordinal(tuple(kept) + (merged,) + b.terms[1:])
    return Ordinal(tuple(kept) + b.terms)


def successor(a: Ordinal) -> Ordinal:
    return add(a, ONE)


def classify(a: Ordinal) -> Tuple[str, Optional[Ordinal]]:
    """Return ("zero", None), ("successor", predecessor) or ("limit", None)."""
    if a.is_zero:
        return ("zero", None)
    last_exp, last_coeff = a.terms[-1]
    if not last_exp.is_zero:
        return ("limit", None)
    if last_coeff == 1:
        return ("successor", Ordinal(a.terms[:-1]))
    return ("successor", Ordinal(a.terms[:-1] + ((last_exp, last_coeff - 1),)))


def last_exponent(a: Ordinal) -> Ordinal:
    if a.is_zero:
        raise ValueError("zero has no last exponent")
    return a.terms[-1][0]


def floor_rank(a: Ordinal, delta: Ordinal) -> Ordinal:
    """Largest multiple of w^delta that is <= a (zero when there is none)."""
    # exponents decrease, so the terms at or above delta are a prefix
    return Ordinal(tuple(t for t in a.terms if t[0] >= delta))


# --- text syntax -----------------------------------------------------------
#
# expr     := term ("+" term)*
# term     := NAT | "w" ("^" exponent)? ("*" NAT)?
# exponent := NAT | "w" | "(" expr ")"


def format_ordinal(a: Ordinal) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            body = "w"
        elif exp.is_nat():
            body = f"w^{exp.as_nat()}"
        elif exp == OMEGA:
            body = "w^w"
        else:
            body = f"w^({format_ordinal(exp)})"
        parts.append(body if coeff == 1 else f"{body}*{coeff}")
    return " + ".join(parts)


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.nesting = 0  # open parentheses; each one nests an exponent

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str) -> None:
        if not self.take(ch):
            raise OrdinalParseError(f"expected {ch!r}", self.pos)

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise OrdinalParseError("expected a number", start)
        return int(self.text[start:self.pos])


def _parse_expr(sc: _Scanner) -> Ordinal:
    total = _parse_term(sc)
    while sc.take("+"):
        total = add(total, _parse_term(sc))
    return total


def _parse_term(sc: _Scanner) -> Ordinal:
    ch = sc.peek()
    if ch == "w":
        sc.pos += 1
        exp = ONE
        if sc.take("^"):
            exp = _parse_exponent(sc)
        coeff = 1
        if sc.take("*"):
            coeff = sc.nat()
            if coeff < 1:
                raise OrdinalParseError("coefficient must be positive", sc.pos)
        return omega_power(exp, coeff)
    if ch.isdigit():
        return from_int(sc.nat())
    raise OrdinalParseError("expected 'w' or a number", sc.pos)


def _parse_exponent(sc: _Scanner) -> Ordinal:
    ch = sc.peek()
    if ch == "(":
        # nesting p builds depth >= p, so the cap applies before recursing
        sc.nesting += 1
        if sc.nesting > MAX_DEPTH:
            raise OrdinalCapError(f"nesting depth exceeds cap {MAX_DEPTH}")
        sc.pos += 1
        inner = _parse_expr(sc)
        sc.expect(")")
        sc.nesting -= 1
        return inner
    if ch == "w":
        sc.pos += 1
        return OMEGA
    if ch.isdigit():
        return from_int(sc.nat())
    raise OrdinalParseError("expected exponent", sc.pos)


def parse_ordinal(text: str) -> Ordinal:
    sc = _Scanner(text)
    value = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise OrdinalParseError("trailing input", sc.pos)
    return value
