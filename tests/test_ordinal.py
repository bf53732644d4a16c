from functools import cmp_to_key

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlat.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalCapError,
    OrdinalParseError,
    add,
    classify,
    compare,
    floor_rank,
    format_ordinal,
    from_int,
    last_exponent,
    omega_power,
    parse_ordinal,
    successor,
)

from .conftest import deeper_ordinals, small_ordinals, triples
from .oracles import (
    add_triples,
    iter_below,
    ordinal_of,
    reference_compare,
    triple_of,
)


# --- construction and ordering -----------------------------------------------


def test_constants():
    assert ZERO.is_zero
    assert from_int(0) is ZERO or from_int(0) == ZERO
    assert from_int(1) == ONE
    assert OMEGA == omega_power(ONE)
    assert from_int(7).as_nat() == 7


def test_terms_must_strictly_decrease():
    with pytest.raises(ValueError):
        Ordinal(((ONE, 1), (ONE, 1)))
    with pytest.raises(ValueError):
        Ordinal(((ZERO, 1), (ONE, 1)))


def test_zero_coefficients_rejected():
    with pytest.raises(ValueError):
        Ordinal(((ONE, 0),))


@given(small_ordinals, small_ordinals)
def test_compare_antisymmetric(a, b):
    if compare(a, b) == 0:
        assert a == b
    else:
        assert compare(a, b) == -compare(b, a)


@given(small_ordinals, small_ordinals, small_ordinals)
def test_compare_transitive(a, b, c):
    if compare(a, b) <= 0 and compare(b, c) <= 0:
        assert compare(a, c) <= 0


@given(small_ordinals, small_ordinals)
def test_compare_matches_key(a, b):
    assert compare(a, b) == (a.key() > b.key()) - (a.key() < b.key())


def _normal_form(pairs):
    """Ordinal from (exponent, coefficient) pairs: the exponents are put in
    decreasing order by the reference walk, and a repeat keeps one term."""
    terms = {}
    for exp, coeff in pairs:
        terms[exp] = coeff
    ordered = sorted(terms, key=cmp_to_key(reference_compare), reverse=True)
    return Ordinal(tuple((exp, terms[exp]) for exp in ordered))


# exponents are themselves ordinals, so the order of exponents is exercised
# at depth and not only on naturals; max_leaves=8 lets st.recursive nest
# four levels, which stays within MAX_DEPTH
nested_ordinals = st.recursive(
    st.builds(from_int, st.integers(0, 3)),
    lambda inner: st.builds(
        _normal_form,
        st.lists(st.tuples(inner, st.integers(1, 3)), min_size=1, max_size=3),
    ),
    max_leaves=8,
)


@given(st.lists(nested_ordinals, min_size=2, max_size=8))
def test_order_matches_reference(xs):
    for a in xs:
        for b in xs:
            ref = reference_compare(a, b)
            assert compare(a, b) == ref
            assert (a < b) == (ref < 0)
            assert (a <= b) == (ref <= 0)
            assert (a > b) == (ref > 0)
            assert (a >= b) == (ref >= 0)
            assert (a == b) == (ref == 0)
            if ref == 0:
                assert hash(a) == hash(b)
    assert sorted(xs, key=Ordinal.key) == sorted(
        xs, key=cmp_to_key(reference_compare)
    )


# --- addition ------------------------------------------------------------------


def test_add_absorbs_lower_left_blocks():
    a = parse_ordinal("w^2 + w")
    b = parse_ordinal("w*2")
    assert add(a, b) == parse_ordinal("w^2 + w*3")


@given(triples, triples)
def test_add_matches_block_oracle(ta, tb):
    a, b = ordinal_of(ta), ordinal_of(tb)
    assert add(a, b) == ordinal_of(add_triples(ta, tb))
    assert triple_of(add(a, b)) == add_triples(ta, tb)


@given(small_ordinals, small_ordinals, small_ordinals)
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@given(small_ordinals)
def test_add_identity(a):
    assert add(a, ZERO) == a
    assert add(ZERO, a) == a


@given(small_ordinals, small_ordinals)
def test_add_weakly_monotone(a, b):
    assert compare(add(a, b), a) >= 0
    if not b.is_zero:
        assert compare(add(a, b), a) > 0


def test_plus_operator_is_add():
    a, b = parse_ordinal("w^2"), parse_ordinal("w + 1")
    assert a + b == add(a, b)


# --- classification, successor, floor ----------------------------------------


def test_classify():
    assert classify(ZERO) == ("zero", None)
    assert classify(from_int(5)) == ("successor", from_int(4))
    assert classify(OMEGA) == ("limit", None)
    assert classify(parse_ordinal("w^2 + 3")) == (
        "successor",
        parse_ordinal("w^2 + 2"),
    )
    assert classify(parse_ordinal("w^w")) == ("limit", None)


@given(small_ordinals)
def test_successor_classifies_back(a):
    kind, pred = classify(successor(a))
    assert kind == "successor"
    assert pred == a


def test_floor_rank_frozen():
    a = parse_ordinal("w^2*3 + w + 4")
    assert floor_rank(a, ZERO) == a
    assert floor_rank(a, ONE) == parse_ordinal("w^2*3 + w")
    assert floor_rank(a, from_int(2)) == parse_ordinal("w^2*3")
    assert floor_rank(a, from_int(3)) == ZERO


@given(deeper_ordinals(), deeper_ordinals(max_exp=3))
def test_floor_rank_is_a_prefix(a, delta):
    f = floor_rank(a, delta)
    assert f.terms == a.terms[: len(f.terms)]
    assert compare(f, a) <= 0
    if not delta.is_zero:
        for exp, _ in f.terms:
            assert compare(exp, delta) >= 0


def test_last_exponent():
    assert last_exponent(parse_ordinal("w^2 + w")) == ONE
    assert last_exponent(parse_ordinal("w^2*3")) == from_int(2)
    with pytest.raises(ValueError):
        last_exponent(ZERO)


# --- caps -----------------------------------------------------------------------


def test_nesting_depth_cap():
    a = ONE
    for _ in range(7):
        a = omega_power(a)
    with pytest.raises(OrdinalCapError):
        omega_power(a)


def test_parse_nesting_cap():
    def nested(p):
        return "w^(" * p + "1" + ")" * p

    assert parse_ordinal(nested(7)).depth() == 8
    with pytest.raises(OrdinalCapError):
        parse_ordinal(nested(8))  # depth 9, refused on construction
    with pytest.raises(OrdinalCapError):
        parse_ordinal(nested(9))  # refused by the parser at the 9th "("
    with pytest.raises(OrdinalCapError):
        parse_ordinal(nested(3000))


def test_coefficient_cap():
    assert omega_power(ONE, 2**31).terms[0][1] == 2**31
    with pytest.raises(OrdinalCapError):
        omega_power(ONE, 2**31 + 1)


# --- text syntax ------------------------------------------------------------------


@given(small_ordinals)
def test_format_parse_roundtrip_small(a):
    assert parse_ordinal(format_ordinal(a)) == a


@given(deeper_ordinals())
def test_format_parse_roundtrip_deep(a):
    assert parse_ordinal(format_ordinal(a)) == a


def test_parse_frozen_forms():
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("w") == OMEGA
    assert parse_ordinal("w^2*3 + w + 4") == Ordinal(
        ((from_int(2), 3), (ONE, 1), (ZERO, 4))
    )
    assert parse_ordinal("w^(w+1)*2") == omega_power(parse_ordinal("w + 1"), 2)
    assert parse_ordinal(" w ^ 2 ") == omega_power(from_int(2))


def test_parse_sums_terms_left_to_right():
    # the parser adds terms, so out-of-order input absorbs instead of erroring
    assert parse_ordinal("w + w^2") == parse_ordinal("w^2")
    assert parse_ordinal("w + w") == parse_ordinal("w*2")


def test_parse_errors_carry_position():
    with pytest.raises(OrdinalParseError) as exc:
        parse_ordinal("w^^2")
    assert exc.value.position == 2
    assert "position 2" in str(exc.value)
    with pytest.raises(OrdinalParseError) as exc:
        parse_ordinal("w + ")
    assert exc.value.position == 4


def test_parse_rejects_trailing_garbage():
    with pytest.raises(OrdinalParseError):
        parse_ordinal("w^2 junk")
    with pytest.raises(OrdinalParseError):
        parse_ordinal("")


# --- enumeration -----------------------------------------------------------------


def test_iter_below_small_grid():
    got = list(iter_below(omega_power(from_int(2)), 2))
    assert len(got) == 10
    assert ZERO in got
    assert omega_power(from_int(2)) in got
    assert len(set(got)) == len(got)
    for p in got:
        assert compare(p, omega_power(from_int(2))) <= 0
        for _, coeff in p.terms:
            assert coeff <= 2


def test_iter_below_excludes_bound_when_coeff_exceeds_cap():
    bound = parse_ordinal("w*5")
    got = list(iter_below(bound, 2))
    assert bound not in got
    assert parse_ordinal("w*2 + 2") in got


@given(small_ordinals)
def test_iter_below_respects_bound(a):
    for p in iter_below(a, 2):
        assert compare(p, a) <= 0
