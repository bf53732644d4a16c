import math
import random
import time
from fractions import Fraction
from itertools import groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordlat import presets
from ordlat.element import (
    Domain,
    Ladder,
    TailTerm,
    WeightFn,
    _canonical,
    _makes_up,
    _settle,
    bounded_ratio_witness,
    dominance_monotone_from,
    format_element,
    is_semibasic,
    parse_element,
    parse_weight,
)
from ordlat.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    format_ordinal,
    from_int,
    omega_power,
    parse_ordinal,
    successor,
)
from ordlat.serialize import element_from_json, element_to_json
from ordlat.space import ScatteredSpace

from .conftest import combos
from .oracles import (
    reference_canonical,
    reference_combine,
    reference_join,
    reference_meet,
    reference_parse_element,
    subtract_meet,
)


@pytest.fixture(scope="module")
def gens(limitq):
    return {name: g for name, g in limitq.generators}


# --- weights -----------------------------------------------------------------


def test_weight_values():
    assert [WeightFn("factorial").value(k) for k in range(5)] == [1, 1, 2, 6, 24]
    assert [WeightFn("geometric", 2).value(k) for k in range(5)] == [1, 2, 4, 8, 16]
    assert [WeightFn("factgeom", 2).value(k) for k in range(4)] == [1, 2, 8, 48]
    assert [WeightFn("constant", 3).value(k) for k in range(3)] == [3, 3, 3]


def test_weight_labels_roundtrip():
    for w in (
        WeightFn("factorial"),
        WeightFn("geometric", 3),
        WeightFn("factgeom", 2),
        WeightFn("constant", 5),
    ):
        assert parse_weight(w.label()) == w


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightFn("geometric", 1)  # base must be >= 2
    with pytest.raises(ValueError):
        WeightFn("constant", 0)
    with pytest.raises(ValueError):
        WeightFn("quadratic")


def test_dominance_order():
    fact = WeightFn("factorial")
    geo = WeightFn("geometric", 2)
    fg = WeightFn("factgeom", 2)
    c = WeightFn("constant", 9)
    keys = [c.dominance_key(), geo.dominance_key(), fact.dominance_key(), fg.dominance_key()]
    assert keys == sorted(keys)


def test_dominance_monotone_from():
    fact = WeightFn("factorial")
    geo = WeightFn("geometric", 2)
    n = dominance_monotone_from(fact, geo)
    assert n == 1
    ratios = [Fraction(fact.value(k), geo.value(k)) for k in range(n, n + 8)]
    assert ratios == sorted(ratios)
    assert dominance_monotone_from(WeightFn("factgeom", 2), fact) == 0


# --- ladders ------------------------------------------------------------------


def test_arith_ladder_points(limitq):
    L = limitq.domain.ladder("q")
    assert [L.point(k) for k in range(4)] == [from_int(k) for k in range(4)]
    assert L.index_of(from_int(3)) == 3
    assert L.index_of(OMEGA) is None


def test_power_ladder_points():
    from ordlat import presets

    L = presets.limit_power().domain.ladder("pw")
    assert [str(L.point(k)) for k in range(3)] == ["w", "w^2", "w^3"]
    assert L.index_of(parse_ordinal("w^2")) == 1
    assert L.index_of(parse_ordinal("w^2 + 1")) is None


def test_arith_ladder_must_converge_to_target():
    with pytest.raises(ValueError):
        Ladder(
            id="bad",
            kind="arith",
            target=parse_ordinal("w^2"),
            weights=(WeightFn("factorial"),),
            first=ZERO,
            step=ONE,
        )


def _arith(lid, first, step, target):
    return Ladder(
        id=lid,
        kind="arith",
        target=parse_ordinal(target),
        weights=(WeightFn("factorial"),),
        first=parse_ordinal(first),
        step=parse_ordinal(step),
    )


_POWER = Ladder(
    id="pw", kind="power", target=parse_ordinal("w^w"), weights=(WeightFn("factorial"),)
)


@pytest.mark.parametrize(
    "top, ladders, message",
    [
        ("w^3", [_arith("a", "0", "1", "w"), _arith("a", "0", "w", "w^2")], "duplicate"),
        ("w", [_arith("a", "0", "w", "w^2")], "outside the space"),
        ("w^3", [_arith("a", "0", "1", "w"), _arith("b", "3", "1", "w")], "a target"),
        ("w^3", [_arith("a", "0", "1", "w"), _arith("b", "0", "w", "w^2")], "lies on"),
        # b's points are 2, w^2, w^2*2, ...: only index 0 meets ladder a
        ("w^3", [_arith("a", "0", "1", "w"), _arith("b", "2", "w^2", "w^3")], "point 2$"),
        ("w^w", [_POWER, _arith("a", "w^2", "1", "w^2 + w")], "point w\\^2$"),
    ],
)
def test_domain_rejects_clashing_ladders(top, ladders, message):
    with pytest.raises(ValueError, match=message):
        Domain(space=ScatteredSpace(parse_ordinal(top)), ladders=tuple(ladders))


# --- the ladder point table ----------------------------------------------------


def _table_ladders():
    return [
        _arith("a", "0", "1", "w"),
        _arith("b", "2", "w^2", "w^3"),
        _arith("c", "w^2", "1", "w^2 + w"),
        Ladder(
            id="pw",
            kind="power",
            target=parse_ordinal("w^w"),
            weights=(WeightFn("factorial"),),
            offset=2,
        ),
    ]


def _arithmetic_point(L, k):
    """point(k) from the ladder's definition."""
    if L.kind == "power":
        return omega_power(from_int(L.offset + k))
    exp, coeff = L.step.terms[0]
    return L.first + omega_power(exp, coeff * k)


@pytest.mark.parametrize("seed", range(4))
def test_ladder_table_matches_the_arithmetic(seed):
    rng = random.Random(seed)
    for L in _table_ladders():
        ks = list(range(16)) + [40, 41, 200]
        rng.shuffle(ks)
        for k in ks:
            assert L.point(k) == _arithmetic_point(L, k), (L.id, k)
            assert L.index_of(L.point(k)) == k
        # whatever the order, the table is a prefix of the ladder
        assert L.table == [_arithmetic_point(L, k) for k in range(len(L.table))]
        assert L.index == {x: k for k, x in enumerate(L.table)}


def test_a_lone_far_index_is_not_tabled():
    for L in _table_ladders():
        assert len(L.table) == 1
        far = L.point(500)
        assert len(L.table) == 1
        assert L.index_of(far) == 500
        assert len(L.table) == 1
        L.point(1)
        assert len(L.table) == 2


def test_index_of_is_none_off_the_ladder_inside_and_past_the_table():
    L = _arith("b", "2", "w^2", "w^3")  # 2, w^2, w^2*2, ...
    for k in range(6):
        L.point(k)
    assert len(L.table) == 6
    for text in ("0", "1", "3", "w", "w^2 + 1", "w^2*3 + 2"):  # below first, between
        assert L.index_of(parse_ordinal(text)) is None, text
    for text in ("w^2*9 + 1", "w^3", "w^3 + 1"):  # past the table
        assert L.index_of(parse_ordinal(text)) is None, text
    assert L.index_of(parse_ordinal("w^2*9")) == 9
    assert len(L.table) == 6
    P = _table_ladders()[-1]  # w^2, w^3, ...
    P.point(1)
    for text in ("w", "w^2 + 1", "w^4 + w", "w^w"):
        assert P.index_of(parse_ordinal(text)) is None, text


def test_negative_ladder_index_is_rejected():
    for L in _table_ladders():
        for k in range(3):
            L.point(k)
        with pytest.raises(ValueError):
            L.point(-1)


def test_ladders_with_different_tables_are_equal():
    L, M = _arith("a", "0", "1", "w"), _arith("a", "0", "1", "w")
    for k in range(9):
        L.point(k)
    assert len(L.table) != len(M.table)
    assert L == M and hash(L) == hash(M)
    space = ScatteredSpace(OMEGA)
    d, e = Domain(space, (L,)), Domain(space, (M,))
    assert d == e and hash(d) == hash(e)
    # _same_domain accepts elements of the two domains
    f = d.e(from_int(3)) + e.e(from_int(3))
    assert f == d.literal(((from_int(3), 2),), ())


def test_weight_lookup_by_label(limitq):
    L = limitq.domain.ladder("q")
    assert L.weight() == WeightFn("factorial")
    assert L.weight("factorial") == WeightFn("factorial")
    with pytest.raises(ValueError):
        L.weight("geometric(2)")


# --- canonical form ---------------------------------------------------------------


def test_tail_start_bump_is_canonicalized(limitq, gens):
    d = limitq.domain
    a0 = gens["a_0"]
    rebuilt = d.e(from_int(0)) + d.e(from_int(1)) + d.tail("q", 1, 2)
    assert rebuilt == a0
    assert hash(rebuilt) == hash(a0)


def test_tails_merge_at_common_start(limitq, gens):
    d = limitq.domain
    lhs = gens["a_0"] + gens["a_3"]
    rhs = (
        d.e(from_int(0))
        + d.e(from_int(1))
        + 2 * d.e(from_int(2))
        + d.tail("q", Fraction(7, 6), 3)
    )
    assert lhs == rhs
    assert len(lhs.tails) == 1


def test_integrality_contract():
    from ordlat import presets

    d = presets.limitq().domain
    with pytest.raises(ValueError):
        d.tail("q", Fraction(1, 4), 2)  # 4 does not divide 2!
    assert d.tail("q", Fraction(1, 2), 2).value(from_int(2)) == 1


# --- evaluation ---------------------------------------------------------------------


def test_value_matrix(gens):
    rows = {
        "a_0": [1, 1, 2, 6, 24],
        "a_1": [0, 1, 2, 6, 24],
        "a_2": [0, 0, 1, 3, 12],
        "a_3": [0, 0, 0, 1, 4],
    }
    for name, want in rows.items():
        got = [gens[name].value(from_int(k)) for k in range(5)]
        assert got == want, name


def test_value_at_growing_target_rejected(gens):
    with pytest.raises(ValueError):
        gens["a_0"].value(OMEGA)


def test_value_outside_space_rejected(limitq):
    with pytest.raises(ValueError, match="outside the space"):
        limitq.elements[0].value(parse_ordinal("w^5"))


def test_value_at_constant_target():
    sp = ScatteredSpace(OMEGA)
    L = Ladder(
        id="c",
        kind="arith",
        target=OMEGA,
        weights=(WeightFn("constant", 3),),
        first=ZERO,
        step=ONE,
    )
    d = Domain(space=sp, ladders=(L,))
    f = d.tail("c", Fraction(2, 3), 1)
    assert [f.value(from_int(k)) for k in range(4)] == [0, 2, 2, 2]
    assert f.value(OMEGA) == 2


def test_ladder_analysis(gens):
    f = 3 * gens["a_2"] - gens["a_0"]
    assert f.residue_at("q") == {WeightFn("factorial"): Fraction(1, 2)}
    assert f.settle_index("q") == 2
    assert f.tail_start("q") == 2
    assert f.mu("q") == 0  # first on-ladder support point
    assert gens["a_3"].mu("q") == 3
    assert gens["a_0"].domain.e(from_int(5)).mu("q") == 5
    assert gens["a_0"].domain.zero().mu("q") is None


def settle_from(terms, n):
    """The settle index by its definition: the least index at or past n and
    past every monotone index at which the dominant term outweighs the
    others, evaluating every weight at that index."""
    *rest, (dom, c) = terms
    n = max([n] + [dominance_monotone_from(dom, w) for w, _ in rest])
    while abs(c) * dom.value(n) <= sum(abs(r) * w.value(n) for w, r in rest):
        n += 1
    return n


WEIGHTS = st.one_of(
    st.builds(WeightFn, st.just("constant"), st.integers(1, 6)),
    st.builds(WeightFn, st.sampled_from(["geometric", "factgeom"]), st.integers(2, 6)),
    st.just(WeightFn("factorial")),
)


@given(
    # a ladder's weights: distinct, with at most one constant
    weights=st.lists(
        WEIGHTS,
        min_size=2,
        max_size=4,
        unique_by=lambda w: w.kind if w.kind == "constant" else w.dominance_key(),
    ),
    coeffs=st.lists(st.integers(-10**6, 10**6).filter(bool), min_size=4, max_size=4),
    start=st.integers(0, 40),
)
def test_settle_matches_its_definition(weights, coeffs, start):
    terms = list(zip(sorted(weights, key=WeightFn.dominance_key), coeffs))
    assert _settle(terms, start) == settle_from(terms, start)


def test_two_weight_settle_at_a_far_start_is_cheap():
    # limit_power_two_weights carries k! and k! 2^k on one ladder
    d = presets.load("limit_power_two_weights").domain
    f = d.tail("pw", 1, 80_000, weight="factorial") - d.tail(
        "pw", 1, 80_000, weight="factgeom(2)"
    )
    t0 = time.perf_counter()
    assert f.settle_index("pw") == 80_000
    assert time.perf_counter() - t0 < 0.05


@given(
    weights=st.lists(
        WEIGHTS,
        min_size=1,
        max_size=3,
        unique_by=lambda w: w.kind if w.kind == "constant" else w.dominance_key(),
    ),
    data=st.data(),
    k=st.integers(0, 10),
    v=st.one_of(st.just(0), st.integers(-50, 50)),
)
@settings(max_examples=300)
def test_makes_up_matches_its_definition(weights, data, k, v):
    raw = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, 15),
                st.sampled_from(weights),
                st.integers(-6, 6).filter(bool),
            ),
            max_size=4,
        )
    )
    # partners that cancel some terms weight by weight, from other starts
    starts = data.draw(st.lists(st.integers(0, 15), max_size=len(raw)))
    raw += [(s, w, -n) for s, (_, w, n) in zip(starts, raw)]
    # the formula the shortcuts must agree with: every late term evaluated
    assert _makes_up(v, raw, k) == (
        v == sum(n * w.value(k) for start, w, n in raw if start > k)
    )


def test_makes_up_one_index_before_the_sum_settles():
    # 4 - 2^k is 0 at k = 2 and negative from k = 3 on
    c4, g2 = WeightFn("constant", 4), WeightFn("geometric", 2)
    raw = [(5, c4, 1), (5, g2, -1)]
    assert _makes_up(0, raw, 2)
    assert not _makes_up(0, raw, 3)


def test_two_weight_difference_at_a_far_start_is_cheap():
    # both terms start at 80 000, so canonicalizing tests index 79 999 with
    # the late terms of mixed signs; no factorial-sized value is evaluated
    d = presets.load("limit_power_two_weights").domain
    t0 = time.perf_counter()
    f = d.tail("pw", 1, 80_000, weight="factorial") - d.tail(
        "pw", 1, 80_000, weight="factgeom(2)"
    )
    assert time.perf_counter() - t0 < 0.05
    assert f.tail_start("pw") == 80_000


def test_tail_cancellation_leaves_prefix(gens):
    d = gens["a_0"].domain
    f = 2 * gens["a_2"] - gens["a_0"]
    assert f == -d.e(from_int(0)) - d.e(from_int(1))
    assert not f.tails


# --- window-derived queries against brute force ---------------------------------

ORACLE_PRESETS = {
    n: presets.load(n)
    for n in ("limitq", "twoblock", "two_prime", "limit_power_two_weights")
}


def brute_value(f, L, k):
    """Prefix value plus every started tail term, summed as fractions."""
    total = dict(f.prefix).get(L.point(k), 0) + sum(
        t.coeff * t.weight.value(k) for t in f.tails_on(L.id) if k >= t.start
    )
    assert total.denominator == 1
    return int(total)


@pytest.mark.parametrize("name", sorted(ORACLE_PRESETS))
@given(data=st.data())
def test_ladder_queries_match_brute_force(name, data):
    pres = ORACLE_PRESETS[name]
    check_ladder_queries(pres, data.draw(combos(pres)))


# On pw, k! and k! 2^k from index 0: the values -1, 0, 4, 36, ... and
# 2, 1, -2, -30, ... change sign before the settle index 2, with no prefix.
@pytest.mark.parametrize(
    "coeffs", [{"h_0": 1, "f_0": -2}, {"f_0": 3, "h_0": -1}, {"h_0": -1, "f_0": 2}]
)
def test_ladder_queries_inside_the_settle_range(coeffs):
    pres = ORACLE_PRESETS["limit_power_two_weights"]
    f = pres.domain.combine(
        list(coeffs.values()), [pres.generator(n) for n in coeffs]
    )
    assert not f.on and f.settle_index("pw") == 2
    check_ladder_queries(pres, f)
    zero = pres.domain.zero()
    assert f.meet(zero) == subtract_meet(f, zero)


def check_ladder_queries(pres, f):
    """settle_index, mu, support and is_nonneg of f against its values."""
    on_ladder = set()
    points = set()
    nonneg = True
    for L in pres.domain.ladders:
        settle = f.settle_index(L.id)
        vals = [brute_value(f, L, k) for k in range(settle + 3)]
        on_ladder.update(L.point(k) for k in range(settle + 3))
        nonneg = nonneg and min(vals) >= 0
        terms = f.tails_on(L.id)
        nonzero = [k for k, v in enumerate(vals) if v]
        assert f.mu(L.id) == (nonzero[0] if nonzero else None)
        if not terms:
            # identically zero from one past the last nonzero value
            assert settle == (nonzero[-1] + 1 if nonzero else 0)
            points.update(L.point(k) for k in nonzero)
            continue
        # the canonical record: one common start, weights in ascending
        # dominance, and the eventual sign carried by the last term
        assert len({t.start for t in terms}) == 1
        keys = [t.weight.dominance_key() for t in terms]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        residue = {}
        for t in terms:
            residue[t.weight] = residue.get(t.weight, 0) + t.coeff
        sign = 1 if residue[max(residue, key=WeightFn.dominance_key)] > 0 else -1
        assert sign == (1 if terms[-1].coeff > 0 else -1)
        assert settle >= terms[0].start
        if len(residue) == 1:  # nothing to outweigh: settled from the start
            assert settle == terms[0].start
        for k in range(settle, settle + 3):
            # the tail formula, with the dominant weight's sign
            assert vals[k] == sum(r * w.value(k) for w, r in residue.items())
            assert vals[k] * sign > 0
        rho = settle
        while rho and vals[rho - 1]:
            rho -= 1
        assert (L.id, rho) in f.support().regimes
        points.update(L.point(k) for k in nonzero if k < rho)
    off = [(x, v) for x, v in f.prefix if x not in on_ladder]
    assert all(pres.domain.locate(x) is None for x, _ in off)
    points.update(x for x, _ in off)
    nonneg = nonneg and all(v >= 0 for _, v in off)
    assert f.support().points == points
    assert len(f.support().regimes) == len({t.ladder_id for t in f.tails})
    assert f.is_nonneg() == nonneg


# --- index-keyed arithmetic against the literal entry -----------------------------


def literal_tails(c, g):
    """g's tail terms, times c, as Domain.literal reads them."""
    return [(c, t.ladder_id, t.coeff, t.start, t.weight.label()) for t in g.tails]


@pytest.mark.parametrize("name", sorted(ORACLE_PRESETS))
@given(data=st.data())
def test_indexed_results_match_ordinal_entry(name, data):
    pres = ORACLE_PRESETS[name]
    d = pres.domain
    f = data.draw(combos(pres))
    g = data.draw(combos(pres))
    n = data.draw(st.integers(-4, 4))
    coeffs = data.draw(st.lists(st.integers(-3, 3), max_size=4))
    results = [
        -f,
        f + g,
        n * f,
        f.meet(g),
        f.join(g),
        d.combine(coeffs, [f, g, -f, g][: len(coeffs)]),
    ]
    for h in results:
        assert d.literal(h.prefix, literal_tails(1, h)) == h
        assert element_from_json(d, element_to_json(h)) == h


# --- group laws ------------------------------------------------------------------


@given(st.data())
def test_abelian_group_laws(any_pres, data):
    f = data.draw(combos(any_pres))
    g = data.draw(combos(any_pres))
    h = data.draw(combos(any_pres))
    zero = any_pres.domain.zero()
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f + zero == f
    assert f + (-f) == zero
    assert 3 * f == f + f + f
    assert 0 * f == zero
    assert (-2) * f == -(f + f)


# --- lattice laws -----------------------------------------------------------------


@given(st.data())
def test_lattice_laws(any_pres, data):
    f = data.draw(combos(any_pres))
    g = data.draw(combos(any_pres))
    h = data.draw(combos(any_pres))
    assert f.meet(g) == g.meet(f)
    assert f.join(g) == g.join(f)
    assert f.meet(g).meet(h) == f.meet(g.meet(h))
    assert f.meet(f) == f
    assert f.join(f.meet(g)) == f
    assert f.meet(f.join(g)) == f
    # group translation respects the order
    assert h + f.meet(g) == (h + f).meet(h + g)
    assert f.meet(g).is_nonneg() or not (f.is_nonneg() and g.is_nonneg())


@given(st.data())
def test_meet_is_pointwise_min_on_ladder(any_pres, data):
    f = data.draw(combos(any_pres))
    g = data.draw(combos(any_pres))
    m = f.meet(g)
    lid = any_pres.domain.ladders[0].id
    L = any_pres.domain.ladder(lid)
    for k in range(12):
        x = L.point(k)
        assert m.value(x) == min(f.value(x), g.value(x))


def eventual_min(f, g, lid):
    """Residue vector of the eventually smaller side: the one whose
    coefficient on the most dominant weight where they differ is smaller."""
    rf, rg = f.residue_at(lid), g.residue_at(lid)
    for w in sorted(rf, key=WeightFn.dominance_key, reverse=True):
        if rf[w] != rg[w]:
            return rf if rf[w] < rg[w] else rg
    return rf


@st.composite
def near_ties(draw, pres):
    """(f, g) with g = f plus or minus a spike or a tail on the least
    dominant weight of a ladder, which leave the decisive weight to a low
    term or to no term at all; or plus big * low - top, whose sign on a
    two-weight ladder turns only where top(k) passes big * low(k); or g
    drawn on its own."""
    d = pres.domain
    f = draw(combos(pres))
    kind = draw(st.sampled_from(("spike", "low tail", "crossing", "free")))
    if kind == "free":
        return f, draw(combos(pres))
    L = draw(st.sampled_from(d.ladders))
    k = draw(st.integers(0, 8))
    c = draw(st.sampled_from((-2, -1, 1, 2)))
    if kind == "spike":
        return f, f + c * d.e(L.point(k))
    low = min(L.weights, key=WeightFn.dominance_key)
    g = f + d.tail(L.id, c, k, weight=low.label())
    if kind == "crossing":
        big = draw(st.sampled_from((3, 50, 1000)))
        top = max(L.weights, key=WeightFn.dominance_key)
        g = g + d.tail(L.id, c * (big - 1), k, weight=low.label())
        g = g - d.tail(L.id, c, k, weight=top.label())
    return f, g


@pytest.mark.parametrize("name", sorted(ORACLE_PRESETS))
@given(data=st.data())
def test_meet_matches_subtract_meet(name, data):
    pres = ORACLE_PRESETS[name]
    f, g = data.draw(near_ties(pres))
    m = f.meet(g)
    assert m == subtract_meet(f, g)
    for L in pres.domain.ladders:
        top = max(h.settle_index(L.id) for h in (f, g, m)) + 3
        for k in range(top):
            x = L.point(k)
            assert m.value(x) == min(f.value(x), g.value(x))
        assert m.residue_at(L.id) == eventual_min(f, g, L.id)
    for x, _ in f.off + g.off:
        assert m.value(x) == min(f.value(x), g.value(x))


@st.composite
def lattice_pairs(draw, pres):
    """(f, g) for the direct-build meet and join: near ties (equal
    residues, or residues that differ only on a low weight); one side
    shifted by a tail that starts at one index and is taken back from
    another, which keeps the residue and moves the start below or above
    the other side's; zero on either side; f against f; f against -f."""
    d = pres.domain
    kind = draw(st.sampled_from(("near", "shifted", "zero", "self", "negated")))
    if kind == "near":
        f, g = draw(near_ties(pres))
    else:
        f = draw(combos(pres))
        g = {"zero": d.zero(), "self": f, "negated": -f}.get(kind)
        if g is None:
            L = draw(st.sampled_from(d.ladders))
            w = draw(st.sampled_from(L.weights)).label()
            c = draw(st.sampled_from((-2, -1, 1, 2)))
            k1, k2 = draw(st.integers(0, 8)), draw(st.integers(0, 8))
            g = f + d.tail(L.id, c, k1, weight=w) - d.tail(L.id, c, k2, weight=w)
    return (g, f) if draw(st.booleans()) else (f, g)


@pytest.mark.parametrize("name", sorted(ORACLE_PRESETS))
@given(data=st.data())
@settings(max_examples=150)
def test_lattice_operations_match_the_earlier_meet(name, data):
    pres = ORACLE_PRESETS[name]
    f, g = data.draw(lattice_pairs(pres))
    zero = pres.domain.zero()
    assert f.meet(g) == reference_meet(f, g)
    assert f.join(g) == reference_join(f, g)
    assert f.plus_part() == reference_join(f, zero)
    assert f.minus_part() == reference_meet(f, zero)


def test_meet_start_rises_above_the_survivors():
    # f survives (3 against 73/24 on the factorial weight) from its start
    # 0, but at index 0 g is 0 < 3 = f: the meet's start rises to 1, one
    # past the last index where the minimum departs from f's formula.  A
    # walk down from f's start alone would keep 0.
    d = ORACLE_PRESETS["twoblock"].domain
    f = parse_element(
        d, "e(0) + e(2) + tail(ladder=main, weight=factorial, r=3, start=0)"
    )
    g = parse_element(
        d,
        "2*e(0) + 3*e(w+2) + 6*e(w+3) + 18*e(w+4)"
        " + tail(ladder=main, weight=factorial, r=73/24, start=4)",
    )
    m = f.meet(g)
    assert m == reference_meet(f, g)
    assert m.tail_start("main") == 1
    assert format_element(m) == (
        "e(0) + tail(ladder=main, weight=factorial, r=3, start=1)"
    )
    assert f.join(g) == reference_join(f, g)
    assert f.join(g).tail_start("main") == 4


def test_meet_start_falls_below_the_survivors(limitq):
    # f survives (1 against 2 on the factorial weight) from its start 2,
    # and below it the minimum is g's values 1 = 0! and 1 = 1!, which are
    # f's formula: the walk down takes the meet's start to 0
    d = limitq.domain
    f = parse_element(
        d, "5*e(0) + 5*e(1) + tail(ladder=q, weight=factorial, r=1, start=2)"
    )
    g = parse_element(
        d, "e(0) + e(1) + tail(ladder=q, weight=factorial, r=2, start=2)"
    )
    m = f.meet(g)
    assert m == reference_meet(f, g)
    assert f.tail_start("q") == 2
    assert m.tail_start("q") == 0
    assert format_element(m) == "tail(ladder=q, weight=factorial, r=1, start=0)"
    assert f.join(g) == reference_join(f, g)
    assert f.join(g).tail_start("q") == 2


def test_meet_where_no_term_survives(limitq):
    # g has no tail, so its residue 0 survives the meet with f's k!: the
    # meet is the minimum below g's settle index 2 and has no tail
    d = limitq.domain
    f = parse_element(d, "tail(ladder=q, weight=factorial, r=1, start=0)")
    g = parse_element(d, "3*e(1)")
    m = f.meet(g)
    assert m == reference_meet(f, g)
    assert m.tail_start("q") is None
    assert format_element(m) == "e(1)"
    j = f.join(g)
    assert j == reference_join(f, g)
    assert j.tail_start("q") == 2
    assert (-f).join(-g) == -m == reference_join(-f, -g)


@given(st.data())
def test_positive_negative_split(any_pres, data):
    f = data.draw(combos(any_pres))
    plus, minus = f.plus_part(), f.minus_part()
    assert plus + minus == f
    assert plus.is_nonneg()
    assert (-minus).is_nonneg()
    assert plus.meet(-minus) == any_pres.domain.zero()


def test_nonneg_frozen(gens):
    assert gens["a_0"].is_nonneg()
    assert not (-gens["a_0"]).is_nonneg()
    assert not (gens["a_0"] - 3 * gens["a_2"]).is_nonneg()
    assert gens["a_0"].domain.zero().is_nonneg()


def test_same_support(gens):
    a0 = gens["a_0"]
    assert a0.same_support(2 * a0)
    assert a0.same_support(-a0)
    assert not a0.same_support(gens["a_1"])
    assert not a0.same_support(a0.domain.zero())


# --- closure rank of the support ----------------------------------------------------


def test_cb_frozen(gens):
    d = gens["a_0"].domain
    assert gens["a_0"].cb() == ONE  # tail accumulates at the ladder target
    assert d.e(from_int(0)).cb() == ZERO
    with pytest.raises(ValueError):
        d.zero().cb()


@given(st.data())
def test_cb_of_positive_sum_is_max(any_pres, data):
    f = data.draw(combos(any_pres)).plus_part()
    g = data.draw(combos(any_pres)).plus_part()
    if f.is_zero or g.is_zero:
        return
    want = max(f.cb(), g.cb(), key=lambda o: o.key())
    assert (f + g).cb() == want


# --- bounded ratios -----------------------------------------------------------------


def test_bounded_ratio_frozen(gens):
    a0 = gens["a_0"]
    assert bounded_ratio_witness(a0, 3 * a0) == 3
    assert (3 * a0 - 3 * a0).is_zero
    assert (2 * a0 - 3 * a0).is_nonneg() is False  # 3 is minimal
    d = a0.domain
    assert bounded_ratio_witness(d.e(from_int(0)), a0) is None  # supports differ
    assert bounded_ratio_witness(a0, d.zero()) is None
    assert bounded_ratio_witness(d.zero(), d.zero()) == 1
    with pytest.raises(ValueError):
        bounded_ratio_witness(a0, -a0)


def test_bounded_ratio_past_two_to_the_63(gens):
    # the same support and dominant weight bound the ratio, however large
    a0 = gens["a_0"]
    assert bounded_ratio_witness(a0, 2**70 * a0) == 2**70
    n = math.factorial(30)
    assert bounded_ratio_witness(a0, n * a0 + a0) == n + 1


def test_bounded_ratio_two_weights():
    # the dominant weight decides: no multiple of a factorial tail catches
    # a factgeom(2) one
    pres = presets.load("limit_power_two_weights")
    f0, h0 = pres.generator("f_0"), pres.generator("h_0")
    f2, h2 = pres.generator("f_2"), pres.generator("h_2")
    assert bounded_ratio_witness(f0, h0) is None
    assert bounded_ratio_witness(h0, f0) == 1
    assert bounded_ratio_witness(f2 + h2, 3 * h2) == 3
    assert bounded_ratio_witness(h2, f2 + h2) == 2


@given(st.integers(1, 40), st.integers(0, 3))
def test_bounded_ratio_exact_multiples(limitq, m, k):
    a0 = limitq.generator("a_0")
    a2 = limitq.generator("a_2")
    g = m * a0 + k * a0.meet(a2)
    n = bounded_ratio_witness(a0, g)
    assert n is not None
    assert (n * a0 - g).is_nonneg()
    if n > 1:
        assert not ((n - 1) * a0 - g).is_nonneg()


# --- semibasic elements ----------------------------------------------------------


def test_is_semibasic(gens):
    d = gens["a_0"].domain
    assert is_semibasic(d.e(from_int(3)), from_int(3))
    assert not is_semibasic(gens["a_0"], from_int(0))  # support reaches the target
    assert not is_semibasic(2 * d.e(from_int(3)), from_int(3))
    assert not is_semibasic(d.e(from_int(3)) - d.e(from_int(1)), from_int(3))
    assert not is_semibasic(d.e(from_int(3)), OMEGA)  # ladder target


# --- linear combinations ------------------------------------------------------------

# one ladder; two ladders; two weights on one ladder
COMBINE_PRESETS = {
    n: presets.load(n) for n in ("limitq", "two_prime", "limit_power_two_weights")
}


def fold(domain, coeffs, elements):
    """The reference sum: every ordinal prefix value and tail term scaled
    and listed by hand, then canonicalized once through Domain.literal,
    so that neither Domain.combine nor + and * take part."""
    points = []
    tails = []
    for c, g in zip(coeffs, elements):
        points += [(x, c * v) for x, v in g.prefix]
        tails += literal_tails(c, g)
    return domain.literal(points, tails)


@pytest.mark.parametrize("name", sorted(COMBINE_PRESETS))
@given(data=st.data())
def test_combine_equals_fold(name, data):
    pres = COMBINE_PRESETS[name]
    picks = data.draw(st.lists(st.sampled_from(pres.elements), max_size=6))
    coeffs = data.draw(st.lists(st.integers(-6, 6), max_size=6))
    # combine pairs strictly: the drawn lists pair up to the shorter one
    n = min(len(picks), len(coeffs))
    picks, coeffs = picks[:n], coeffs[:n]
    assert pres.domain.combine(coeffs, picks) == fold(pres.domain, coeffs, picks)


@pytest.mark.parametrize("name", sorted(COMBINE_PRESETS))
def test_combine_cancels_to_zero(name):
    pres = COMBINE_PRESETS[name]
    g = pres.elements[-1]
    assert pres.domain.combine([], []) == pres.domain.zero()
    assert pres.domain.combine([0, 0], [g, g]).is_zero
    assert pres.domain.combine([3, -1, -2], [g, g, g]).is_zero


def test_combine_guards(limitq):
    d = limitq.domain
    a0 = limitq.generator("a_0")
    foreign = COMBINE_PRESETS["two_prime"].elements[0]
    for c in (1, 0):  # a zero coefficient is no excuse
        with pytest.raises(ValueError, match="different domains"):
            d.combine([1, c], [a0, foreign])
        with pytest.raises(ValueError, match="different domains"):
            a0 + c * foreign
    for bad in (1.5, "2"):
        with pytest.raises(TypeError):
            d.combine([bad], [a0])
        with pytest.raises(TypeError):
            bad * a0


@pytest.mark.parametrize(
    "coeffs, count",
    [([1, 0], 1), ([1], 2)],
    ids=["more_coefficients", "more_elements"],
)
def test_combine_refuses_unequal_lengths(limitq, coeffs, count):
    # an extra item, even a zero coefficient, is refused, not dropped
    a0 = limitq.generator("a_0")
    with pytest.raises(ValueError, match="zip"):
        limitq.domain.combine(coeffs, [a0] * count)


# --- the canonical form against the earlier canonicalizer ------------------------

# two ladders: three weights on one, two on the other; points off both
RAW_DOMAIN = Domain(
    ScatteredSpace(parse_ordinal("w*2 + 2")),
    (
        Ladder(
            "a",
            "arith",
            OMEGA,
            (WeightFn("constant", 2), WeightFn("geometric", 2), WeightFn("factorial")),
            first=ONE,
            step=ONE,
        ),
        Ladder(
            "b",
            "arith",
            parse_ordinal("w*2"),
            (WeightFn("factorial"), WeightFn("factgeom", 2)),
            first=parse_ordinal("w + 1"),
            step=ONE,
        ),
    ),
)
RAW_OFF_POINTS = [parse_ordinal(x) for x in ("0", "w*2 + 1", "w*2 + 2")]


@st.composite
def raw_data(draw):
    """_canonical input on RAW_DOMAIN: values off the ladders and by ladder
    index (0 among them), and tail terms with starts up to 12, each
    integral from its start, over mixed denominators, with repeated
    (start, weight) pairs and partners that cancel a term exactly over a
    larger denominator."""
    off = {}
    for x in draw(st.lists(st.sampled_from(RAW_OFF_POINTS), max_size=3)):
        off[x] = off.get(x, 0) + draw(st.integers(-3, 3))
    on = {
        L.id: draw(st.dictionaries(st.integers(0, 12), st.integers(-4, 4), max_size=4))
        for L in draw(st.lists(st.sampled_from(RAW_DOMAIN.ladders), unique=True))
    }
    tails = []
    for _ in range(draw(st.integers(0, 5))):
        L = draw(st.sampled_from(RAW_DOMAIN.ladders))
        w = draw(st.sampled_from(L.weights))
        start = draw(st.integers(0, 12))
        den = math.gcd(w.value(start), draw(st.integers(1, 720)))
        num = draw(st.integers(-6, 6).filter(bool))
        tails.append(TailTerm(L.id, w, num, den, start))
        if draw(st.booleans()):
            m = draw(st.integers(1, 3))
            tails.append(TailTerm(L.id, w, -num * m, den * m, start))
    return off, on, tails


@given(data=raw_data())
@settings(max_examples=400)
def test_canonical_matches_the_earlier_canonicalizer(data):
    off, on, tails = data
    assert _canonical(RAW_DOMAIN, off, tails, on) == reference_canonical(
        RAW_DOMAIN, off, tails, on
    )


SCALE_PRESETS = ("limitq", "two_prime", "limit_power_two_weights")


def _pinned(d, f):
    """f with its value just below each tail start set to the tail formula
    there, where that is an integer: such a start is then held only by a
    term that is not integral below it, if by anything."""
    spikes = []
    for lid, terms in f._terms.items():
        k = terms[0].start - 1
        if k < 0:
            continue
        total = sum(t.num * t.weight.value(k) for t in terms)
        if total % terms[0].den == 0:
            spikes.append((d.ladder(lid).point(k), total // terms[0].den - f._at(lid, k)))
    return reference_combine(d, [1, 1], [f, d.literal(spikes, ())])


def _scale_operand(name, data):
    """A canonical element with tail denominators above 1: a combination
    of preset generators (a_n carries 1/n!), now and then met with
    another, or one canonicalized from drawn raw data; now and then
    pinned below its tail starts."""
    if name == "raw":
        d = RAW_DOMAIN
        off, on, tails = data.draw(raw_data())
        f = reference_canonical(d, off, tails, on)
    else:
        pres = presets.load(name)
        d = pres.domain
        f = data.draw(combos(pres))
        if data.draw(st.booleans()):
            f = f.meet(data.draw(combos(pres)))
    if data.draw(st.booleans()):
        f = _pinned(d, f)
    return d, f


@pytest.mark.parametrize("name", [*SCALE_PRESETS, "raw"])
@given(data=st.data(), c=st.integers(-12, 12))
@settings(max_examples=150)
def test_multiples_match_the_earlier_canonicalizer(name, data, c):
    d, f = _scale_operand(name, data)
    _, g = _scale_operand(name, data)
    zero = d.zero()
    assert c * f == reference_combine(d, [c], [f])
    assert -f == reference_combine(d, [-1], [f])
    # one nonzero term among zero coefficients and zero elements
    coeffs, elements = [0, c, 5, 0], [g, f, zero, f]
    assert d.combine(coeffs, elements) == reference_combine(d, coeffs, elements)
    # every term zero
    coeffs, elements = [0, 0, 3], [f, g, zero]
    assert d.combine(coeffs, elements) == reference_combine(d, coeffs, elements)
    assert d.combine([], []) == zero


def test_a_multiple_whose_denominator_shrinks_can_lower_the_start():
    # f = f_3 + 2*h_3 + 3*e(pw point 2): at index 2 neither 2!/6 nor
    # 2*(2!*2^2)/6 is an integer, but their sum 3 is f's value there, so
    # f's tails start at 3.  Times 3 or 6 both terms are integral at 2 and
    # the start falls to 2; times 2 the first term is still not.
    pres = presets.load("limit_power_two_weights")
    d = pres.domain
    f = (
        pres.generator("f_3")
        + 2 * pres.generator("h_3")
        + 3 * d.e(d.ladder("pw").point(2))
    )
    assert f.tail_start("pw") == 3
    for c, start in ((2, 3), (3, 2), (6, 2), (-3, 2)):
        assert (c * f).tail_start("pw") == start
        assert c * f == reference_combine(d, [c], [f]) == f + (c - 1) * f


# --- the direct sum against the earlier canonicalizer ------------------------------

SUM_PRESETS = {
    n: presets.load(n)
    for n in ("limitq", "twoblock", "gridrows", "two_prime", "limit_power_two_weights")
}


@st.composite
def sum_operand(draw, name):
    """A canonical element: a combination of preset generators, now and
    then met with another, or one canonicalized from drawn raw data."""
    if name == "raw":
        off, on, tails = draw(raw_data())
        return reference_canonical(RAW_DOMAIN, off, tails, on)
    pres = SUM_PRESETS[name]
    f = draw(combos(pres))
    if draw(st.booleans()):
        f = f.meet(draw(combos(pres)))
    return f


@st.composite
def sum_pairs(draw, name):
    """(domain, f, g) for the direct sum, in either order:
    - free: two operands;
    - equal: equal starts k+1 on a ladder, each side leaving its formula
      at k by a spike that the other side's spike cancels;
    - cancel: g = c*r - f, so the residues cancel fully (r a spike) or on
      all but one weight (r a tail of that weight);
    - one-sided: f has tails on a ladder from s, and g holds only spikes
      there, the last at s-1, s or above s."""
    d = RAW_DOMAIN if name == "raw" else SUM_PRESETS[name].domain
    f = draw(sum_operand(name))
    kind = draw(st.sampled_from(("free", "equal", "cancel", "one-sided")))
    L = draw(st.sampled_from(d.ladders))
    w = draw(st.sampled_from(L.weights)).label()
    c = draw(st.sampled_from((-2, -1, 1, 2)))
    k = draw(st.integers(0, 8))
    if kind == "free":
        g = draw(sum_operand(name))
    elif kind == "cancel":
        r = d.e(L.point(k)) if draw(st.booleans()) else d.tail(L.id, 1, k, weight=w)
        g = c * r - f
    else:
        if not f.tails_on(L.id):
            f = f + d.tail(L.id, c, k, weight=w)
        s = f.tail_start(L.id)
        if s is None:  # the tail cancelled f's own
            g = draw(sum_operand(name))
        elif kind == "equal":
            m = draw(st.sampled_from((-2, -1, 1, 3)))
            j = s + draw(st.integers(0, 2))
            spike = d.e(L.point(j))
            g = m * f + draw(st.integers(-2, 2)) * d.tail(L.id, 1, j, weight=w)
            f, g = f + c * spike, g - c * spike
        else:
            top = max(0, s + draw(st.integers(-1, 2)))
            ks = draw(st.lists(st.integers(0, top), max_size=2)) + [top]
            g = d.literal([(L.point(i), draw(st.sampled_from((-2, -1, 1, 3)))) for i in ks], ())
    return (d, g, f) if draw(st.booleans()) else (d, f, g)


def _maps_are_fresh(h):
    """Every map that h's builder stored, and every settle index h
    memoized, equals one derived afresh from h's fields."""
    assert h._terms == {
        lid: tuple(ts) for lid, ts in groupby(h.tails, key=lambda t: t.ladder_id)
    }
    assert h._onmap == {lid: dict(kv) for lid, kv in h.on}
    for L in h.domain.ladders:
        terms = [(t.weight, t.num) for t in h.tails if t.ladder_id == L.id]
        if terms:
            want = settle_from(terms, h.tail_start(L.id))
        else:
            want = 1 + max((k for k, _ in dict(h.on).get(L.id, ())), default=-1)
        assert h.settle_index(L.id) == want


@pytest.mark.parametrize("name", [*SUM_PRESETS, "raw"])
@given(data=st.data(), c=st.integers(-4, 4), e=st.integers(-4, 4))
@settings(max_examples=150)
def test_sums_match_the_earlier_canonicalizer(name, data, c, e):
    d, f, g = data.draw(sum_pairs(name))
    for coeffs, got in (
        ([1, 1], f + g),
        ([1, -1], f - g),
        ([c, e], d.combine((c, e), (f, g))),
    ):
        assert got == reference_combine(d, coeffs, [f, g])
        _maps_are_fresh(got)
    for h in (f.meet(g), f.join(g), c * f):
        _maps_are_fresh(h)


def test_sum_start_rules(gens):
    # one-sided tails: a prefix value at or past the start raises it
    d = gens["a_0"].domain
    p3 = d.e(d.ladder("q").point(3))
    assert (gens["a_0"] + p3).tail_start("q") == 4
    assert (gens["a_3"] + p3).tail_start("q") == 4
    assert (gens["a_4"] + p3).tail_start("q") == 4  # walked down: 1/24*3! is not integral
    # equal starts whose departures cancel walk down
    f, g = gens["a_0"] + p3, gens["a_0"] - p3
    assert f.tail_start("q") == g.tail_start("q") == 4
    assert f + g == 2 * gens["a_0"]
    assert (f + g).tail_start("q") == 0
    # different starts: the later one; 1/2 + 1/120 is not integral at 4
    assert (gens["a_2"] + gens["a_5"]).tail_start("q") == 5
    # every term cancels: no tail, the values below the start remain
    assert format_element(f - gens["a_0"]) == "e(3)"


def test_three_terms_cancelling_a_far_spike_stay_cheap(limitq):
    # e(p) + a_0 holds a value at each of the 400 001 indices up to p; the
    # three-term sum is canonicalized once, where the spikes cancel first
    d, a0 = limitq.domain, limitq.generator("a_0")
    p = d.ladder("q").point(400_000)
    t0 = time.perf_counter()
    assert d.combine([1, 1, -1], [d.e(p), a0, d.e(p)]) == a0
    assert time.perf_counter() - t0 < 0.1


# --- literals --------------------------------------------------------------------


def test_format_frozen(gens):
    assert format_element(gens["a_0"]) == "tail(ladder=q, weight=factorial, r=1, start=0)"
    d = gens["a_0"].domain
    assert format_element(d.zero()) == "0"
    f = 2 * gens["a_2"] - gens["a_0"]
    assert format_element(f) == "-e(0) - e(1)"


@given(st.data())
def test_format_parse_roundtrip(any_pres, data):
    f = data.draw(combos(any_pres))
    assert parse_element(any_pres.domain, format_element(f)) == f


def test_parse_element_errors(limitq):
    with pytest.raises(ValueError) as exc:
        parse_element(limitq.domain, "e(0) + nonsense")
    assert "offset 7" in str(exc.value)


# --- the literal entry ---------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "e(w) - e(w)",  # a target is refused even where its values cancel
        "0*e(w)",
        "0*tail(ladder=q, r=1/6, start=0)",  # checked though scaled to 0
        "3*tail(ladder=q, r=1/6, start=2)",  # checked before it is scaled
        "tail(ladder=q, r=0, start=1)",
        "tail(ladder=q, r=1, start=-1)",
        "tail(ladder=q, r=1/0, start=1)",
        "tail(ladder=q, r=1, start=1, start=2)",
        "tail(ladder=q, ladder=q, r=1, start=1)",
        "tail(ladder=q, weight=factorial, weight=factorial, r=1, start=1)",
    ],
)
def test_literal_refusals(limitq, text):
    with pytest.raises(ValueError):
        parse_element(limitq.domain, text)


def test_literal_checks_every_listed_term(limitq):
    d = limitq.domain
    with pytest.raises(ValueError, match="ladder target"):
        d.literal([(OMEGA, 1), (OMEGA, -1)], [])
    with pytest.raises(ValueError, match="not integral"):
        d.literal([], [(0, "q", Fraction(1, 6), 0, None)])
    with pytest.raises(ValueError, match="zero denominator"):
        d.literal([], [(1, "q", "1/0", 1, None)])
    assert d.literal([(from_int(3), 2), (from_int(3), -2)], []).is_zero
    assert d.literal([], [(2, "q", "1/2", 2, None), (-1, "q", 1, 2, None)]).is_zero


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_spikes_are_built_as_literal_builds_them(name):
    # e(x) is canonical as built: the one prefix value of the literal, at
    # its ladder index or off the ladders
    d = presets.load(name).domain
    pts = {L.point(k) for L in d.ladders for k in range(12)}
    pts |= {from_int(k) for k in range(6)}
    for x in sorted(pts, key=Ordinal.key):
        if d.space.contains(x) and d.target_ladder(x) is None:
            assert d.e(x) == d.literal(((x, 1),), ()), format_ordinal(x)
    on_target = "{} is a ladder target; values there are set by tails"
    bad = [(L.target, on_target.format(format_ordinal(L.target))) for L in d.ladders]
    far = successor(d.space.top)
    bad.append((far, f"point {format_ordinal(far)} outside the space"))
    for x, message in bad:
        for build in (d.e, lambda x: d.literal(((x, 1),), ())):
            with pytest.raises(ValueError) as err:
                build(x)
            assert str(err.value) == message


def test_literal_cancellation_at_a_far_index_is_cheap(limitq):
    # what cancels never reaches the canonical scan
    d = limitq.domain
    far = d.ladder("q").point(10**6)
    t0 = time.perf_counter()
    f = d.literal([(far, 0)], [(1, "q", 1, 0, None)])
    far_tails = [(1, "q", 1, 10**6, None), (-1, "q", 1, 10**6, None)]
    g = d.literal([], [(1, "q", 1, 0, None)] + far_tails)
    assert time.perf_counter() - t0 < 0.1
    assert f == g == d.tail("q", 1, 0)


def _fastest(build, runs=3):
    """The least time of a few calls to build, and what it built."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        out = build()
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_combine_cancelled_far_value_is_cheap(limitq):
    # the 0 that e(p) - e(p) leaves at index 400 000 does not start the
    # canonical walk down there
    d = limitq.domain
    p = d.ladder("q").point(400_000)
    g = d.tail("q", 1, 0)
    spent, f = _fastest(lambda: d.combine([1, -1, 1], [d.e(p), d.e(p), g]))
    assert spent < 0.01
    assert f == g


def test_literal_far_terms_cancel_over_one_denominator(limitq):
    # 2 * tail(q, 1/2, K) and -tail(q, 1, K) are kept apart by denominator
    # until the ladder's denominator merges them, where they cancel
    d = limitq.domain
    K = 100_000
    tails = [(1, "q", 1, 0, None), (2, "q", "1/2", K, None), (-1, "q", 1, K, None)]
    spent, f = _fastest(lambda: d.literal([], tails))
    assert spent < 0.01
    assert f == d.tail("q", 1, 0)


def _grammar_texts(pres):
    """Literal texts drawn from the element grammar: spacing, signs, 0*
    and other multipliers, parenthesised weight labels, and, now and then,
    an atom that is refused.  No tail repeats an argument or has a zero
    denominator."""
    d = pres.domain
    ladders = [L.id for L in d.ladders]
    labels = sorted({w.label() for L in d.ladders for w in L.weights})
    points = []
    for x in ("0", "1", " 2 ", "3", "w", "w + 1", "w*2", "w^2 + 3", "w^(2)", "w^w"):
        y = parse_ordinal(x)
        if d.space.contains(y) and d.target_ladder(y) is None:
            points.append(x)
    pad = st.sampled_from(["", " ", "  "])

    def mostly(good, bad):
        return st.sampled_from(good * 6 + bad)

    @st.composite
    def tail(draw):
        args = {
            "ladder": mostly(ladders, ["zz"]),
            "weight": mostly(labels, ["geometric(3)", "factgeom(2)", "bogus(1)"]),
            "r": mostly(["1", "-1", "2", "1/2", "-3/2", "2/3", " 3 "], ["0", "x"]),
            "start": mostly(["0", "1", "2", "3", "5", " 2"], ["-1", "x"]),
        }
        keys = draw(st.permutations(list(args)))
        keys = [k for k in keys if k != "weight" or draw(st.booleans())]
        if draw(st.integers(0, 19)) == 0:
            keys = keys[1:]  # a required argument may go missing
        body = ",".join(
            f"{draw(pad)}{k}{draw(pad)}={draw(pad)}{draw(args[k])}" for k in keys
        )
        return f"tail({body})"

    bad_atoms = ["e(w*9)", "e(w^^2)", "e()", "e(1", "e (1)", "tail(ladder=q", "junk"]
    atom = st.one_of(
        st.sampled_from(points).map(lambda x: f"e({x})"),
        tail(),
        st.integers(0, 9).flatmap(
            lambda i: st.sampled_from(bad_atoms if i == 0 else points).map(
                lambda x: x if i == 0 else f"e({x})"
            )
        ),
    )
    def term(sign):
        multiplier = st.sampled_from(["", "0*", "2 * ", "3*", "1*"])
        return st.tuples(sign, pad, multiplier, atom).map("".join)

    @st.composite
    def text(draw):
        if draw(st.integers(0, 19)) == 0:
            return draw(st.sampled_from(["0", " 0 ", "", "  "]))
        first = draw(term(st.sampled_from(["", "-", "+"])))
        rest = draw(st.lists(term(mostly(["-", "+"], [""])), max_size=3))
        return draw(pad).join([first] + rest) + draw(pad)

    return text()


LITERAL_PRESETS = {
    n: presets.load(n)
    for n in ("limitq", "two_prime", "gridrows", "limit_power_two_weights")
}


@pytest.mark.parametrize("name", sorted(LITERAL_PRESETS))
@settings(max_examples=150)
@given(data=st.data())
def test_parse_matches_reference_parser(name, data):
    d = LITERAL_PRESETS[name].domain
    text = data.draw(_grammar_texts(LITERAL_PRESETS[name]))
    outcomes = []
    for parse in (parse_element, reference_parse_element):
        try:
            outcomes.append(parse(d, text))
        except (ValueError, KeyError):
            outcomes.append(None)
    assert outcomes[0] == outcomes[1], text
