from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlat import presets
from ordlat.element import (
    Domain,
    Ladder,
    TailTerm,
    WeightFn,
    _canonical,
    bounded_ratio_witness,
    dominance_monotone_from,
    format_element,
    is_semibasic,
    parse_element,
    parse_weight,
)
from ordlat.ordinal import OMEGA, ONE, ZERO, from_int, parse_ordinal
from ordlat.serialize import element_from_json, element_to_json
from ordlat.space import ScatteredSpace

from .conftest import combos


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

    L = presets.limit_power(3).domain.ladder("pw")
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
    f = data.draw(combos(pres))
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
        residue = {}
        for t in terms:
            residue[t.weight] = residue.get(t.weight, 0) + t.coeff
        sign = 1 if residue[max(residue, key=WeightFn.dominance_key)] > 0 else -1
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


# --- index-keyed arithmetic against the ordinal entry -----------------------------


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
        d.combine(coeffs, [f, g, -f, g]),
    ]
    for h in results:
        assert _canonical(d, dict(h.prefix), h.tails) == h
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
    and collected by hand, then canonicalized once through the ordinal
    entry, so that neither Domain.combine nor + and * take part."""
    prefix = {}
    tails = []
    for c, g in zip(coeffs, elements):
        for x, v in g.prefix:
            prefix[x] = prefix.get(x, 0) + c * v
        if c:
            tails += [
                TailTerm(t.ladder_id, t.weight, c * t.coeff, t.start)
                for t in g.tails
            ]
    return _canonical(domain, prefix, tails)


@pytest.mark.parametrize("name", sorted(COMBINE_PRESETS))
@given(data=st.data())
def test_combine_equals_fold(name, data):
    pres = COMBINE_PRESETS[name]
    # lengths may differ: both pair by zip
    picks = data.draw(st.lists(st.sampled_from(pres.elements), max_size=6))
    coeffs = data.draw(st.lists(st.integers(-6, 6), max_size=6))
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
