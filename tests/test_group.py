from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlat.group import (
    CoordinateSystem,
    Presentation,
    SearchExhaustedError,
    finite_prime_test,
    kernel_basis_certificate,
    member_decompose,
    residue_index_at,
    semibasic_construct,
    span_qx_decompose,
)
from ordlat.ordinal import OMEGA, Ordinal, from_int, parse_ordinal

from .conftest import combos
from .oracles import greedy_peel


# --- presentations ------------------------------------------------------------


def test_presentation_accessors(limitq):
    assert limitq.names[:3] == ("a_0", "a_1", "a_2")
    assert limitq.generator("a_2") == limitq.elements[2]
    with pytest.raises(KeyError):
        limitq.generator("missing")


def test_presentation_rejects_duplicates(limitq):
    d = limitq.domain
    with pytest.raises(ValueError):
        Presentation(
            name="dup",
            domain=d,
            generators=(("x", d.e(from_int(0))), ("x", d.e(from_int(1)))),
        )


# --- membership -------------------------------------------------------------------


def test_decompose_spike_frozen(limitq):
    dec = member_decompose(limitq.elements, limitq.domain.e(from_int(3)))
    assert dec is not None
    assert dec.coeffs == (0, 0, 0, 1, -4, 0, 0, 0, 0, 0)
    assert dec.unique


def test_decompose_detects_non_member(limitq):
    d = limitq.domain
    outside = d.tail("q", Fraction(1, 3628800), 10)
    assert member_decompose(limitq.elements, outside) is None


def test_decompose_empty_gens(limitq):
    d = limitq.domain
    assert member_decompose([], d.zero()).coeffs == ()
    assert member_decompose([], d.e(from_int(0))) is None


@given(st.data())
def test_decompose_recovers_known_combos(any_pres, data):
    f = data.draw(combos(any_pres))
    dec = member_decompose(any_pres.elements, f)
    assert dec is not None
    total = any_pres.domain.zero()
    for c, g in zip(dec.coeffs, any_pres.elements):
        total = total + c * g
    assert total == f


@given(st.data())
def test_coordinates_are_linear(any_pres, data):
    cs = CoordinateSystem.for_elements(
        any_pres.domain, list(any_pres.elements)
    )
    f = data.draw(combos(any_pres))
    g = data.draw(combos(any_pres))
    cf, cg, cfg = cs.coords(f), cs.coords(g), cs.coords(f + g)
    assert cfg == tuple(a + b for a, b in zip(cf, cg))


# --- integer-valued evaluation ------------------------------------------------------


def test_finite_prime_test(limitq):
    d = limitq.domain
    assert finite_prime_test(d, from_int(5))
    assert not finite_prime_test(d, OMEGA)  # growing weights at the target
    assert not finite_prime_test(d, parse_ordinal("w + 1"))  # outside the space


def test_residue_index(limitq):
    a0 = limitq.generator("a_0")
    a2 = limitq.generator("a_2")
    assert residue_index_at(a0, "q") == 0
    assert residue_index_at(3 * a2 - a0, "q") == 2
    assert residue_index_at(limitq.domain.e(from_int(5)), "q") is None


# --- semibasic construction ---------------------------------------------------------


def test_semibasic_spike_shortcut(limitq):
    q = semibasic_construct(limitq, from_int(3))
    assert q == limitq.domain.e(from_int(3))


def test_semibasic_meet_flattening(limitq):
    d = limitq.domain
    e5, e3 = d.e(from_int(5)), d.e(from_int(3))
    tiny = Presentation(
        name="tiny", domain=d, generators=(("f", 2 * e5), ("g", e5 + e3))
    )
    # e(5) itself is not an integer combination, so the search must
    # isolate with 2*e(5) and flatten the height with a meet
    assert member_decompose(tiny.elements, e5) is None
    assert semibasic_construct(tiny, from_int(5)) == e5


def test_semibasic_search_exhausts(gridrows):
    x = gridrows.domain.ladder("rows").point(3)
    with pytest.raises(SearchExhaustedError):
        semibasic_construct(gridrows, x)


def test_semibasic_rejects_ladder_target(two_prime):
    with pytest.raises(ValueError):
        semibasic_construct(two_prime, OMEGA)


# --- decomposition over semibasic families -------------------------------------------


def spike_combos(pres, count=6, bound=5):
    """Finite-support elements over valid non-target points."""
    d = pres.domain
    pts = []
    for L in d.ladders:
        pts.extend(L.point(k) for k in range(4))
    pts.extend(from_int(k) for k in range(3) if d.space.contains(from_int(k)))
    pts = sorted(
        {p for p in pts if d.target_ladder(p) is None}, key=Ordinal.key
    )

    def build(cs):
        f = d.zero()
        for c, p in zip(cs, pts):
            if c:
                f = f + c * d.e(p)
        return f

    return st.lists(
        st.integers(-bound, bound), min_size=len(pts), max_size=len(pts)
    ).map(build)


@given(st.data())
def test_span_matches_greedy_oracle(any_pres, data):
    f = data.draw(spike_combos(any_pres))
    got = span_qx_decompose(f)
    want = greedy_peel(f)
    assert dict(got) == want
    # iteration order: decreasing rank, then increasing point
    space = any_pres.domain.space
    seq = [(space.cb_rank(x).key(), x.key()) for x in got]
    assert all(
        (seq[i][0] > seq[i + 1][0])
        or (seq[i][0] == seq[i + 1][0] and seq[i][1] < seq[i + 1][1])
        for i in range(len(seq) - 1)
    )


def test_span_rejects_tails(limitq):
    with pytest.raises(ValueError):
        span_qx_decompose(limitq.generator("a_0"))


def test_span_rejects_non_semibasic_quarks(limitq):
    d = limitq.domain
    f = 3 * d.e(from_int(0))
    with pytest.raises(ValueError):
        span_qx_decompose(f, quarks=lambda x: 2 * d.e(x))


def test_span_order_frozen(twoblock):
    d = twoblock.domain
    g = 2 * d.e(OMEGA) + 5 * d.e(from_int(2)) - d.e(parse_ordinal("w + 3"))
    sq = span_qx_decompose(g)
    assert [str(x) for x in sq] == ["w", "2", "w + 3"]
    assert list(sq.values()) == [2, 5, -1]


def test_span_with_supplied_quarks(twoblock):
    d = twoblock.domain
    # a semibasic substitute at w: spike plus lower-rank padding
    qw = d.e(OMEGA) + d.e(from_int(1))
    assert span_qx_decompose(
        2 * qw, quarks={OMEGA: qw}
    ) == {OMEGA: 2}


# --- kernel basis certificates --------------------------------------------------------


def test_kernel_certificate_roundtrip(limitq):
    d = limitq.domain
    gens = [
        3 * d.e(from_int(0)) - 2 * d.e(from_int(4)),
        d.e(from_int(4)),
    ]
    cert = kernel_basis_certificate(gens)
    assert cert.verify()
    assert cert.rows == ((3, -2), (0, 1))
    assert [str(x) for x in cert.points] == ["0", "4"]


def test_kernel_certificate_rank_order(twoblock):
    d = twoblock.domain
    gens = [d.e(OMEGA) + d.e(from_int(0)), d.e(from_int(3))]
    cert = kernel_basis_certificate(gens)
    space = d.space
    ranks = [space.cb_rank(x).key() for x in cert.points]
    assert ranks == sorted(ranks, reverse=True)
    assert cert.verify()


def test_tampered_certificate_fails(limitq):
    from dataclasses import replace

    d = limitq.domain
    cert = kernel_basis_certificate([3 * d.e(from_int(0)) - 2 * d.e(from_int(4))])
    bad_rows = replace(cert, rows=((3, -1),))
    assert not bad_rows.verify()
    bad_quark = replace(cert, quarks=(2 * cert.quarks[0],) + cert.quarks[1:])
    assert not bad_quark.verify()
