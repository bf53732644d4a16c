import functools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlat import group, presets
from ordlat.group import (
    CoordinateSystem,
    Decomposition,
    Presentation,
    SearchExhaustedError,
    Span,
    finite_prime_test,
    kernel_basis_certificate,
    member_decompose,
    residue_index_at,
    semibasic_construct,
    span_qx_decompose,
)
from ordlat.element import Domain, Ladder, WeightFn, is_semibasic
from ordlat.ordinal import OMEGA, Ordinal, from_int, parse_ordinal
from ordlat.space import ScatteredSpace

from .conftest import combos
from .oracles import (
    full_window_decompose,
    greedy_peel,
    reference_coordinates,
    reference_probe_coords,
    reference_span_qx_decompose,
)


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


# one factorization per family against the target-widened window

DIFF_PRESETS = ("limitq", "twoblock", "two_prime", "limit_power_two_weights")


@functools.lru_cache(maxsize=None)
def _diff_setup(name):
    """A preset and the points a spike may sit on: ladder points near the
    tail starts, small integers and the generators' own prefix points."""
    pres = presets.load(name)
    d = pres.domain
    pts = {L.point(k) for L in d.ladders for k in range(15)}
    pts |= {from_int(k) for k in range(9)}
    pts |= {x for g in pres.elements for x, _ in g.prefix}
    points = sorted(
        (x for x in pts if d.space.contains(x) and d.target_ladder(x) is None),
        key=Ordinal.key,
    )
    return pres, points


def _same_answer(got, want, family, target):
    assert (got is None) == (want is None), (got, want)
    if got is not None:
        assert got.unique == want.unique
        if got.unique:
            assert got.coeffs == want.coeffs
        else:
            d = target.domain
            assert d.combine(got.coeffs, family) == target
            assert d.combine(want.coeffs, family) == target


@pytest.mark.parametrize("name", DIFF_PRESETS)
@given(data=st.data())
def test_span_matches_full_window_oracle(name, data):
    pres, points = _diff_setup(name)
    d = pres.domain
    gens = pres.elements
    picked = data.draw(
        st.lists(
            st.sampled_from(range(len(gens))), min_size=1, max_size=4, unique=True
        )
    )
    spikes = data.draw(st.lists(st.sampled_from(points), max_size=2, unique=True))
    family = [gens[i] for i in picked] + [d.e(x) for x in spikes]
    coeffs = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(family), max_size=len(family))
    )
    member = d.combine(coeffs, family)
    kind = data.draw(st.sampled_from(("combination", "zeroed", "extra point")))
    x = data.draw(st.sampled_from(spikes + points))
    if kind == "combination":
        target = member
    elif kind == "zeroed":
        # zeroed at a family spike, a member whose tail may now start past
        # every start in the family; zeroed elsewhere, a shifted tail start
        # or a missing prefix point
        target = member - member.value(x) * d.e(x)
    else:
        target = member + data.draw(st.sampled_from((-1, 1, 2))) * d.e(x)
    got = Span(d, family).decompose(target)
    _same_answer(got, full_window_decompose(family, target), family, target)
    if kind == "combination":
        assert got is not None
    assert pres.span.decompose(target) == member_decompose(gens, target)
    _same_answer(
        pres.span.decompose(target),
        full_window_decompose(gens, target),
        gens,
        target,
    )


@pytest.mark.parametrize("name", DIFF_PRESETS)
@given(data=st.data())
def test_grown_span_answers_as_span(name, data):
    # a family grown in batches over a first-need window of its members
    # and the spikes it tries, with scaled members among them, answers
    # every membership query as one Span of the whole family
    pres, points = _diff_setup(name)
    d = pres.domain
    gens = pres.elements
    spikes = [d.e(x) for x in points]
    pool = list(gens) + spikes + [3 * g for g in gens]
    family = data.draw(
        st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    )
    grown = Span(d, window=family + spikes)
    cut = 0
    while cut < len(family):
        step = data.draw(st.integers(1, len(family) - cut))
        grown.extend(family[cut : cut + step])
        cut += step
        if data.draw(st.booleans()):
            grown.raises_rank(data.draw(st.sampled_from(spikes)))
    span = Span(d, family)
    assert grown.rank == span.rank
    coeffs = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(family), max_size=len(family))
    )
    member = d.combine(coeffs, family)
    x = data.draw(st.sampled_from(points))
    for target in (member, member + d.e(x), 2 * member):
        _same_answer(grown.decompose(target), span.decompose(target), family, target)
    assert grown.decompose(member) is not None


@pytest.mark.parametrize("name", DIFF_PRESETS)
@given(data=st.data())
def test_coordinates_match_the_reference_reader(name, data):
    # a family's sorted window reads every combination and spike as the
    # reader built at once did; a grown Span's rows stay its members'
    # coordinates through batched extends over a first-need window, and
    # a member whose residue needs a finer axis scale than the window's
    # is refused
    pres, points = _diff_setup(name)
    d = pres.domain
    gens = pres.elements
    pool = list(gens) + [d.e(x) for x in points] + [3 * g for g in gens]
    family = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    coeffs = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(family), max_size=len(family))
    )
    member = d.combine(coeffs, family)
    spike = d.e(data.draw(st.sampled_from(points)))
    want = reference_coordinates(d, family)
    cs = CoordinateSystem.for_elements(d, family)
    for f in family + [member, spike, member - 2 * spike]:
        assert tuple(cs.coords(f)) == want(f)

    (t,) = gens[3].tails
    axis, den = (t.ladder_id, t.weight), t.den // gcd(t.num, t.den)
    coarse = Span(d, window=[den * gens[3]])
    coarse.extend([den * gens[3]])
    assert coarse.cs.scales[axis] == 1 < den
    with pytest.raises(ValueError, match="outside the span's window"):
        coarse.extend([gens[3]])
    with pytest.raises(ValueError, match="outside the span's window"):
        coarse.raises_rank(gens[3])
    assert coarse.gens == (den * gens[3],) and coarse.form.rank == 1

    grown = Span(d, window=[den * gens[3], gens[3]] + family)
    assert grown.cs.scales[axis] % den == 0
    batches = [[den * gens[3], gens[3]]]
    cut = 0
    while cut < len(family):
        step = data.draw(st.integers(1, len(family) - cut))
        batches.append(family[cut : cut + step])
        cut += step
    for batch in batches:
        grown.extend(batch)
    assert grown.rows == [grown.cs.coords(g) for g in grown.gens]


# the scatter reader against the probe; limitq24 is limitq(24), whose
# residues reach 1/23!
SCATTER_PRESETS = DIFF_PRESETS + ("limitq24",)


@functools.lru_cache(maxsize=None)
def _scatter_setup(name):
    """A preset, the points a spike may sit on (ladder points up to three
    past the largest start, small integers and the generators' prefix
    points) and the family pool: the generators and those spikes."""
    pres = presets.limitq(24) if name == "limitq24" else presets.load(name)
    d = pres.domain
    end = max(t.start for g in pres.elements for t in g.tails)
    pts = {L.point(k) for L in d.ladders for k in range(end + 4)}
    pts |= {from_int(k) for k in range(9)}
    pts |= {x for g in pres.elements for x, _ in g.prefix}
    points = sorted(
        (x for x in pts if d.space.contains(x) and d.target_ladder(x) is None),
        key=Ordinal.key,
    )
    return pres, points, list(pres.elements) + [d.e(x) for x in points]


def _read(reader, cs, f):
    try:
        return reader(cs, f)
    except ValueError as err:
        return ("raises", type(err), str(err))


@pytest.mark.parametrize("name", SCATTER_PRESETS)
@given(data=st.data())
def test_coords_scatter_reads_as_the_probe(name, data):
    # members and non-members of a family, read at every column by a
    # sorted coordinate system or a grown Span's first-need one.  The
    # non-members: a spike outside the window, and a tail
    # that starts inside the window or up to three past its end on the
    # ladder, with an integer coefficient or 1/w(start).  Past the end,
    # 1/w(start) lies off the scaled lattice where the axis exists; on a
    # (ladder, weight) of no family member the residue has no axis.
    pres, points, pool = _scatter_setup(name)
    d = pres.domain
    family = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    if data.draw(st.booleans()):
        cs = CoordinateSystem.for_elements(d, family)
    else:
        span = Span(d, window=family)
        cut = 0
        while cut < len(family):
            step = data.draw(st.integers(1, len(family) - cut))
            span.extend(family[cut : cut + step])
            cut += step
        cs = span.cs
    coeffs = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(family), max_size=len(family))
    )
    member = d.combine(coeffs, family)
    L = data.draw(st.sampled_from(d.ladders))
    w = data.draw(st.sampled_from(L.weights))
    end = max((t.start for g in family for t in g.tails_on(L.id)), default=0)
    s = data.draw(st.one_of(st.integers(0, end), st.integers(end + 1, end + 3)))
    r = data.draw(st.sampled_from((Fraction(1), Fraction(-2), Fraction(1, w.value(s)))))
    tail = d.tail(L.id, r, s, w.label())

    def column(x):
        loc = d.locate(x)
        return ("point", x) if loc is None else ("site", (loc[0].id, loc[1]))

    in_window = set(cs.columns)
    outside = [x for x in points if column(x) not in in_window]
    spike = d.e(data.draw(st.sampled_from(outside or points)))
    for f in (member, spike, tail, member + spike, member - 2 * tail):
        want = _read(reference_probe_coords, cs, f)
        assert _read(CoordinateSystem.coords, cs, f) == want


def test_a_residue_on_no_axis_is_no_member():
    # h_0's (ladder, weight) is on none of the f-family, whose readers
    # skip that residue; the re-sum rejects it, from either Span
    pres = presets.load("limit_power_two_weights")
    d = pres.domain
    fs = [g for n, g in pres.generators if n.startswith("f_")]
    h0 = pres.generator("h_0")
    grown = Span(d, window=fs)
    grown.extend(fs[:2])
    grown.extend(fs[2:])
    for span in (Span(d, fs), grown):
        assert span.decompose(h0) is None
        assert span.decompose(fs[1] + h0) is None
        assert span.decompose(fs[1]) is not None


def test_a_grown_span_refuses_members_past_its_window(limitq):
    # the window of tail(q, 1, 2) holds the sites below 2 and the axis:
    # a later start on the same axis scale needs sites 2-4, and the spike
    # at ladder point 7 its own site
    d = limitq.domain
    t2 = d.tail("q", 1, 2)
    span = Span(d, window=[t2])
    span.extend([t2])
    rows, h = [list(r) for r in span.rows], [list(r) for r in span.form.h]
    for member in (d.tail("q", 1, 5), d.e(d.ladder("q").point(7))):
        for grow in (lambda: span.extend([member]), lambda: span.raises_rank(member)):
            with pytest.raises(ValueError, match="outside the span's window"):
                grow()
        assert span.gens == (t2,) and span.rows == rows and span.form.h == h


def test_span_edge_families(limitq, twoblock):
    d = limitq.domain
    a0, a1 = limitq.generator("a_0"), limitq.generator("a_1")
    t0 = twoblock.generator("t_0")
    e = lambda k: d.e(from_int(k))
    cases = [
        # a member whose tail starts past every start in the family
        ([a0, e(0)], a1, Decomposition((1, -1), True)),
        # a member whose prefix spreads below a spike above the family's
        # starts, onto indices outside the family's window
        ([a0, e(5)], a0 - e(5), Decomposition((1, -1), True)),
        # non-members matching a combination on the family window: a
        # shifted tail start, and an extra prefix point
        ([a0], a1, None),
        ([a0], a0 + e(3), None),
        ([a0, e(0)], a0 + e(3), None),
        # a non-member with an off-ladder prefix point outside the window
        ([t0], t0 + twoblock.domain.e(from_int(1)), None),
        # a dependent family
        ([a0, a1, e(0)], a0, Decomposition((1, 0, 0), False)),
    ]
    for family, target, want in cases:
        got = Span(target.domain, family).decompose(target)
        assert got == want, (family, target)
        _same_answer(got, full_window_decompose(family, target), family, target)


def test_presentation_span_is_cached(limitq):
    assert limitq.span is limitq.span
    assert limitq.span.gens == limitq.elements
    assert limitq.span.unique


@given(st.data())
def test_coordinates_are_linear(any_pres, data):
    cs = CoordinateSystem.for_elements(
        any_pres.domain, list(any_pres.elements)
    )
    f = data.draw(combos(any_pres))
    g = data.draw(combos(any_pres))
    cf, cg, cfg = cs.coords(f), cs.coords(g), cs.coords(f + g)
    assert cfg == [a + b for a, b in zip(cf, cg)]


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
    quarks = {x: 2 * d.e(x) for x in f.support().points}
    with pytest.raises(ValueError):
        span_qx_decompose(f, quarks=quarks)


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


def _quark_pool(pres):
    """Points off the ladder targets: ladder indices 0-3 and a few points
    of low rank, so that most presets offer several ranks."""
    d = pres.domain
    pts = [L.point(k) for L in d.ladders for k in range(4)]
    pts += [from_int(k) for k in range(3)]
    pts += [parse_ordinal(t) for t in ("w", "w + 3", "w^2", "w^2 + w")]
    return sorted(
        {p for p in pts if d.space.contains(p) and d.target_ladder(p) is None},
        key=Ordinal.key,
    )


@st.composite
def quark_cases(draw, pres):
    """A finite element and a quark mapping: none, semibasic quarks (a
    spike plus nonnegative padding of lower rank) at some points, or
    those with one quark that is not semibasic at a support point."""
    d = pres.domain
    rank = d.space.cb_rank
    pts = _quark_pool(pres)
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=len(pts), max_size=len(pts)))
    f = d.literal([(p, c) for p, c in zip(pts, coeffs) if c], ())
    mode = draw(st.sampled_from(["none", "semibasic", "one_bad"]))
    quarks = {}
    if mode != "none":
        for x in pts:
            if not draw(st.booleans()):
                continue
            lower = [p for p in pts if rank(p) < rank(x)]
            pad = []
            if lower:
                pair = st.tuples(st.sampled_from(lower), st.integers(1, 3))
                pad = draw(st.lists(pair, max_size=3))
            quarks[x] = d.literal([(x, 1)] + pad, ())
            assert is_semibasic(quarks[x], x)
    if mode == "one_bad":
        x = draw(st.sampled_from(sorted(f.support().points, key=Ordinal.key) or pts))
        y = draw(st.sampled_from([p for p in pts if p != x]))
        kind = draw(st.sampled_from(["double", "negative", "rival"]))
        if kind == "double":
            bad = 2 * d.e(x)
        elif kind == "negative" or rank(y) < rank(x):
            bad = d.e(x) - d.e(y)
        else:  # a second point of rank >= rank(x)
            bad = d.e(x) + d.e(y)
        assert not is_semibasic(bad, x)
        quarks[x] = bad
    return f, quarks


def _outcome(decompose, f, quarks):
    try:
        return list(decompose(f, quarks).items())
    except Exception as exc:  # the type is what is compared
        return type(exc)


@pytest.mark.parametrize(
    "name", ["twoblock", "gridrows", "limit_power_two_weights", "two_prime"]
)
@given(st.data())
def test_span_matches_the_earlier_loop(name, data):
    pres = presets.load(name)
    f, quarks = data.draw(quark_cases(pres))
    want = _outcome(reference_span_qx_decompose, f, quarks)
    assert _outcome(span_qx_decompose, f, quarks) == want


def _tailed_domain(top):
    """[0, top] with the factorial ladder q -> w on the natural numbers."""
    ladder = Ladder(
        id="q", kind="arith", target=OMEGA, weights=(WeightFn("factorial"),)
    )
    return Domain(ScatteredSpace(parse_ordinal(top)), (ladder,))


def test_a_quark_whose_tail_is_left_is_a_value_error():
    d = _tailed_domain("w^2")
    w2 = parse_ordinal("w^2")
    q = d.e(w2) + d.tail("q", 1, 0)
    assert is_semibasic(q, w2)
    with pytest.raises(ValueError, match=r"quark at w\^2 leaves a tail"):
        span_qx_decompose(d.e(w2), {w2: q})
    with pytest.raises(ValueError, match=r"quark at w\^2 leaves a tail"):
        kernel_basis_certificate([d.e(w2)], {w2: q})
    # the earlier loop stopped on an internal assertion instead
    with pytest.raises(AssertionError):
        reference_span_qx_decompose(d.e(w2), {w2: q})


def test_quark_tails_that_cancel_are_finite_combinations():
    d = _tailed_domain("w^3")
    w2, w3 = parse_ordinal("w^2"), parse_ordinal("w^3")
    quarks = {x: d.e(x) + d.tail("q", 1, 0) for x in (w2, w3)}
    f = d.e(w3) - d.e(w2)
    got = span_qx_decompose(f, quarks)
    assert list(got.items()) == [(w3, 1), (w2, -1)]
    assert got == reference_span_qx_decompose(f, quarks)
    cert = kernel_basis_certificate([f], quarks)
    assert cert.verify() and cert.rows == ((1, -1),)


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


def test_kernel_certificate_tests_each_supplied_quark_once(twoblock, monkeypatch):
    d = twoblock.domain
    q = d.e(OMEGA) + d.e(from_int(3))
    gens = [k * d.e(OMEGA) + d.e(from_int(k % 4)) for k in range(1, 21)]
    calls = []

    def counting(f, x):
        calls.append(x)
        return is_semibasic(f, x)

    monkeypatch.setattr(group, "is_semibasic", counting)
    cert = kernel_basis_certificate(gens, {OMEGA: q})
    assert calls == [OMEGA]
    assert cert.verify()
    # the rows are the decompositions one generator at a time
    assert cert.rows == tuple(
        tuple(span_qx_decompose(g, {OMEGA: q}).get(x, 0) for x in cert.points)
        for g in gens
    )
    # a quark that is not semibasic is still refused, with the same message
    with pytest.raises(ValueError, match=r"^supplied quark at w is not semibasic$"):
        kernel_basis_certificate(gens, {OMEGA: 2 * q})


def test_tampered_certificate_fails(limitq):
    from dataclasses import replace

    d = limitq.domain
    cert = kernel_basis_certificate([3 * d.e(from_int(0)) - 2 * d.e(from_int(4))])
    bad_rows = replace(cert, rows=((3, -1),))
    assert not bad_rows.verify()
    bad_quark = replace(cert, quarks=(2 * cert.quarks[0],) + cert.quarks[1:])
    assert not bad_quark.verify()
