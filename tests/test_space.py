import pytest
from hypothesis import given

from ordlat.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    from_int,
    omega_power,
    parse_ordinal,
    successor,
)
from ordlat.space import ClopenBlock, InfiniteSliceError, ScatteredSpace

from .conftest import small_ordinals
from .oracles import grid_rank, iter_below

W2 = omega_power(from_int(2))
W3 = omega_power(from_int(3))


# --- blocks ----------------------------------------------------------------


def test_block_contains():
    b = ClopenBlock(low=OMEGA, high=parse_ordinal("w*2"))
    assert not b.contains(OMEGA)  # low endpoint excluded
    assert b.contains(parse_ordinal("w + 1"))
    assert b.contains(parse_ordinal("w*2"))  # high endpoint included
    assert not b.contains(parse_ordinal("w*2 + 1"))
    whole = ClopenBlock(low=None, high=OMEGA)
    assert whole.contains(ZERO)


def test_block_rejects_empty_interval():
    with pytest.raises(ValueError):
        ClopenBlock(low=OMEGA, high=OMEGA)
    with pytest.raises(ValueError):
        ClopenBlock(low=parse_ordinal("w*2"), high=OMEGA)


# --- point ranks --------------------------------------------------------------


def test_cb_rank_frozen():
    sp = ScatteredSpace(W3)
    assert sp.cb_rank(ZERO) == ZERO
    assert sp.cb_rank(from_int(17)) == ZERO
    assert sp.cb_rank(OMEGA) == ONE
    assert sp.cb_rank(parse_ordinal("w^2 + w*3")) == ONE
    assert sp.cb_rank(parse_ordinal("w^2*2")) == from_int(2)
    assert sp.cb_rank(W3) == from_int(3)


def test_cb_rank_rejects_outside_points():
    sp = ScatteredSpace(OMEGA)
    with pytest.raises(ValueError):
        sp.cb_rank(parse_ordinal("w + 1"))


@pytest.mark.parametrize(
    "toptext", ["w", "w*2", "w^2", "w^2*3", "w^3"]
)
def test_cb_rank_matches_grid_oracle(toptext):
    top = parse_ordinal(toptext)
    sp = ScatteredSpace(top)
    for p in iter_below(top, 3):
        want = grid_rank(sp, p, 3)
        assert sp.cb_rank(p) == from_int(want), str(p)


def test_space_rank():
    assert ScatteredSpace(OMEGA).space_rank() == from_int(2)
    assert ScatteredSpace(from_int(9)).space_rank() == ONE
    assert ScatteredSpace(W3).space_rank() == from_int(4)


def test_in_derived_set():
    sp = ScatteredSpace(W2)
    assert sp.in_derived_set(from_int(3), ZERO)
    assert not sp.in_derived_set(from_int(3), ONE)
    assert sp.in_derived_set(OMEGA, ONE)
    assert not sp.in_derived_set(OMEGA, from_int(2))
    assert sp.in_derived_set(W2, from_int(2))
    assert sp.in_derived_set(ZERO, ZERO)
    assert not sp.in_derived_set(ZERO, ONE)


@given(small_ordinals)
def test_derived_set_membership_tracks_rank(x):
    sp = ScatteredSpace(W3)
    r = sp.cb_rank(x)
    assert sp.in_derived_set(x, r)
    assert not sp.in_derived_set(x, successor(r))


def test_is_limit_point():
    sp = ScatteredSpace(W2)
    assert sp.is_limit_point(OMEGA)
    assert not sp.is_limit_point(parse_ordinal("w + 1"))
    assert not sp.is_limit_point(ZERO)


def test_smallest_point_of_rank():
    sp = ScatteredSpace(W2)
    assert sp.smallest_point_of_rank(ZERO) == ONE
    assert sp.smallest_point_of_rank(ONE) == OMEGA
    assert sp.smallest_point_of_rank(from_int(2)) == W2
    assert sp.smallest_point_of_rank(from_int(3)) is None


# --- isolating blocks -----------------------------------------------------------


def test_isolating_block_frozen():
    sp = ScatteredSpace(W3)
    b = sp.isolating_block(parse_ordinal("w^2 + w*3"))
    assert b.low == parse_ordinal("w^2 + w*2")
    assert b.high == parse_ordinal("w^2 + w*3")
    b = sp.isolating_block(W2)
    assert b.low == ZERO  # coefficient 1 drops the whole last term
    assert b.high == W2
    b = sp.isolating_block(ZERO)
    assert b.low is None and b.high == ZERO


@given(small_ordinals)
def test_isolating_block_isolates(x):
    sp = ScatteredSpace(W3)
    b = sp.isolating_block(x)
    assert b.contains(x) or x.is_zero
    r = sp.cb_rank(x)
    if not x.is_zero:
        # no other point of rank >= r inside the block
        for q in sp.rank_slice(b, r):
            assert q == x


# --- rank slices ------------------------------------------------------------------


def test_slice_finiteness_criterion():
    sp = ScatteredSpace(W2)
    whole = sp.whole_block()
    assert sp.slice_is_finite(whole, from_int(2))
    assert not sp.slice_is_finite(whole, ONE)
    assert not sp.slice_is_finite(whole, ZERO)
    tail = ClopenBlock(low=parse_ordinal("w*3"), high=parse_ordinal("w*4"))
    assert sp.slice_is_finite(tail, ONE)
    assert not sp.slice_is_finite(tail, ZERO)


def test_rank_slice_frozen():
    sp = ScatteredSpace(W2)
    assert sp.rank_slice(sp.whole_block(), from_int(2)) == (W2,)
    b = ClopenBlock(low=parse_ordinal("w*2"), high=parse_ordinal("w*5"))
    assert sp.rank_slice(b, ONE) == (
        parse_ordinal("w*3"),
        parse_ordinal("w*4"),
        parse_ordinal("w*5"),
    )
    fin = ClopenBlock(low=from_int(2), high=from_int(6))
    assert sp.rank_slice(fin, ZERO) == tuple(from_int(k) for k in (3, 4, 5, 6))
    head = ClopenBlock(low=None, high=from_int(2))
    assert sp.rank_slice(head, ZERO) == (ZERO, ONE, from_int(2))


def test_rank_slice_infinite_raises():
    sp = ScatteredSpace(W2)
    with pytest.raises(InfiniteSliceError):
        sp.rank_slice(sp.whole_block(), ONE)


def test_rank_slice_block_must_fit():
    sp = ScatteredSpace(OMEGA)
    with pytest.raises(ValueError):
        sp.rank_slice(ClopenBlock(low=None, high=W2), ZERO)


@given(small_ordinals)
def test_rank_slice_contents(x):
    sp = ScatteredSpace(parse_ordinal("w^2*6"))
    if not sp.contains(x) or x.is_zero:
        return
    b = sp.isolating_block(x)
    r = sp.cb_rank(x)
    got = sp.rank_slice(b, r)
    assert got == (x,)
    # around a limit point the lower slices stay infinite
    if not r.is_zero:
        assert not sp.slice_is_finite(b, ZERO)
        with pytest.raises(InfiniteSliceError):
            sp.rank_slice(b, ZERO)
