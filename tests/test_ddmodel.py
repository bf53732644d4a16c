import pytest

from ordlat.ddmodel import (
    IdealFunction,
    phi_homomorphism_check,
    sample_combination,
    spec_map_check,
    witness_battery,
)
from ordlat.element import bounded_ratio_witness
from ordlat.ordinal import from_int


# --- ideal dictionary algebra -------------------------------------------------


def test_ideal_function_algebra(limitq):
    a0 = IdealFunction(limitq.generator("a_0"))
    a1 = IdealFunction(limitq.generator("a_1"))
    assert (a0 * a1).f == a0.f + a1.f
    assert (a0**3).f == 3 * a0.f
    assert (a0**0).f == limitq.domain.zero()
    assert a0.inverse().f == -a0.f
    assert (a0 * a0.inverse()).f.is_zero
    assert a0.plus(a1).f == a0.f.meet(a1.f)
    with pytest.raises(ValueError):
        a0**-1


def test_ideal_containment(limitq):
    a0 = IdealFunction(limitq.generator("a_0"))
    a2 = IdealFunction(limitq.generator("a_2"))
    # a larger exponent function cuts out a smaller ideal
    assert a0.contains(a0 * a2)
    assert not (a0 * a2).contains(a0)
    assert a0.contains(a0)
    assert a0.is_integral()
    assert not a0.inverse().is_integral()


def test_sample_combination_is_deterministic(limitq):
    import random

    xs = [sample_combination(limitq, random.Random(7)) for _ in range(3)]
    ys = [sample_combination(limitq, random.Random(7)) for _ in range(3)]
    assert xs == ys


# --- probe batteries --------------------------------------------------------------


@pytest.mark.parametrize("preset", ["limitq", "twoblock", "gridrows"])
def test_phi_homomorphism_passes(preset):
    from ordlat import presets

    report = phi_homomorphism_check(presets.load(preset), cases=120, seed=0)
    assert report.ok, report.failures
    assert report.name == "phi-homomorphism"
    assert report.checked == 120


def test_phi_check_catches_offset_meet(limitq):
    bump = limitq.domain.e(from_int(0))
    bad = lambda a, b: a.meet(b) + bump
    report = phi_homomorphism_check(limitq, cases=60, seed=0, meet_fn=bad)
    assert not report.ok
    assert any("idempotent" in msg for msg in report.failures)
    assert report.checked < 60  # stopped after five failures


def test_phi_check_catches_projection_meet(limitq):
    bad = lambda a, b: b
    report = phi_homomorphism_check(limitq, cases=60, seed=0, meet_fn=bad)
    assert not report.ok
    assert any(
        "commutative" in msg or "lower bound" in msg for msg in report.failures
    )


def test_witness_battery(limitq, twoblock):
    assert witness_battery(limitq, cases=60, seed=1).ok
    assert witness_battery(twoblock, cases=60, seed=1).ok


def test_batteries_reject_negative_counts(limitq):
    for battery in (phi_homomorphism_check, witness_battery):
        with pytest.raises(ValueError, match="case count must be >= 0"):
            battery(limitq, cases=-1)


def test_radical_power_witness_frozen(limitq):
    a0 = limitq.generator("a_0")
    assert bounded_ratio_witness(a0, 3 * a0) == 3
    assert bounded_ratio_witness(a0, a0) == 1
    assert bounded_ratio_witness(a0, limitq.domain.e(from_int(0))) is None


@pytest.mark.parametrize("preset", ["limitq", "twoblock", "gridrows"])
def test_spec_map_probes(preset):
    from ordlat import presets

    got = spec_map_check(presets.load(preset), cases=40, seed=0)
    assert got == {
        "unit-is-identity": True,
        "product-adds-exponents": True,
        "sum-takes-minima": True,
        "inverse-cancels": True,
        "containment-reverses-order": True,
        "radical-tracks-support": True,
    }
