import functools
import hashlib
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlat import presets
from ordlat.element import Domain
from ordlat.freeness import (
    ChainError,
    ChainStep,
    CompositionError,
    FreenessCertificate,
    PoolEntry,
    TargetEntry,
    _Chain,
    build_chain_limit,
    build_chain_successor,
    certify,
    chain_torsion_bound,
    construct_staircase,
    free_from_bounded_torsion,
    multi_prime_compose,
    restrict_element,
    smooth_chain_check,
    verify_staircase,
)
from ordlat.group import CoordinateSystem, Presentation, Span, member_decompose
from ordlat.intlinalg import combine_rows, hnf_rows, project, row_rank
from ordlat.ordinal import OMEGA, ZERO, from_int, parse_ordinal
from ordlat.serialize import certificate_to_json, dumps
from ordlat.space import ClopenBlock, ScatteredSpace

from .checker_cases import GROUPS, checker_cases, checker_reports
from .oracles import final_basis_ok, quotient_basis_ok, witnesses_resum

AXIOMS = ("positive", "ascending", "commensurable", "low-difference", "factorial-bound")


def failing_axioms(report):
    return {a.name for a in report.axioms if not a.ok}


# --- staircase axioms -----------------------------------------------------------


def test_staircase_on_generators(limitq):
    rep = verify_staircase(limitq)
    assert rep.ok
    assert tuple(a.name for a in rep.axioms) == AXIOMS
    assert rep.d == (1, 1, 2, 6, 24, 120, 720, 5040, 40320, 362880)


def test_staircase_positive_failure(limitq):
    fam = [("b_0", limitq.generator("a_0")), ("b_1", -limitq.generator("a_1"))]
    rep = verify_staircase(limitq, "q", family=fam)
    assert not rep.ok
    assert "positive" in failing_axioms(rep)


def test_staircase_ascending_failure(limitq):
    d = limitq.domain
    a1 = limitq.generator("a_1")
    fam = [("b_0", a1), ("b_1", 2 * a1)]
    rep = verify_staircase(limitq, "q", family=fam)
    assert not rep.ok
    assert "ascending" in failing_axioms(rep)


def test_staircase_commensurable_failure(limitq):
    d = limitq.domain
    # residues 1 and 1/2 + 1/6: ratio 3/2 is not an integer
    odd = d.tail("q", Fraction(1, 2), 2) + d.tail("q", Fraction(1, 6), 3)
    fam = [("b_0", limitq.generator("a_0")), ("b_1", odd)]
    rep = verify_staircase(limitq, "q", family=fam)
    assert not rep.ok
    assert "commensurable" in failing_axioms(rep)
    assert rep.d[1] is None


def test_staircase_low_difference_failure(limitq):
    d = limitq.domain
    noisy = limitq.generator("a_1") + 2 * d.e(from_int(3))
    fam = [("b_0", limitq.generator("a_0")), ("b_1", noisy)]
    rep = verify_staircase(limitq, "q", family=fam)
    assert not rep.ok
    assert failing_axioms(rep) == {"low-difference"}


def test_staircase_corrections_list_in_ordinal_order():
    pres = presets.limitq(6)
    d = pres.domain
    fam = list(pres.generators)
    spikes = sum((d.e(from_int(k)) for k in (9, 5, 12, 7)), d.zero())
    fam[3] = ("a_3", pres.generator("a_3") + spikes)
    rep = verify_staircase(pres, "q", family=fam)
    (low,) = [a for a in rep.axioms if a.name == "low-difference"]
    assert low.detail == "; ".join(
        f"a_3: correction at {k}" for k in (5, 7, 9, 12)
    )


def test_staircase_factorial_bound_failure(limitq):
    d = limitq.domain
    # ratio to the base is 7, which does not divide 1!
    fam = [("b_0", limitq.generator("a_0")), ("b_1", d.tail("q", Fraction(1, 7), 7))]
    rep = verify_staircase(limitq, "q", family=fam)
    assert not rep.ok
    assert failing_axioms(rep) == {"factorial-bound"}


def test_construct_staircase_shaves_noise(limitq):
    d = limitq.domain
    gens = []
    for name, g in limitq.generators[:5]:
        noise = 2 * d.e(from_int(3)) if name == "a_1" else d.zero()
        gens.append((name, g + noise))
    noisy = Presentation(name="noisy", domain=d, generators=tuple(gens))
    assert not verify_staircase(noisy).ok
    base = construct_staircase(noisy)
    rep = verify_staircase(noisy, "q", family=base)
    assert rep.ok
    assert all(n.endswith("~") for n, _ in base)
    # a_1's correction sits at index 3, so a_1 is shaved through index 4
    # and each later member through the previous least index
    assert [g.mu("q") for _, g in base] == [0, 5, 6, 7, 8]


# --- bounded-torsion extraction ----------------------------------------------------


def test_free_from_bounded_torsion_frozen():
    d = Domain(ScatteredSpace(from_int(5)), ())
    ex, ey = d.e(from_int(1)), d.e(from_int(2))
    res = free_from_bounded_torsion([2 * ex, ey], [ex], 2)
    assert [el for el, _ in res] == [ex, ey]
    for el, combo in res:
        # combos are over [a_basis..., b_gens...]
        parts = [2 * ex, ey, ex]
        total = d.zero()
        for c, p in zip(combo, parts):
            total = total + c * p
        assert total == el


def test_free_from_bounded_torsion_modulo():
    d = Domain(ScatteredSpace(from_int(5)), ())
    ex, ez = d.e(from_int(1)), d.e(from_int(3))
    # 3*(ex + ez) = 3*ex + (3*ez): torsion modulo the subgroup, so the
    # quotient contributes nothing beyond the existing basis
    res = free_from_bounded_torsion([ex], [ex + ez], 3, modulo=(3 * ez,))
    assert [(el, combo) for el, combo in res] == [(ex, (1, 0))]


def test_free_from_bounded_torsion_unreduced_extra_rejected():
    d = Domain(ScatteredSpace(from_int(5)), ())
    ex, ey, ez = d.e(from_int(1)), d.e(from_int(2)), d.e(from_int(3))
    with pytest.raises(ValueError):
        free_from_bounded_torsion([ey], [ex + ez], 3, modulo=(ez,))


def _chain_certificates():
    """Every successor and limit certificate of the presets, at the default
    depth and at depth 2."""
    for name in sorted(presets.PRESETS):
        pres = presets.load(name)
        for mode in ("successor", "limit"):
            for depth in (None, 2):
                try:
                    cert = certify(pres, mode, depth)
                except ChainError:
                    continue
                yield f"{name}/{mode}/{depth}", cert


def test_chain_quotient_rows_match_free_from_bounded_torsion():
    """A step's quotient rows come from its witnesses' coefficients; the
    one-call form derives them from a second factorization of its own."""
    seen = set()
    for key, cert in _chain_certificates():
        seen.add(key.rsplit("/", 1)[0])
        element = {p.name: p.element for p in cert.pool}
        cursor = 0
        for step in cert.steps:
            prior = [p.element for p in cert.pool[:cursor]]
            expected = free_from_bounded_torsion(
                [element[n] for n in step.a_extension],
                [element[n] for n in step.b_extras],
                step.torsion_bound,
                modulo=prior,
            )
            padded = tuple((0,) * cursor + combo for _, combo in expected)
            assert step.quotient_basis == padded, f"{key}: {step.label}"
            cursor += len(step.a_extension) + len(step.b_extras)
            assert all(len(row) == cursor for row in step.quotient_basis)
        assert cursor == len(cert.pool)
    assert {"limitq/successor", "twoblock/successor", "limit_power/limit"} <= seen


def test_staircase_needs_a_ladder():
    d = Domain(ScatteredSpace(from_int(5)), ())
    pres = Presentation("flat", d, (("s", d.e(from_int(1))),))
    with pytest.raises(ChainError, match="a staircase needs a ladder"):
        verify_staircase(pres)
    with pytest.raises(ChainError, match="a staircase needs a ladder"):
        construct_staircase(pres)


def test_chain_torsion_bound():
    assert chain_torsion_bound([0, 1, 2, 3], 2) == 2
    assert chain_torsion_bound([0, 2, 4], 3) == 2


# --- successor chains ---------------------------------------------------------------


@pytest.fixture(scope="module")
def limitq_chain(limitq):
    return build_chain_successor(limitq, 6)


def test_successor_chain_shape(limitq, limitq_chain):
    cert = limitq_chain
    assert cert.kind == "successor"
    assert cert.rank == 8
    assert len(cert.pool) == 14
    assert [p.name for p in cert.pool][:6] == ["e_0", "a_0", "e_1", "a_1", "e_2", "a_2"]
    assert len(cert.steps) == 7
    # certified targets: the spikes up to the depth, then the generators
    # whose first support index fits inside it
    want = [f"e_{r}" for r in range(7)] + [f"a_{n}" for n in range(7)]
    assert [t.name for t in cert.targets] == want


def test_successor_chain_verifies(limitq, limitq_chain):
    report = smooth_chain_check(limitq, limitq_chain)
    assert report.ok, report.explain()


def test_successor_chain_witness_bounds(limitq_chain):
    for r, step in enumerate(limitq_chain.steps):
        for w in step.torsion_witnesses:
            assert w.bound == math.factorial(r)


def test_generators_over_reference_basis(limitq):
    """a_n writes over the spikes e_0..e_6 and the deepest generator."""
    d = limitq.domain
    L = d.ladder("q")
    refs = [d.e(L.point(k)) for k in range(7)] + [limitq.generator("a_6")]
    for n in range(7):
        dec = member_decompose(refs, limitq.generator(f"a_{n}"))
        assert dec is not None
        want = tuple(
            (math.factorial(k) // math.factorial(n)) if n <= k < 6 else 0
            for k in range(7)
        ) + (math.factorial(6) // math.factorial(n),)
        assert dec.coeffs == want


def test_pool_rows_solve_over_final_basis(limitq, limitq_chain):
    basis = limitq_chain.basis_elements()
    for entry in limitq_chain.pool:
        assert member_decompose(basis, entry.element) is not None


# --- limit chains ----------------------------------------------------------------


def _blame(pres, cert):
    return {(f.location, f.message) for f in smooth_chain_check(pres, cert).failures}


def test_checker_blames_later_extension_copying_an_earlier_element(limitq):
    # each step's ranks are taken modulo every earlier step, extras included
    cert = certify(limitq, depth=3)
    assert smooth_chain_check(limitq, cert).ok
    pool, steps = cert.pool, cert.steps
    names = [p.name for p in pool]
    for step_no, source in ((2, "e_0"), (2, "a_1"), (3, "e_1"), (3, "a_2")):
        step = steps[step_no]
        i = names.index(step.a_extension[0])
        copy = replace(pool[names.index(source)], name=pool[i].name)
        mutated = replace(cert, pool=pool[:i] + (copy,) + pool[i + 1 :])
        blamed = _blame(limitq, mutated)
        assert (
            f"step:{step.label}",
            "extension is dependent modulo the previous steps",
        ) in blamed, (step_no, source)
        # the copy's provenance re-sums, so the check reaches the ranks
        assert not any("provenance" in message for _, message in blamed)
    # an extra that is no torsion, copied into the next extension: the
    # extension is dependent all the same, since the extras count too
    e8 = limitq.domain.e(from_int(8))
    prov = limitq.span.decompose(e8).coeffs
    i, j = names.index("a_2"), names.index("e_3")
    mutated = replace(
        cert,
        pool=pool[:i]
        + (replace(pool[i], element=e8, provenance=prov),)
        + pool[i + 1 : j]
        + (replace(pool[j], element=e8, provenance=prov),)
        + pool[j + 1 :],
    )
    blamed = _blame(limitq, mutated)
    assert ("step:step 2", "witness for a_2 does not re-sum") in blamed
    assert ("step:step 3", "extension is dependent modulo the previous steps") in blamed


def test_checker_reads_a_basis_combination_below_a_spike(limitq):
    # a_0 - e(5) keeps indices 0-4 in its prefix, outside the pool's window;
    # its coordinates still exist, since past a_0's start the tail fixes them
    a0, e5 = limitq.generator("a_0"), limitq.domain.e(from_int(5))
    prov = limitq.span.decompose
    cert = FreenessCertificate(
        presentation="limitq",
        kind="successor",
        pool=(
            PoolEntry("a_0", a0, prov(a0).coeffs),
            PoolEntry("e_5", e5, prov(e5).coeffs),
        ),
        steps=(ChainStep("step 0", ("a_0", "e_5"), (), 1, (), 2, ((1, 0), (0, 1))),),
        final_basis=((1, -1), (0, 1)),
        targets=(TargetEntry("a_0", a0, (1, 1)),),
        rank=2,
    )
    assert smooth_chain_check(limitq, cert).ok


def test_checker_blames_quotient_row_inside_earlier_steps(limitq):
    cert = certify(limitq, depth=3)
    steps = cert.steps
    for step_no, j in ((2, 0), (2, 3), (3, 1), (3, 5)):
        step = steps[step_no]
        row = tuple(int(k == j) for k in range(step.quotient_over))
        bad = replace(step, quotient_basis=step.quotient_basis + (row,))
        mutated = replace(cert, steps=steps[:step_no] + (bad,) + steps[step_no + 1 :])
        assert _blame(limitq, mutated) == {
            (
                f"step:{step.label}",
                "quotient basis is dependent modulo the previous steps",
            )
        }, (step_no, j)


@pytest.mark.parametrize("name", GROUPS[1:])  # the presets with an auto certificate
def test_checker_counts_quotient_rows(name):
    # a quotient basis that lost a row is still independent modulo the
    # earlier steps, but has fewer rows than the step's extension
    pres = presets.load(name)
    cert = certify(pres)
    steps = cert.steps
    with_rows = [i for i, s in enumerate(steps) if s.quotient_basis]
    assert with_rows
    for i in with_rows:
        short = replace(steps[i], quotient_basis=steps[i].quotient_basis[:-1])
        mutated = replace(cert, steps=steps[:i] + (short,) + steps[i + 1 :])
        assert _blame(pres, mutated) == {
            (
                f"step:{steps[i].label}",
                "quotient basis needs one row per extension element",
            )
        }, i


@pytest.mark.parametrize(
    "maker, levels, rank",
    [
        (presets.limit_power, 5, 7),
        (presets.limit_power_two_weights, 4, 7),
        (presets.limit_power_integer, 4, 6),
        (presets.limit_power_jump, 3, 5),
    ],
)
def test_limit_chains_verify(maker, levels, rank):
    pres = maker()
    cert = build_chain_limit(pres, levels)
    assert cert.kind == "limit"
    assert cert.rank == rank
    report = smooth_chain_check(pres, cert)
    assert report.ok, report.explain()


def test_jump_preset_extends_by_cancellation():
    pres = presets.limit_power_jump()
    cert = build_chain_limit(pres, 3)
    assert any(n.startswith("g_") for s in cert.steps for n in s.a_extension)


def test_limit_chain_needs_power_ladder(limitq):
    with pytest.raises(ChainError):
        build_chain_limit(limitq, 3)


# --- restriction -------------------------------------------------------------------


def test_restriction_identities(two_prime):
    b1 = ClopenBlock(ZERO, OMEGA)
    b2 = ClopenBlock(OMEGA, parse_ordinal("w*2"))
    u2 = two_prime.generator("u_2")
    v1 = two_prime.generator("v_1")
    e0 = two_prime.generator("e_0")
    assert restrict_element(u2, b1) == u2
    assert restrict_element(u2, b2).is_zero
    assert restrict_element(e0, b1).is_zero
    assert restrict_element(e0, b2).is_zero
    mixed = u2 + 3 * v1 + 2 * e0
    r1, r2 = restrict_element(mixed, b1), restrict_element(mixed, b2)
    assert r1 == u2
    assert r2 == 3 * v1
    assert mixed - r1 - r2 == 2 * e0


# --- composition ---------------------------------------------------------------------


def test_compose_two_prime(two_prime):
    cert = multi_prime_compose(two_prime)
    assert cert.kind == "composite"
    assert cert.rank == 15
    report = smooth_chain_check(two_prime, cert)
    assert report.ok, report.explain()
    assert cert.steps[0].label == "residual"
    assert cert.pool[0].element == two_prime.generator("e_0")
    assert [t.name for t in cert.targets] == list(two_prime.names)


def test_compose_twoblock_leaves_off_ladder_spikes_to_the_residual(twoblock):
    # e_1-e_3 and e_w lie inside the block but off its ladder, where no
    # block chain adjoins them
    cert = certify(twoblock, "compose")
    report = smooth_chain_check(twoblock, cert)
    assert report.ok, report.explain()
    assert (cert.kind, cert.rank, len(cert.pool)) == ("composite", 11, 15)
    e1 = next(t for t in cert.targets if t.name == "e_1")
    assert e1.element == twoblock.generator("e_1")


def test_compose_detects_restriction_leaving_span(two_prime):
    d = two_prime.domain
    s = two_prime.generator("u_0") + two_prime.generator("v_0")
    knotted = Presentation(name="knotted", domain=d, generators=(("s", s),))
    with pytest.raises(CompositionError):
        multi_prime_compose(knotted)


def test_composition_error_is_chain_error():
    assert issubclass(CompositionError, ChainError)


# --- the certify entry point -----------------------------------------------------------

# the builder call extract-basis made for each preset before certify existed,
# and the first 16 hex digits of the SHA-256 of the certificate it wrote;
# three were recorded again when the chain began to grow one Hermite form,
# which picks other torsion witness coefficients there, and all seven when
# the final basis began to come from that form, with composite blocks no
# longer restarting it
EXPLICIT_BUILDS = {
    "limit_power": (lambda p: build_chain_limit(p, 5), "dc09fd3f6b4595a0"),
    "limit_power_integer": (lambda p: build_chain_limit(p, 4), "ed181302b38cf45d"),
    "limit_power_jump": (lambda p: build_chain_limit(p, 3), "4c1cf3584c298943"),
    "limit_power_two_weights": (
        lambda p: build_chain_limit(p, 9),
        "f941ebbf3d28749b",
    ),
    "limitq": (lambda p: build_chain_successor(p, 9), "f1f2abb5b043d0c7"),
    "two_prime": (multi_prime_compose, "270ae49d89ca62b7"),
    "twoblock": (lambda p: build_chain_successor(p, 4), "cff91f6b4808839c"),
}


def test_every_preset_is_listed():
    assert set(EXPLICIT_BUILDS) | {"gridrows"} == set(presets.PRESETS)


@pytest.mark.parametrize("name", sorted(EXPLICIT_BUILDS))
def test_certify_matches_explicit_builder(name):
    pres = presets.load(name)
    build, digest = EXPLICIT_BUILDS[name]
    blob = dumps(certificate_to_json(certify(pres)))
    assert blob == dumps(certificate_to_json(build(pres)))
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest


def test_certify_gridrows_has_no_chain(gridrows):
    with pytest.raises(ChainError):
        certify(gridrows)


def test_certify_modes_and_depth(limitq, two_prime):
    assert certify(limitq, depth=3) == build_chain_successor(limitq, 3)
    assert certify(two_prime, mode="compose").kind == "composite"
    with pytest.raises(ChainError):
        certify(limitq, mode="limit")
    with pytest.raises(ValueError):
        certify(limitq, mode="sideways")
    for mode in ("auto", "successor", "limit", "compose"):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            certify(limitq, mode, -1)


def test_default_depth_reaches_the_shaved_staircase(limitq):
    # e(1) on a_2 breaks the staircase axioms, so the chain runs over the
    # shaved family, whose least indices sit above the raw generators'
    d = limitq.domain
    gens = list(limitq.generators[:6])
    gens[2] = ("a_2", gens[2][1] + d.e(from_int(1)))
    noisy = Presentation("noisy", d, tuple(gens))
    cert = certify(noisy)
    assert smooth_chain_check(noisy, cert).ok
    span = Span(d, cert.basis_elements())
    for name, g in noisy.generators:
        assert span.decompose(g) is not None, name


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_every_built_certificate_verifies(name):
    # the builder either refuses or emits a certificate the checker passes;
    # depths 8 and 12 of limit_power_jump pad levels whose spike is torsion
    # modulo the earlier pool
    pres = presets.load(name)
    for mode in ("auto", "successor", "limit", "compose"):
        for depth in (None, 0, 1, 3, 5, 8, 12):
            try:
                cert = certify(pres, mode, depth)
            except (ChainError, ValueError):
                continue
            report = smooth_chain_check(pres, cert)
            assert report.ok, f"{mode} depth {depth}: {report.explain()}"


# the 256-case battery: every preset x mode x depth, default depth first
BATTERY_MODES = ("auto", "successor", "limit", "compose")
BATTERY_DEPTHS = (None, 0, 1, 2, 3, 5, 8, 12)


def _blanked_digest(cert):
    """The first 16 hex digits of the SHA-256 of the certificate's JSON
    with every torsion witness coefficient set to 0."""
    doc = certificate_to_json(cert)
    for s in doc["steps"]:
        for w in s["torsionWitnesses"]:
            w["coeffs"] = [0] * len(w["coeffs"])
    return hashlib.sha256(dumps(doc).encode()).hexdigest()[:16]


def battery_digests(name):
    """Per battery case of a preset, keyed preset:mode:depth: the blanked
    digest of its certificate and whether it verifies, or the error."""
    pres = presets.load(name)
    out = {}
    for mode in BATTERY_MODES:
        for depth in BATTERY_DEPTHS:
            key = f"{name}:{mode}:{depth}"
            try:
                cert = certify(pres, mode, depth)
            except (ChainError, ValueError) as ex:
                out[key] = {"error": f"{type(ex).__name__}: {ex}"}
                continue
            out[key] = {
                "blanked": _blanked_digest(cert),
                "verified": smooth_chain_check(pres, cert).ok
                and witnesses_resum(cert),
            }
    return out


# every error, and every certificate with its witness coefficients blanked,
# must keep its bytes.  The chain's Hermite form may pick other witness
# coefficients: two solutions differ by a kernel vector of the visible pool,
# which vanishes on the step's extension, so only the coefficients over
# earlier pool entries can move, and witnesses_resum re-sums them.  176 of
# the 184 certificates were recorded again when the final basis began to
# come from the chain's own grown form, with composite blocks no longer
# restarting it; the 72 errors kept their text
BATTERY_DIGESTS = json.loads(
    (Path(__file__).parent / "certificate_digests.json").read_text()
)


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_battery_is_frozen_but_for_witness_coefficients(name):
    got = battery_digests(name)
    want = {k: v for k, v in BATTERY_DIGESTS.items() if k.split(":")[0] == name}
    assert got == want
    assert all(v.get("verified", True) for v in got.values())


def test_battery_table_covers_every_case():
    assert len(BATTERY_DIGESTS) == 256
    built = [v for v in BATTERY_DIGESTS.values() if "blanked" in v]
    assert len(built) == 184 and all(v["verified"] for v in built)


def test_witness_oracle_rejects_a_bumped_coefficient(limitq):
    cert = certify(limitq, depth=3)
    assert witnesses_resum(cert)
    steps = cert.steps
    w = steps[2].torsion_witnesses[0]
    bumped = replace(w, coeffs=(w.coeffs[0] + 1,) + w.coeffs[1:])
    step = replace(steps[2], torsion_witnesses=(bumped,))
    assert not witnesses_resum(
        replace(cert, steps=steps[:2] + (step,) + steps[3:])
    )


@functools.cache
def _auto_pool(name):
    """A preset's auto-certificate pool, its coordinates and their rows."""
    pres = presets.load(name)
    elements = [p.element for p in certify(pres).pool]
    cs = CoordinateSystem.for_elements(pres.domain, elements)
    return pres.domain, elements, cs, [cs.coords(g) for g in elements]


@pytest.mark.parametrize("name", sorted(EXPLICIT_BUILDS))
@given(data=st.data())
def test_pool_rows_combine_as_the_pool_does(name, data):
    # the checker's premise: coords is linear on the pool's combinations,
    # so a combination of a pool prefix has that combination of its rows
    domain, elements, cs, rows = _auto_pool(name)
    n = data.draw(st.integers(0, len(elements)))
    c = data.draw(st.lists(st.integers(-1000, 1000), min_size=n, max_size=n))
    got = combine_rows(c, rows, len(cs.columns))
    assert list(got) == cs.coords(domain.combine(c, elements[:n]))


# (ok, first 16 hex digits of the SHA-256 of explain()) per checker case,
# frozen from a checker that built and read every combination as an element;
# 937 basis tampers and 3 mutation cases were recorded again when the final
# basis began to come from the chain's own grown form, and no ok moved
CHECKER_REPORTS = json.loads(
    (Path(__file__).parent / "checker_reports.json").read_text()
)


@pytest.mark.parametrize("group", GROUPS)
def test_checker_reports_are_frozen(group):
    got = checker_reports(group)
    want = {
        case: tuple(v)
        for case, v in CHECKER_REPORTS.items()
        if case.split(":")[0] == group
    }
    assert set(got) == set(want)
    changed = sorted(case for case in got if got[case] != want[case])
    assert not changed, changed[:10]


def test_checker_report_table_covers_every_certifying_preset():
    assert {case.split(":")[0] for case in CHECKER_REPORTS} == set(GROUPS)
    assert sum(case.startswith("mutation:") for case in CHECKER_REPORTS) == 20
    assert set(GROUPS) == {"mutation"} | set(EXPLICIT_BUILDS)


# --- quotient bases against the sympy oracle ------------------------------------------

# how many of the four modes build a certificate at the default depth
DEFAULT_BUILDS = {
    "gridrows": 0,
    "limit_power": 4,
    "limit_power_integer": 4,
    "limit_power_jump": 4,
    "limit_power_two_weights": 2,
    "limitq": 3,
    "two_prime": 3,
    "twoblock": 3,
}


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_quotient_bases_are_bases_modulo_the_earlier_steps(name):
    pytest.importorskip("sympy")
    pres = presets.load(name)
    built = 0
    for mode in ("auto", "successor", "limit", "compose"):
        try:
            cert = certify(pres, mode)
        except ChainError:
            continue
        assert quotient_basis_ok(cert), mode
        built += 1
    assert built == DEFAULT_BUILDS[name]


def test_quotient_oracle_judges_changed_rows(limitq):
    pytest.importorskip("sympy")
    cert = certify(limitq, depth=3)
    steps = cert.steps

    def step_2_with(*rows):
        new = replace(steps[2], quotient_basis=rows)
        return replace(cert, steps=steps[:2] + (new,) + steps[3:])

    (q,) = steps[2].quotient_basis
    assert q[0] == 0
    assert quotient_basis_ok(step_2_with(q))
    assert not quotient_basis_ok(step_2_with())
    assert not quotient_basis_ok(step_2_with(tuple(2 * x for x in q)))
    assert quotient_basis_ok(step_2_with(tuple(-x for x in q)))
    # plus the first pool entry: the same class modulo the earlier steps
    assert quotient_basis_ok(step_2_with((1,) + q[1:]))


def _checker_case(name):
    group = name.split(":")[0]
    return next((p, c) for case, p, c in checker_cases(group) if case == name)


def test_quotient_oracle_rejects_a_row_of_index_two():
    pytest.importorskip("sympy")
    pres, cert = _checker_case("limitq:quotient:2:0:4")
    assert cert.steps[2].quotient_basis == ((0, 0, 0, 0, 2, 0),)
    assert not quotient_basis_ok(cert)


def test_checker_rejects_a_quotient_row_of_index_two():
    pres, cert = _checker_case("limitq:quotient:2:0:4")
    assert _blame(pres, cert) == {
        (
            f"step:{cert.steps[2].label}",
            "quotient basis does not generate the step modulo the previous steps",
        )
    }


# the groups whose +1 quotient tampers the oracle judges in a few seconds:
# 242 of the 570 frozen ones
ORACLE_GROUPS = (
    "limitq",
    "twoblock",
    "limit_power",
    "limit_power_integer",
    "limit_power_jump",
)


@pytest.mark.parametrize("group", ORACLE_GROUPS)
def test_checker_judges_quotient_tampers_as_the_oracle_does(group):
    pytest.importorskip("sympy")
    seen = 0
    for case, pres, cert in checker_cases(group):
        if f"{group}:quotient:" in case:
            assert smooth_chain_check(pres, cert).ok == quotient_basis_ok(cert), case
            seen += 1
    assert seen == {
        "limitq": 112,
        "twoblock": 32,
        "limit_power": 44,
        "limit_power_integer": 32,
        "limit_power_jump": 22,
    }[group]


# --- final bases against the sympy oracle ---------------------------------------------


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_final_basis_oracle_accepts_every_default_certificate(name):
    pytest.importorskip("sympy")
    pres = presets.load(name)
    built = 0
    for mode in ("auto", "successor", "limit", "compose"):
        try:
            cert = certify(pres, mode)
        except ChainError:
            continue
        assert final_basis_ok(cert), mode
        built += 1
    assert built == DEFAULT_BUILDS[name]


# the oracle judges the 464 +1 basis tampers of these groups in 3-4 s on
# Python 3.11, limitq's 220 in 2-3 s of it; every one fails both
@pytest.mark.parametrize("group", ORACLE_GROUPS)
def test_checker_judges_basis_tampers_as_the_oracle_does(group):
    pytest.importorskip("sympy")
    seen = 0
    for case, pres, cert in checker_cases(group):
        if f"{group}:basis:" in case:
            assert smooth_chain_check(pres, cert).ok == final_basis_ok(cert), case
            seen += 1
    assert seen == {
        "limitq": 220,
        "twoblock": 60,
        "limit_power": 84,
        "limit_power_integer": 60,
        "limit_power_jump": 40,
    }[group]


def test_a_unimodular_basis_change_verifies(limitq):
    # row 0 += row 1 leaves a basis of the same lattice; each target keeps
    # its element with coefficient c0 on the new row 0 and c1 - c0 on row 1
    pytest.importorskip("sympy")
    cert = certify(limitq)
    b0, b1 = cert.final_basis[:2]
    basis = (tuple(x + y for x, y in zip(b0, b1)), b1) + cert.final_basis[2:]
    targets = tuple(
        replace(t, coeffs=(t.coeffs[0], t.coeffs[1] - t.coeffs[0]) + t.coeffs[2:])
        for t in cert.targets
    )
    moved = replace(cert, final_basis=basis, targets=targets)
    assert moved != cert and any(t.coeffs[0] for t in cert.targets)
    report = smooth_chain_check(limitq, moved)
    assert report.ok, report.explain()
    assert final_basis_ok(moved)


def test_final_basis_coefficients_stay_small():
    # the final basis is u[:rank] of the chain's grown form, whose rows
    # stay small; a form of the whole pool factored at once has 192 bits
    pres = presets.limitq(48)
    cert = certify(pres, depth=46)
    bits = max(abs(x).bit_length() for combo in cert.final_basis for x in combo)
    assert bits <= 16
    assert smooth_chain_check(pres, cert).ok


# the first 16 hex digits of the SHA-256 of each limitq(n) certificate at
# depth n - 2, as scripts/scale_report.py reports them (cert_sha)
SCALE_CERTIFICATES = {
    24: "153c2333394aaca3",
    48: "1f581cc361547275",
    64: "cf19b5ae4ffdd614",
    80: "dbf8959344a1aaa3",
}


@pytest.mark.parametrize("n", sorted(SCALE_CERTIFICATES))
def test_scale_certificates_are_frozen(n):
    text = dumps(certificate_to_json(certify(presets.limitq(n), depth=n - 2)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == SCALE_CERTIFICATES[n]


@given(st.data())
def test_projection_kernel_is_the_span_of_the_earlier_rows(data):
    n = data.draw(st.integers(1, 5))
    vec = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    rows = st.lists(vec, max_size=6)
    # grow the checker's list of (pivot, row) pairs from two batches, as
    # two chain steps do, then project other rows through it
    batches = [data.draw(rows), data.draw(rows)]
    prior = []
    for batch in batches:
        form = hnf_rows(project(prior, batch))
        prior.extend(zip(form.pivots, form.h))
    earlier = batches[0] + batches[1]
    assert len(prior) == row_rank(earlier)
    for i, (_, b) in enumerate(prior):
        assert all(b[c] == 0 for c, _ in prior[:i])
    probe = data.draw(rows)
    for row, image in zip(probe, project(prior, probe)):
        in_span = row_rank(earlier + [row]) == row_rank(earlier)
        assert (not any(image)) == in_span, (earlier, row, image)
    # the rows of one call share one linear map
    x, y = data.draw(vec), data.draw(vec)
    ix, iy, isum = project(prior, [x, y, [a + b for a, b in zip(x, y)]])
    assert isum == [a + b for a, b in zip(ix, iy)]


def test_limit_chain_leaves_out_a_torsion_pad():
    pres = presets.limit_power_jump()
    cert = build_chain_limit(pres, 8)
    names = [p.name for p in cert.pool]
    assert "pad_8" not in names and "pad_7" in names
    assert (cert.rank, len(cert.pool)) == (9, 12)
    assert smooth_chain_check(pres, cert).ok


def test_chain_step_rejects_a_dependent_extension(limitq):
    e0 = limitq.domain.e(from_int(0))
    chain = _Chain(limitq, "successor", [e0, 2 * e0])
    chain.step("one", [("e_0", e0)], [], 1)
    with pytest.raises(ChainError, match="raises the rank by 0, not 1"):
        chain.step("again", [("twice", 2 * e0)], [], 1)
    assert [p.name for p in chain.pool] == ["e_0"]
