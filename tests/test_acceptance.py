"""End-to-end acceptance battery.

Each criterion is one test that prints a single PASS line on success; the
pytest -v report therefore shows one pass/fail line per criterion.  Time
budgets are asserted where the behaviour is meant to stay interactive.
"""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction


from ordlat import presets
from ordlat.cli import main as cli_main
from ordlat.ddmodel import (
    phi_homomorphism_check,
    spec_map_check,
    witness_battery,
)
from ordlat.element import WeightFn
from ordlat.freeness import (
    build_chain_successor,
    multi_prime_compose,
    smooth_chain_check,
    verify_staircase,
)
from ordlat.group import member_decompose, span_qx_decompose
from ordlat.intlinalg import row_rank
from ordlat.ordinal import Ordinal, from_int, parse_ordinal
from ordlat.space import ScatteredSpace

from .oracles import greedy_peel, rank_table

FACTORIAL = WeightFn("factorial")


def report(num, text):
    print(f"criterion {num} PASS: {text}")


# --- 1: worked example ---------------------------------------------------------


def test_criterion_01_demo_matrix(capsys):
    t0 = time.perf_counter()
    rc = cli_main(["demo-limitq"])
    out = capsys.readouterr().out
    assert rc == 0
    for line in (
        "a_0: 1 1 2 6 24",
        "a_1: 0 1 2 6 24",
        "a_2: 0 0 1 3 12",
        "a_3: 0 0 0 1 4",
    ):
        assert line in out, line

    pres = presets.limitq()
    assert verify_staircase(pres).ok
    assert verify_staircase(pres).d[:9] == tuple(math.factorial(n) for n in range(9))
    a0 = pres.generator("a_0")
    for n in range(9):
        an = pres.generator(f"a_{n}")
        assert an.mu("q") == n
        diff = math.factorial(n) * an - a0
        for k in range(n, n + 7):
            assert diff.value(from_int(k)) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    report(1, f"worked example reproduced exactly in {elapsed:.2f}s")


# --- 2: residue map -------------------------------------------------------------


def test_criterion_02_residues():
    pres = presets.limitq()
    for n in range(9):
        res = pres.generator(f"a_{n}").residue_at("q")
        assert res == {FACTORIAL: Fraction(1, math.factorial(n))}
    d = pres.domain
    for f in (d.e(from_int(0)), 2 * pres.generator("a_2") - pres.generator("a_0")):
        assert not f.tails
        assert sum(f.residue_at("q").values(), Fraction(0)) == 0
    report(2, "residues are 1/n! and vanish on the kernel")


# --- 3: rank oracle --------------------------------------------------------------


def test_criterion_03_rank_oracle():
    t0 = time.perf_counter()
    checked = 0
    for toptext in ("w", "w*2", "w^2", "w^2*3", "w^3"):
        top = parse_ordinal(toptext)
        space = ScatteredSpace(top)
        table = rank_table(top, 3)
        for point, want in table.items():
            assert space.cb_rank(point) == from_int(want), (toptext, str(point))
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    report(3, f"rank agrees with the derived-set oracle on {checked} points in {elapsed:.2f}s")


# --- 4: kernel decomposition round trip --------------------------------------------


def test_criterion_04_span_roundtrip():
    rng = random.Random(4)
    total = 0
    for pname in ("limitq", "twoblock", "gridrows"):
        pres = presets.load(pname)
        d = pres.domain
        candidates = []
        for L in d.ladders:
            candidates.extend(L.point(k) for k in range(8))
        candidates.extend(
            from_int(k) for k in range(4) if d.space.contains(from_int(k))
        )
        candidates = sorted(
            {p for p in candidates if d.target_ladder(p) is None}, key=Ordinal.key
        )
        for _ in range(500):
            support = rng.sample(candidates, rng.randint(1, 6))
            f = d.zero()
            for p in support:
                c = rng.choice([c for c in range(-9, 10) if c])
                f = f + c * d.e(p)
            got = span_qx_decompose(f)
            resum = d.zero()
            for x, c in got.items():
                resum = resum + c * d.e(x)
            assert resum == f
            assert dict(got) == greedy_peel(f)
            total += 1
    report(4, f"{total} kernel elements decompose and re-sum exactly")


# --- 5: lattice laws ---------------------------------------------------------------


def test_criterion_05_lattice_laws():
    rng = random.Random(5)
    for pname in ("limitq", "twoblock", "gridrows"):
        pres = presets.load(pname)
        gens = pres.elements

        def combo():
            f = pres.domain.zero()
            for g in rng.sample(gens, rng.randint(1, 3)):
                f = f + rng.choice([-3, -2, -1, 1, 2, 3]) * g
            return f

        for _ in range(1000):
            f, g, h = combo(), combo(), combo()
            m = g.meet(h)
            assert g.meet(h) == h.meet(g)
            assert f.meet(m) == f.meet(g).meet(h)
            assert f.meet(f) == f
            assert f.join(f.meet(g)) == f
            assert f.meet(f.join(g)) == f
            assert f + m == (f + g).meet(f + h)
    report(5, "3000 random triples satisfy the lattice-group laws")


# --- 6: rank of a positive sum -------------------------------------------------------


def test_criterion_06_sum_rank():
    rng = random.Random(6)
    checked = 0
    for pname in ("limitq", "twoblock"):
        pres = presets.load(pname)
        assert pres.domain.space.space_rank() == from_int(2)
        gens = pres.elements
        while checked < 250 * (1 if pname == "limitq" else 2):
            f = pres.domain.zero()
            g = pres.domain.zero()
            for _ in range(rng.randint(1, 3)):
                f = f + rng.choice([-2, -1, 1, 2]) * rng.choice(gens)
                g = g + rng.choice([-2, -1, 1, 2]) * rng.choice(gens)
            f, g = f.plus_part(), g.plus_part()
            if f.is_zero or g.is_zero:
                continue
            want = max(f.cb(), g.cb(), key=Ordinal.key)
            assert (f + g).cb() == want
            checked += 1
    report(6, f"{checked} positive pairs take the max rank under addition")


# --- 7: chain certification ------------------------------------------------------------


def test_criterion_07_chain():
    t0 = time.perf_counter()
    pres = presets.limitq()
    cert = build_chain_successor(pres, 6)

    # (i) torsion witnesses carry bound r! and re-sum
    for r, step in enumerate(cert.steps):
        assert step.torsion_bound == math.factorial(r)
        names = [p.name for p in cert.pool]
        elements = [p.element for p in cert.pool]
        for w in step.torsion_witnesses:
            assert w.bound == math.factorial(r)
            acc = pres.domain.zero()
            for c, g in zip(w.coeffs, elements[: w.over]):
                acc = acc + c * g
            assert acc == w.bound * elements[names.index(w.extra)]

    # (ii) quotient bases have full rank over the step prefix
    from ordlat.group import CoordinateSystem

    cs = CoordinateSystem.for_elements(pres.domain, [p.element for p in cert.pool])
    for step in cert.steps:
        rows = []
        for combo in step.quotient_basis:
            acc = pres.domain.zero()
            for c, g in zip(combo, [p.element for p in cert.pool]):
                acc = acc + c * g
            rows.append(cs.coords(acc))
        assert row_rank(rows) == len(rows)

    # (iii) spikes and family members decompose uniquely over the basis
    basis = cert.basis_elements()
    L = pres.domain.ladder("q")
    want_targets = [pres.domain.e(L.point(k)) for k in range(7)] + [
        pres.generator(f"a_{n}") for n in range(7)
    ]
    for f in want_targets:
        dec = member_decompose(basis, f)
        assert dec is not None and dec.unique

    # (iv) the independent checker agrees
    rep = smooth_chain_check(pres, cert)
    assert rep.ok, rep.explain()
    assert cert.rank == 8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    report(7, f"depth-6 chain certified rank 8 in {elapsed:.2f}s")


# --- 8: mutation detection ---------------------------------------------------------------


def _mutations(pres, cert):
    """Twenty single-field corruptions, each tagged with the location the
    checker must blame."""
    d = pres.domain
    L = d.ladder("q")
    e = d.e
    pool, steps, targets = cert.pool, cert.steps, cert.targets

    def pool_entry(i, **kw):
        new = replace(pool[i], **kw)
        return replace(cert, pool=pool[:i] + (new,) + pool[i + 1 :])

    def step(i, **kw):
        new = replace(steps[i], **kw)
        return replace(cert, steps=steps[:i] + (new,) + steps[i + 1 :])

    def witness(i, j, **kw):
        w = steps[i].torsion_witnesses[j]
        ws = (
            steps[i].torsion_witnesses[:j]
            + (replace(w, **kw),)
            + steps[i].torsion_witnesses[j + 1 :]
        )
        return step(i, torsion_witnesses=ws)

    def target(i, **kw):
        new = replace(targets[i], **kw)
        return replace(cert, targets=targets[:i] + (new,) + targets[i + 1 :])

    w22 = steps[2].torsion_witnesses[0]
    basis = cert.final_basis
    bumped = tuple(c + (1 if k == 0 else 0) for k, c in enumerate(basis[1]))

    return [
        # pool corruption
        ("pool element", pool_entry(1, element=pool[1].element + e(L.point(1))), ("pool:a_0",)),
        ("pool provenance", pool_entry(1, provenance=(pool[1].provenance[0] + 1,) + pool[1].provenance[1:]), ("pool:a_0",)),
        ("pool order swap", replace(cert, pool=pool[:2] + (pool[3], pool[2]) + pool[4:]), ("step:step 1",)),
        ("pool entry dropped", replace(cert, pool=pool[:-1]), ("step:step 6", "pool")),
        # witness corruption
        ("witness coefficient", witness(2, 0, coeffs=(w22.coeffs[0] + 1,) + w22.coeffs[1:]), ("step:step 2",)),
        ("witness bound", witness(3, 0, bound=7), ("step:step 3",)),
        ("witness dropped", step(2, torsion_witnesses=()), ("step:step 2",)),
        ("witness window", witness(2, 0, over=w22.over + 1), ("step:step 2",)),
        ("witness truncated", witness(2, 0, coeffs=w22.coeffs[:-1]), ("step:step 2",)),
        ("witness retargeted", witness(2, 0, extra="a_1"), ("step:step 2",)),
        # step structure corruption
        ("torsion bound zero", step(0, torsion_bound=0), ("step:step 0",)),
        ("extension renamed", step(1, a_extension=("bogus",)), ("step:step 1",)),
        ("phantom extra", step(2, b_extras=steps[2].b_extras + ("ghost",)), ("step:step 2",)),
        ("quotient zeroed", step(1, quotient_basis=((0,) * steps[1].quotient_over,)), ("step:step 1",)),
        ("quotient window", step(2, quotient_over=3), ("step:step 2",)),
        # final basis and summary corruption
        ("basis duplicated row", replace(cert, final_basis=(basis[0],) + basis[:1] + basis[2:]), ("basis",)),
        ("basis scaled row", replace(cert, final_basis=(tuple(2 * c for c in basis[0]),) + basis[1:]), ("basis", "pool:", "target:")),
        ("basis bumped row", replace(cert, final_basis=(basis[0], bumped) + basis[2:]), ("basis", "pool:", "target:")),
        ("rank overstated", replace(cert, rank=cert.rank + 1), ("basis",)),
        # target corruption
        ("target coefficients", target(3, coeffs=(targets[3].coeffs[0] + 1,) + targets[3].coeffs[1:]), ("target:e_3",)),
    ]


def test_criterion_08_mutation_detection():
    pres = presets.limitq()
    cert = build_chain_successor(pres, 6)
    assert smooth_chain_check(pres, cert).ok

    battery = _mutations(pres, cert)
    assert len(battery) == 20
    detected = 0
    for name, mutated, expected in battery:
        rep = smooth_chain_check(pres, mutated)
        assert not rep.ok, f"{name}: corruption went unnoticed"
        locations = {f.location for f in rep.failures}
        assert any(
            loc.startswith(prefix) for loc in locations for prefix in expected
        ), f"{name}: blamed {sorted(locations)}, wanted {expected}"
        detected += 1
    report(8, f"{detected}/20 certificate corruptions caught at the right place")


# --- 9: ideal dictionary ------------------------------------------------------------------


def test_criterion_09_ideal_dictionary():
    pres = presets.limitq()
    phi = phi_homomorphism_check(pres, cases=200, seed=9)
    assert phi.ok, phi.failures
    probes = spec_map_check(pres, cases=50, seed=9)
    assert all(probes.values()), probes
    wit = witness_battery(pres, cases=100, seed=9)
    assert wit.ok, wit.failures
    report(9, "200 ideal pairs and 100 minimal power witnesses check out")


# --- 10: multi-prime composition ------------------------------------------------------------


def test_criterion_10_composition():
    t0 = time.perf_counter()
    pres = presets.two_prime()
    cert = multi_prime_compose(pres)
    rep = smooth_chain_check(pres, cert)
    assert rep.ok, rep.explain()
    assert cert.kind == "composite"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    report(10, f"two-prime presentation composes and verifies in {elapsed:.2f}s")
