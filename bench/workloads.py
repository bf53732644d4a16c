"""The three benchmark workloads: inputs from a seed, one operation, and a
known-answer check for its output.

Each workload builds its inputs in set-up as a list of cycles.  A cycle
visits every preset of the workload once per operation kind, in a seeded
order, so a window made of whole cycles always runs the same mix of
operations.  `op` performs what a user of the library or the CLI asks for
and returns (seconds spent in the program, output); `check` compares that
output with an answer the benchmark knows, outside the timed section, and
returns an error message or None.

Importing this module imports ordlat, so the caller must put the checkout's
`src` directory on `sys.path` first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ordlat import cli, element, group, presets
from ordlat.ordinal import Ordinal, from_int

HERE = Path(__file__).resolve().parent
clock = time.perf_counter

# Five presets that together cover one arithmetic ladder (limitq), a ladder
# above loose spikes (twoblock), a ladder of rank-1 limits (gridrows), two
# ladders (two_prime) and two weights on the power ladder, whose points w^k
# are the deepest ordinals of any preset (limit_power_two_weights).
LATTICE_PRESETS = (
    "limitq",
    "twoblock",
    "gridrows",
    "two_prime",
    "limit_power_two_weights",
)
# limitq with 24 generators widens the evaluation window of member_decompose
# to 24 points and puts 24!-sized entries into its Hermite form.
DECOMPOSE_PRESETS = LATTICE_PRESETS + ("limitq24",)


def _load(name: str):
    if name == "limitq24":
        return presets.limitq(24)
    return presets.load(name)


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Workload:
    """Seeded inputs for one workload, grouped into cycles."""

    name = ""
    # cycles generated for the timed window, about four times what one
    # worker runs at the first baseline; a faster worker starts over and
    # reports the repeated cycles
    round_cycles = 1
    # cycles the traced run replays, fixed so its counts repeat exactly
    trace_cycles = 1

    def __init__(self, seed: int, wrong_answers: bool = False) -> None:
        self.seed = seed
        self.wrong = wrong_answers
        self.setup()
        rng = random.Random(f"{self.name}:{seed}")
        self.cycles = [self.make_cycle(rng) for _ in range(self.round_cycles)]
        warm_rng = random.Random(f"{self.name}:{seed}:warm-up")
        self.warm_up = self.make_cycle(warm_rng)

    def digest(self) -> str:
        return _digest([self.warm_up, self.cycles])

    def close(self) -> None:
        pass

    # subclasses define setup, make_cycle, op and check


# --- certify ------------------------------------------------------------------


class Certify(Workload):
    """extract-basis, cert-verify, and cert-verify of a tampered copy, run
    through the CLI entry point for one preset per operation."""

    name = "certify"
    round_cycles = 64
    trace_cycles = 2

    def setup(self) -> None:
        with open(HERE / "expected.json") as fh:
            self.expected = json.load(fh)["certify"]
        self.preset_names = sorted(presets.PRESETS)
        if sorted(self.expected) != self.preset_names:
            raise RuntimeError("expected.json does not list every preset")
        out = HERE.parent / ".bench_out"
        out.mkdir(exist_ok=True)
        self.tmp = out / f"certify-{os.getpid()}"
        self.tmp.mkdir(exist_ok=True)

    def close(self) -> None:
        for f in self.tmp.iterdir():
            f.unlink()
        self.tmp.rmdir()

    def make_cycle(self, rng: random.Random) -> List[Tuple[str, int]]:
        order = list(self.preset_names)
        rng.shuffle(order)
        # the tamper choice is a number the op maps onto the certificate it
        # gets, so inputs do not depend on the program's output
        return [(name, rng.randrange(1 << 30)) for name in order]

    @staticmethod
    def _cli(argv: List[str]) -> Tuple[float, int, str]:
        out = io.StringIO()
        t = clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = cli.main(argv)
        return clock() - t, rc, out.getvalue()

    def op(self, inp):
        name, tamper = inp
        cert = str(self.tmp / "cert.json")
        bad = str(self.tmp / "tampered.json")
        src = ["--preset", name]
        spent, rc, text = self._cli(["extract-basis", *src, "--output", cert])
        result = {"extract": rc, "text": text}
        if rc != 0:
            return spent, result
        with open(cert) as fh:
            doc = json.load(fh)
        result["rank"] = doc["rank"]
        result["tamper"] = _tamper(doc, tamper)
        with open(bad, "w") as fh:
            json.dump(doc, fh)
        dt, result["verify"], result["verify_text"] = self._cli(
            ["cert-verify", *src, "--cert", cert]
        )
        spent += dt
        dt, result["tampered"], result["tampered_text"] = self._cli(
            ["cert-verify", *src, "--cert", bad]
        )
        return spent + dt, result

    def check(self, inp, out) -> Optional[str]:
        name, _ = inp
        want = self.expected[name]
        rank = want.get("rank")
        if self.wrong and rank is not None:
            rank += 1
        if out["extract"] != want["extract"]:
            return f"{name}: extract-basis exit {out['extract']}, want {want['extract']}"
        if rank is None:
            return None
        if out["rank"] != rank:
            return f"{name}: certificate rank {out['rank']}, want {rank}"
        if out["verify"] != 0 or out["verify_text"].strip() != "certificate verified":
            return f"{name}: cert-verify exit {out['verify']}"
        if out["tampered"] != 1:
            return (
                f"{name}: tampered {out['tamper']} gave exit {out['tampered']}, want 1"
            )
        return None


def _tamper(doc: dict, pick: int) -> str:
    """Corrupt one integer of a certificate so that the checker must fail.

    Only corruptions that a re-sum or the declared rank exposes for certain
    are used: a provenance coefficient, a torsion witness coefficient, a
    target coefficient, or the rank.
    """
    sites = []
    for i, p in enumerate(doc["pool"]):
        if p["provenance"] is not None:
            sites += [("pool", i, j) for j in range(len(p["provenance"]))]
    for i, s in enumerate(doc["steps"]):
        for j, w in enumerate(s["torsionWitnesses"]):
            sites += [("witness", i, j, k) for k in range(len(w["coeffs"]))]
    for i, t in enumerate(doc["certifiedTargets"]):
        sites += [("target", i, j) for j in range(len(t["coeffs"]))]
    sites.append(("rank",))
    site = sites[pick % len(sites)]
    if site[0] == "pool":
        doc["pool"][site[1]]["provenance"][site[2]] += 1
    elif site[0] == "witness":
        doc["steps"][site[1]]["torsionWitnesses"][site[2]]["coeffs"][site[3]] += 1
    elif site[0] == "target":
        doc["certifiedTargets"][site[1]]["coeffs"][site[2]] += 1
    else:
        doc["rank"] += 1
    return ":".join(map(str, site))


# --- lattice ------------------------------------------------------------------


def _combo(rng: random.Random, n_gens: int) -> Tuple[Tuple[int, int], ...]:
    idx = rng.sample(range(n_gens), rng.randint(1, 3))
    return tuple((i, rng.choice((-3, -2, -1, 1, 2, 3))) for i in sorted(idx))


def _build(pres, combo) -> element.Element:
    gens = pres.elements
    f = pres.domain.zero()
    for i, c in combo:
        f = f + c * gens[i]
    return f


def _window(*fs: element.Element) -> List[Ordinal]:
    """Points where the elements may differ from their tail formulas: every
    prefix point, and every ladder index up to two past the largest settle
    index."""
    dom = fs[0].domain
    pts = {x for f in fs for x, _ in f.prefix}
    for L in dom.ladders:
        top = max(f.settle_index(L.id) for f in fs) + 2
        pts.update(L.point(k) for k in range(top))
    return sorted(pts, key=Ordinal.key)


def _eventual_min(rg: Dict, rh: Dict) -> Dict:
    """Residue vector of the eventually smaller of two functions: the one
    whose coefficient on the most dominant weight where they differ is
    smaller."""
    for w in sorted(rg, key=element.WeightFn.dominance_key, reverse=True):
        if rg[w] != rh[w]:
            return rg if rg[w] < rh[w] else rh
    return rg


class Lattice(Workload):
    """Lattice-group laws on three seeded combinations of generators."""

    name = "lattice"
    round_cycles = 1600
    trace_cycles = 40

    def setup(self) -> None:
        self.pres = {n: _load(n) for n in LATTICE_PRESETS}

    def make_cycle(self, rng: random.Random):
        order = list(LATTICE_PRESETS)
        rng.shuffle(order)
        cycle = []
        for name in order:
            n = len(self.pres[name].generators)
            cycle.append((name, _combo(rng, n), _combo(rng, n), _combo(rng, n)))
        return cycle

    def op(self, inp):
        name, cf, cg, ch = inp
        pres = self.pres[name]
        t = clock()
        f, g, h = _build(pres, cf), _build(pres, cg), _build(pres, ch)
        m = g.meet(h)
        laws = {
            "commutative": m == h.meet(g),
            "translation": f + m == (f + g).meet(f + h),
            "absorption": f.join(f.meet(g)) == f and f.meet(f.join(g)) == f,
            "lower_bound": (g - m).is_nonneg() and (h - m).is_nonneg(),
        }
        fp, gp = f.plus_part(), g.plus_part()
        ratio = element.bounded_ratio_witness(fp, gp)
        spent = clock() - t
        return spent, (g, h, m, fp, gp, ratio, laws)

    def check(self, inp, out) -> Optional[str]:
        name = inp[0]
        g, h, m, fp, gp, ratio, laws = out
        broken = [k for k, ok in laws.items() if not ok]
        if broken:
            return f"{name}: laws {broken} fail"
        pick = max if self.wrong else min
        for x in _window(g, h, m, g - h):
            want = pick(g.value(x), h.value(x))
            if m.value(x) != want:
                return f"{name}: meet is {m.value(x)} at {x}, want {want}"
        for L in g.domain.ladders:
            want = _eventual_min(g.residue_at(L.id), h.residue_at(L.id))
            if m.residue_at(L.id) != want:
                return f"{name}: meet residue on {L.id} is not the eventual min"
        if ratio is not None:
            for x in _window(fp, gp):
                if ratio * fp.value(x) < gp.value(x):
                    return f"{name}: {ratio}*f+ < g+ at {x}"
        return None


# --- decompose ----------------------------------------------------------------


def _spike_points(pres) -> List[Ordinal]:
    dom = pres.domain
    pts = set()
    for L in dom.ladders:
        pts.update(L.point(k) for k in range(8))
    pts.update(from_int(k) for k in range(4))
    return sorted(
        (p for p in pts if dom.space.contains(p) and dom.target_ladder(p) is None),
        key=Ordinal.key,
    )


def _same_combination(pres, a, b) -> bool:
    """Whether two coefficient vectors give the same function, judged by
    values over the window of the generators and by residues, without
    adding elements."""
    gens = pres.elements

    def at(c, x):
        return sum(ci * g.value(x) for ci, g in zip(c, gens) if ci)

    for x in _window(*gens):
        if at(a, x) != at(b, x):
            return False
    for L in pres.domain.ladders:
        for w in L.weights:
            ra = sum(ci * g.residue_at(L.id)[w] for ci, g in zip(a, gens))
            rb = sum(ci * g.residue_at(L.id)[w] for ci, g in zip(b, gens))
            if ra != rb:
                return False
    return True


class Decompose(Workload):
    """member_decompose of a generator combination, or a span_qx_decompose
    round trip of a finite sum of spikes."""

    name = "decompose"
    round_cycles = 2000
    trace_cycles = 20

    def setup(self) -> None:
        with open(HERE / "expected.json") as fh:
            self.unique = json.load(fh)["decompose_unique"]
        self.pres = {n: _load(n) for n in DECOMPOSE_PRESETS}
        self.points = {n: _spike_points(p) for n, p in self.pres.items()}

    def make_cycle(self, rng: random.Random):
        ops = [(n, kind) for n in DECOMPOSE_PRESETS for kind in ("member", "span")]
        rng.shuffle(ops)
        cycle = []
        for name, kind in ops:
            if kind == "member":
                n = len(self.pres[name].generators)
                idx = rng.sample(range(n), rng.randint(1, 4))
                coeffs = [0] * n
                for i in idx:
                    coeffs[i] = rng.choice([c for c in range(-5, 6) if c])
                cycle.append((name, kind, tuple(coeffs)))
            else:
                pts = self.points[name]
                idx = rng.sample(range(len(pts)), rng.randint(1, 6))
                spikes = tuple(
                    (i, rng.choice([c for c in range(-9, 10) if c]))
                    for i in sorted(idx)
                )
                cycle.append((name, kind, spikes))
        return cycle

    def op(self, inp):
        name, kind, data = inp
        pres = self.pres[name]
        dom = pres.domain
        t = clock()
        if kind == "member":
            target = dom.zero()
            for c, g in zip(data, pres.elements):
                if c:
                    target = target + c * g
            out = group.member_decompose(pres.elements, target)
        else:
            pts = self.points[name]
            f = dom.zero()
            for i, c in data:
                f = f + c * dom.e(pts[i])
            got = group.span_qx_decompose(f)
            resum = dom.zero()
            for x, c in got.items():
                resum = resum + c * dom.e(x)
            out = (got, resum == f)
        return clock() - t, out

    def check(self, inp, out) -> Optional[str]:
        name, kind, data = inp
        bump = 1 if self.wrong else 0
        if kind == "member":
            want = (data[0] + bump,) + data[1:]
            if out is None:
                return f"{name}: member_decompose found no solution"
            if out.unique != self.unique[name]:
                return f"{name}: unique is {out.unique}, want {self.unique[name]}"
            if out.unique and out.coeffs != want:
                return f"{name}: coefficients {out.coeffs}, want {want}"
            if not out.unique and not _same_combination(
                self.pres[name], out.coeffs, want
            ):
                return f"{name}: coefficients {out.coeffs} do not re-sum"
            return None
        got, roundtrip = out
        pts = self.points[name]
        want = {pts[i]: c for i, c in data}
        first = pts[data[0][0]]
        want[first] += bump
        if not roundtrip or dict(got) != want:
            return f"{name}: span_qx_decompose does not return the spikes"
        return None


WORKLOADS = {w.name: w for w in (Certify, Lattice, Decompose)}
