#!/usr/bin/env python3
"""Per-operation costs on the limitq preset, printed as one JSON object.

Usage: microbench.py [--repeat N] [--seed S]

Each cost is in microseconds per call: the median over N repeats of the
mean over one pass.  The element operations run on seeded combinations of
one to three generators, rebuilt before every pass, so that no cached
ladder window carries over from one pass to the next; meet and join take
the same pairs; value reads twelve
ladder points per element, and scale multiplies each combination by a
seeded factor in {-3, -2, 2, 3}.  quark_decompose writes seeded sums of one
to six spikes at ladder points 0-11, with coefficients in [-9, 9], over
their quarks; spike_sum builds the same sums one spike at a time with +
and *, as the decompose workload does.  member_decompose factors the
generators for every one of seeded combinations of one to three of them,
as a one-shot call does;
coords reads each generator and the spike at 3 at every column of the
generators' coordinate system, as a Span build and a membership solve do.
The matrix operations factor a seeded 30 x 30
matrix with entries in [-9, 9]; grown_extend extends the Hermite form of
its first 28 rows by two seeded rows, as a chain step does, on a fresh
form each pass.
"""

import argparse
import json
import pathlib
import platform
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ordlat.group import Span, member_decompose, span_qx_decompose
from ordlat.intlinalg import GrownForm, hnf_rows
from ordlat.ordinal import OMEGA, compare, from_int
from ordlat.presets import load

PAIRS = 40
POINTS = 12


def combos(pres, rng, n):
    gens = pres.elements
    out = []
    for _ in range(n):
        idx = rng.sample(range(len(gens)), rng.randint(1, 3))
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in idx]
        out.append((coeffs, [gens[i] for i in idx]))
    return out


def per_call(run, calls, repeat):
    """Median over repeat passes of the mean microseconds per call; run()
    prepares a pass and returns the timed callable."""
    costs = []
    for _ in range(repeat):
        timed = run()
        t = time.perf_counter()
        timed()
        costs.append((time.perf_counter() - t) / calls * 1e6)
    return round(statistics.median(costs), 2)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    pres = load("limitq")
    dom = pres.domain
    L = dom.ladders[0]
    rng = random.Random(args.seed)
    left = combos(pres, rng, PAIRS)
    right = combos(pres, rng, PAIRS)
    factors = [rng.choice((-3, -2, 2, 3)) for _ in left]

    def fresh(side):
        return [dom.combine(c, g) for c, g in side]

    def pairs():
        return list(zip(fresh(left), fresh(right)))

    def meet():
        ps = pairs()
        return lambda: [f.meet(g) for f, g in ps]

    def join():
        ps = pairs()
        return lambda: [f.join(g) for f, g in ps]

    def add():
        ps = pairs()
        return lambda: [f + g for f, g in ps]

    def scale():
        fs = fresh(left)
        return lambda: [c * f for c, f in zip(factors, fs)]

    points = [L.point(k) for k in range(POINTS)]

    def value():
        fs = fresh(left)
        return lambda: [f.value(x) for f in fs for x in points]

    ordinals = points + [OMEGA]
    pairs_o = [(a, b) for a in ordinals for b in ordinals]

    def compare_ordinals():
        return lambda: [compare(a, b) for a, b in pairs_o]

    def span_build():
        return lambda: Span(pres.domain, pres.elements)

    spikes = [dom.e(from_int(k)) for k in range(10)]

    def span_decompose():
        span = pres.span
        return lambda: [span.decompose(e) for e in spikes]

    qrng = random.Random(f"quarks:{args.seed}")
    spike_sums = []
    for _ in range(PAIRS):
        ks = qrng.sample(range(POINTS), qrng.randint(1, 6))
        cs = [qrng.choice([c for c in range(-9, 10) if c]) for _ in ks]
        spike_sums.append(list(zip(ks, cs)))

    def quark_decompose():
        fs = [dom.literal([(points[k], c) for k, c in s], ()) for s in spike_sums]
        return lambda: [span_qx_decompose(f) for f in fs]

    def spike_sum():
        terms = [[(c, dom.e(points[k])) for k, c in s] for s in spike_sums]

        def timed():
            for ts in terms:
                f = dom.zero()
                for c, e in ts:
                    f = f + c * e

        return timed

    def coords():
        cs = pres.span.cs
        fs = list(pres.elements) + [dom.e(from_int(3))]
        return lambda: [cs.coords(f) for f in fs]

    def one_shot_member():
        ts = fresh(left)
        return lambda: [member_decompose(pres.elements, t) for t in ts]

    mrng = random.Random(f"matrix:{args.seed}")
    matrix = [[mrng.randint(-9, 9) for _ in range(30)] for _ in range(30)]
    new_rows = [[mrng.randint(-9, 9) for _ in range(30)] for _ in range(2)]

    def grown_extend():
        form = GrownForm(30)
        form.extend(matrix[:28])
        return lambda: form.extend(new_rows)

    ops = {
        "meet": per_call(meet, PAIRS, args.repeat),
        "join": per_call(join, PAIRS, args.repeat),
        "add": per_call(add, PAIRS, args.repeat),
        "scale": per_call(scale, PAIRS, args.repeat),
        "value": per_call(value, PAIRS * POINTS, args.repeat),
        "ordinal_compare": per_call(compare_ordinals, len(pairs_o), args.repeat),
        "span_build": per_call(span_build, 1, args.repeat),
        "span_decompose_spike": per_call(span_decompose, len(spikes), args.repeat),
        "quark_decompose": per_call(quark_decompose, PAIRS, args.repeat),
        "spike_sum": per_call(spike_sum, PAIRS, args.repeat),
        "member_decompose": per_call(one_shot_member, PAIRS, args.repeat),
        "coords": per_call(coords, len(pres.elements) + 1, args.repeat),
        "hnf_rows_30x30": per_call(lambda: lambda: hnf_rows(matrix), 1, args.repeat),
        "grown_extend": per_call(grown_extend, 1, args.repeat),
    }
    print(
        json.dumps(
            {
                "preset": "limitq",
                "unit": "us per call",
                "repeat": args.repeat,
                "seed": args.seed,
                "python": platform.python_version(),
                "ops": ops,
            },
            sort_keys=True,
        )
    )


if __name__ == "__main__":
    main()
