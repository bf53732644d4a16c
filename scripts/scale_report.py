#!/usr/bin/env python3
"""Build and check times of limitq(n) certificates as n grows, printed as
one JSON object.

Usage: scale_report.py

For each n in SIZES, certify(limitq(n), depth=n-2) builds a certificate
and smooth_chain_check checks it.  Each time is the median of REPEAT
runs, each on a freshly built preset; the exponent between successive
sizes n1 < n2 is log(t2 / t1) / log(n2 / n1).  Each size also reports
its certificate's JSON size in bytes, the first 16 hex digits of the
SHA-256 of that JSON (cert_sha, which a change that keeps certificates
byte for byte keeps), and the bit lengths of its largest torsion witness
coefficient and of its largest final-basis coefficient, which would show
coefficient growth from an unreduced transform.  ok is whether every
check passed.
"""

import hashlib
import json
import math
import pathlib
import platform
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ordlat.freeness import certify, smooth_chain_check
from ordlat.presets import limitq
from ordlat.serialize import certificate_to_json, dumps

SIZES = (24, 48, 64, 80)
REPEAT = 5


def measure(n, repeat=REPEAT):
    """Median build and check seconds of limitq(n) at depth n - 2, the
    certificate's bytes and digest, its largest witness and final-basis
    coefficients in bits, and whether every check passed."""
    builds, checks, ok = [], [], True
    for _ in range(repeat):
        pres = limitq(n)
        t = time.perf_counter()
        cert = certify(pres, depth=n - 2)
        builds.append(time.perf_counter() - t)
        t = time.perf_counter()
        ok = smooth_chain_check(pres, cert).ok and ok
        checks.append(time.perf_counter() - t)
    coeffs = [c for s in cert.steps for w in s.torsion_witnesses for c in w.coeffs]
    basis = [c for combo in cert.final_basis for c in combo]
    text = dumps(certificate_to_json(cert))
    return {
        "build_s": round(statistics.median(builds), 4),
        "check_s": round(statistics.median(checks), 4),
        "cert_bytes": len(text),
        "cert_sha": hashlib.sha256(text.encode()).hexdigest()[:16],
        "witness_bits": max((abs(c).bit_length() for c in coeffs), default=0),
        "basis_bits": max((abs(c).bit_length() for c in basis), default=0),
        "ok": ok,
    }


def main():
    sizes = {n: measure(n) for n in SIZES}
    growth = {}
    for n1, n2 in zip(SIZES, SIZES[1:]):
        growth[f"{n1}-{n2}"] = {
            key: round(
                math.log(sizes[n2][key] / sizes[n1][key]) / math.log(n2 / n1), 2
            )
            for key in ("build_s", "check_s")
        }
    print(
        json.dumps(
            {
                "preset": "limitq",
                "repeat": REPEAT,
                "python": platform.python_version(),
                "sizes": {str(n): m for n, m in sizes.items()},
                "growth": growth,
            },
            sort_keys=True,
        )
    )


if __name__ == "__main__":
    main()
