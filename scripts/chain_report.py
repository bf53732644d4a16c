#!/usr/bin/env python3
"""Build freeness certificates for the presets and summarize them.

Usage: chain_report.py [preset ...]   (default: a representative sample)
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from ordlat.freeness import certify, smooth_chain_check
from ordlat.presets import load

DEFAULT = [
    "limitq",
    "two_prime",
    "limit_power",
    "limit_power_two_weights",
    "limit_power_integer",
    "limit_power_jump",
]

for name in sys.argv[1:] or DEFAULT:
    t0 = time.time()
    pres = load(name)
    cert = certify(pres)
    built = time.time() - t0
    t0 = time.time()
    report = smooth_chain_check(pres, cert)
    checked = time.time() - t0
    print(
        f"{name:28s} kind={cert.kind:9s} rank={cert.rank:3d} "
        f"pool={len(cert.pool):3d} steps={len(cert.steps):3d} "
        f"build={built:.2f}s check={checked:.2f}s ok={report.ok}"
    )
    if not report.ok:
        print(report.explain())
        raise SystemExit(1)
