"""Certificates the checker must judge the same way from one version to the
next: the acceptance mutation battery and every single-integer tamper of
each preset's auto certificate.

`checker_reports(group)` maps each case of a group to (ok, the first 16
hex digits of the SHA-256 of the report's `explain()`), the form that
`checker_reports.json` freezes and `test_freeness.py` compares.
"""

import hashlib
from dataclasses import replace
from typing import Dict, Iterator, Tuple

from ordlat import presets
from ordlat.freeness import (
    FreenessCertificate,
    build_chain_successor,
    certify,
    smooth_chain_check,
)

from .test_acceptance import _mutations


def _bump(vec: Tuple[int, ...], k: int) -> Tuple[int, ...]:
    return vec[:k] + (vec[k] + 1,) + vec[k + 1 :]


def _put(items: tuple, i: int, item) -> tuple:
    return items[:i] + (item,) + items[i + 1 :]


def tamper_sites(
    cert: FreenessCertificate,
) -> Iterator[Tuple[str, FreenessCertificate]]:
    """Each copy of cert with one integer raised by 1: a provenance, a
    torsion witness, a quotient or final-basis combination, or a target
    coefficient, or the declared rank; labelled kind:index:...:position."""
    pool, steps = cert.pool, cert.steps
    for i, p in enumerate(pool):
        for k in range(len(p.provenance or ())):
            new = replace(p, provenance=_bump(p.provenance, k))
            yield f"provenance:{i}:{k}", replace(cert, pool=_put(pool, i, new))
    for i, s in enumerate(steps):
        for j, w in enumerate(s.torsion_witnesses):
            for k in range(len(w.coeffs)):
                ws = _put(s.torsion_witnesses, j, replace(w, coeffs=_bump(w.coeffs, k)))
                new = replace(s, torsion_witnesses=ws)
                yield f"witness:{i}:{j}:{k}", replace(cert, steps=_put(steps, i, new))
        for j, combo in enumerate(s.quotient_basis):
            for k in range(len(combo)):
                qs = _put(s.quotient_basis, j, _bump(combo, k))
                new = replace(s, quotient_basis=qs)
                yield f"quotient:{i}:{j}:{k}", replace(cert, steps=_put(steps, i, new))
    for i, combo in enumerate(cert.final_basis):
        for k in range(len(combo)):
            basis = _put(cert.final_basis, i, _bump(combo, k))
            yield f"basis:{i}:{k}", replace(cert, final_basis=basis)
    for i, t in enumerate(cert.targets):
        for k in range(len(t.coeffs)):
            new = replace(t, coeffs=_bump(t.coeffs, k))
            yield f"target:{i}:{k}", replace(cert, targets=_put(cert.targets, i, new))
    yield "rank", replace(cert, rank=cert.rank + 1)


# the groups of frozen cases: the mutation battery, then one per preset
# with an auto certificate
GROUPS = ("mutation",) + tuple(n for n in sorted(presets.PRESETS) if n != "gridrows")


def checker_cases(
    group: str,
) -> Iterator[Tuple[str, object, FreenessCertificate]]:
    """(case name, presentation, certificate) for each case of a group."""
    if group == "mutation":
        pres = presets.limitq()
        for name, mutated, _ in _mutations(pres, build_chain_successor(pres, 6)):
            yield f"mutation:{name}", pres, mutated
        return
    pres = presets.load(group)
    for site, tampered in tamper_sites(certify(pres)):
        yield f"{group}:{site}", pres, tampered


def checker_reports(group: str) -> Dict[str, Tuple[bool, str]]:
    out = {}
    for name, pres, cert in checker_cases(group):
        rep = smooth_chain_check(pres, cert)
        digest = hashlib.sha256(rep.explain().encode()).hexdigest()[:16]
        out[name] = (rep.ok, digest)
    return out
