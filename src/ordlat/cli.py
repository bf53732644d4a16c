"""Command line front end.

Subcommands:
  demo-limitq       print the worked staircase family and its value matrix
  verify-staircase  check the staircase axioms for a presentation
  extract-basis     build a freeness certificate and emit it as JSON
  cert-verify       re-check a certificate JSON against its presentation
  decompose         express an element over a presentation's generators
  dd-check          run the ideal-dictionary probe batteries

Exit codes: 0 success, 1 a check failed, 2 bad input or usage.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from ordlat.ddmodel import (
    phi_homomorphism_check,
    spec_map_check,
    witness_battery,
)
from ordlat.element import parse_element
from ordlat.freeness import ChainError, certify, smooth_chain_check, verify_staircase
from ordlat.group import Presentation
from ordlat.presets import PRESETS, load
from ordlat.serialize import (
    certificate_from_json,
    certificate_to_json,
    dumps,
    presentation_from_json,
)


def _add_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--preset", choices=sorted(PRESETS), help="built-in presentation"
    )
    group.add_argument(
        "--input", metavar="FILE", help="presentation JSON file"
    )


def _read_json(path: str):
    """Parse a JSON file; nesting too deep for the parser is bad input."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_presentation(args: argparse.Namespace) -> Presentation:
    if args.preset:
        return load(args.preset)
    return presentation_from_json(_read_json(args.input))


def _cmd_demo(args: argparse.Namespace) -> int:
    pres = load("limitq")
    dom = pres.domain
    L = dom.ladder("q")
    print("family on [0, w]: a_n has residue 1/n! from ladder index n")
    print()
    print("values at the first five points:")
    for n in range(4):
        g = pres.generator(f"a_{n}")
        row = " ".join(str(g.value(L.point(k))) for k in range(5))
        print(f"a_{n}: {row}")
    print()
    e3 = pres.generator("a_3") - 4 * pres.generator("a_4")
    print("a_3 - 4*a_4 =", e3)
    dec = pres.span.decompose(dom.e(L.point(3)))
    coeffs = " ".join(
        f"{c:+d}*{n}" for c, n in zip(dec.coeffs, pres.names) if c
    )
    print("spike at 3 over the family:", coeffs)
    m = pres.generator("a_0").meet(pres.generator("a_1"))
    print("a_0 ^ a_1 =", m, "(equals a_1:", m == pres.generator("a_1"), ")")
    rep = verify_staircase(pres)
    print("staircase divisors d_n:", list(rep.d[:5]), "ok:", rep.ok)
    return 0


def _cmd_verify_staircase(args: argparse.Namespace) -> int:
    pres = _load_presentation(args)
    rep = verify_staircase(pres, args.ladder)
    print(f"ladder {rep.ladder_id}: family {list(rep.names)}")
    for ax in rep.axioms:
        mark = "ok  " if ax.ok else "FAIL"
        print(f"{mark} {ax.name}: {ax.detail}")
    print("divisors:", list(rep.d))
    return 0 if rep.ok else 1


def _cmd_extract_basis(args: argparse.Namespace) -> int:
    pres = _load_presentation(args)
    cert = certify(pres, args.mode, args.depth)
    report = smooth_chain_check(pres, cert)
    blob = dumps(certificate_to_json(cert))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(blob + "\n")
    else:
        print(blob)
    print(
        f"kind={cert.kind} rank={cert.rank} pool={len(cert.pool)} "
        f"verified={report.ok}",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def _cmd_cert_verify(args: argparse.Namespace) -> int:
    pres = _load_presentation(args)
    cert = certificate_from_json(pres.domain, _read_json(args.cert))
    if cert.presentation != pres.name:
        print(
            f"certificate names presentation {cert.presentation!r}, "
            f"got {pres.name!r}",
            file=sys.stderr,
        )
        return 2
    report = smooth_chain_check(pres, cert)
    print(report.explain())
    return 0 if report.ok else 1


def _cmd_decompose(args: argparse.Namespace) -> int:
    pres = _load_presentation(args)
    target = parse_element(pres.domain, args.element)
    dec = pres.span.decompose(target)
    if dec is None:
        print("not in the span of the generators")
        return 1
    for name, c in zip(pres.names, dec.coeffs):
        if c:
            print(f"{name}: {c}")
    if not any(dec.coeffs):
        print("0")
    print("unique:", dec.unique)
    return 0


def _cmd_dd_check(args: argparse.Namespace) -> int:
    pres = _load_presentation(args)
    phi = phi_homomorphism_check(pres, cases=args.cases, seed=args.seed)
    wit = witness_battery(pres, cases=args.witnesses, seed=args.seed)
    probes = spec_map_check(pres, cases=max(10, args.cases // 4), seed=args.seed)
    ok = phi.ok and wit.ok and all(probes.values())
    print(f"{phi.name}: {phi.checked} cases, ok={phi.ok}")
    for msg in phi.failures:
        print(f"  {msg}")
    print(f"{wit.name}: {wit.checked} cases, ok={wit.ok}")
    for msg in wit.failures:
        print(f"  {msg}")
    for name, good in sorted(probes.items()):
        print(f"{name}: {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing leaves
    it as it was, so every `main` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="ordlat",
        description="lattice groups of finitely supported functions "
        "on scattered spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo-limitq", help="worked staircase example")
    demo.set_defaults(func=_cmd_demo)

    vs = sub.add_parser("verify-staircase", help="check staircase axioms")
    _add_source(vs)
    vs.add_argument("--ladder", default=None, help="ladder id (default: first)")
    vs.set_defaults(func=_cmd_verify_staircase)

    eb = sub.add_parser("extract-basis", help="build a freeness certificate")
    _add_source(eb)
    eb.add_argument(
        "--mode",
        choices=["auto", "successor", "limit", "compose"],
        default="auto",
    )
    eb.add_argument("--depth", type=int, default=None, help="chain depth")
    eb.add_argument("--output", default=None, help="write JSON here")
    eb.set_defaults(func=_cmd_extract_basis)

    cv = sub.add_parser("cert-verify", help="re-check a certificate")
    _add_source(cv)
    cv.add_argument("--cert", required=True, help="certificate JSON file")
    cv.set_defaults(func=_cmd_cert_verify)

    dc = sub.add_parser("decompose", help="express an element over generators")
    _add_source(dc)
    dc.add_argument("element", help="element text, e.g. '2*e(3) - e(w^2)'")
    dc.set_defaults(func=_cmd_decompose)

    dd = sub.add_parser("dd-check", help="ideal dictionary probes")
    _add_source(dd)
    dd.add_argument("--cases", type=int, default=200)
    dd.add_argument("--witnesses", type=int, default=100)
    dd.add_argument("--seed", type=int, default=0)
    dd.set_defaults(func=_cmd_dd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChainError, ValueError, KeyError, OSError) as ex:
        # str() of a KeyError is the repr of its message, quotes and all
        msg = ex.args[0] if isinstance(ex, KeyError) and ex.args else ex
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
