"""JSON formats for presentations and freeness certificates.

Two tagged formats: ordlat/presentation/1 and ordlat/certificate/1.
Ordinals travel as their text syntax, rationals as Fraction strings
("3", "1/2"), and dumps() is canonical (sorted keys, no whitespace) so
equal objects serialize to identical bytes.

The decoders reject a document of the wrong shape with ValueError, and
accept only JSON integers (not floats or booleans) in integer fields,
only strings in ordinal, weight, rational and string fields, only JSON
lists in list fields and only JSON objects where the format has one.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Dict, Tuple

from ordlat.element import Domain, Element, Ladder, parse_weight
from ordlat.freeness import (
    ChainStep,
    FreenessCertificate,
    PoolEntry,
    TargetEntry,
    TorsionWitness,
)
from ordlat.group import Presentation
from ordlat.ordinal import format_ordinal, parse_ordinal
from ordlat.space import ScatteredSpace

PRESENTATION_FORMAT = "ordlat/presentation/1"
CERTIFICATE_FORMAT = "ordlat/certificate/1"


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _typed(t: type, v: Any) -> Any:
    """v itself when its JSON type is exactly t: json gives bool and float
    for true and 1.5, Fraction would read 0.5 and true as numbers, and a
    string in place of a list would read as its characters."""
    if type(v) is not t:
        raise ValueError(f"expected {t.__name__}, got {v!r:.40}")
    return v


def _ints(row: Any) -> Tuple[int, ...]:
    return tuple(_typed(int, c) for c in _typed(list, row))


def _each(t: type, v: Any) -> list:
    """The items of the JSON list v, each of JSON type t."""
    return [_typed(t, x) for x in _typed(list, v)]


def _strs(v: Any) -> Tuple[str, ...]:
    return tuple(_each(str, v))


def _decoder(fn):
    """Report a document of the wrong shape (a missing key, or a value
    that the type checks let through and the reader cannot take) as
    ValueError, like every other bad input."""

    @functools.wraps(fn)
    def decode(*args):
        try:
            return fn(*args)
        except KeyError as ex:
            raise ValueError(f"malformed document: missing key {ex}") from ex
        except (AttributeError, TypeError) as ex:
            raise ValueError(f"malformed document: {ex}") from ex

    return decode


def element_to_json(el: Element) -> Dict[str, Any]:
    return {
        "prefix": [[format_ordinal(x), v] for x, v in el.prefix],
        "tails": [
            {
                "ladder": t.ladder_id,
                "weight": t.weight.label(),
                "r": str(t.coeff),
                "start": t.start,
            }
            for t in el.tails
        ],
    }


@_decoder
def element_from_json(domain: Domain, data: Dict[str, Any]) -> Element:
    data = _typed(dict, data)
    return domain.literal(
        [
            (parse_ordinal(_typed(str, x)), _typed(int, v))
            for x, v in _each(list, data.get("prefix", []))
        ],
        [
            (1, t["ladder"], _typed(str, t["r"]), _typed(int, t["start"]), t["weight"])
            for t in _each(dict, data.get("tails", []))
        ],
    )


def _ladder_to_json(L: Ladder) -> Dict[str, Any]:
    out = {
        "id": L.id,
        "kind": L.kind,
        "target": format_ordinal(L.target),
        "weights": [w.label() for w in L.weights],
    }
    if L.kind == "arith":
        out["first"] = format_ordinal(L.first)
        out["step"] = format_ordinal(L.step)
    else:
        out["offset"] = L.offset
    return out


def _ladder_from_json(data: Dict[str, Any]) -> Ladder:
    kw: Dict[str, Any] = {
        "id": _typed(str, data["id"]),
        "kind": _typed(str, data["kind"]),
        "target": parse_ordinal(_typed(str, data["target"])),
        "weights": tuple(parse_weight(w) for w in _strs(data["weights"])),
    }
    if data["kind"] == "arith":
        kw["first"] = parse_ordinal(_typed(str, data["first"]))
        kw["step"] = parse_ordinal(_typed(str, data["step"]))
    else:
        kw["offset"] = _typed(int, data["offset"])
    return Ladder(**kw)


def presentation_to_json(pres: Presentation) -> Dict[str, Any]:
    return {
        "format": PRESENTATION_FORMAT,
        "name": pres.name,
        "space": {"top": format_ordinal(pres.domain.space.top)},
        "ladders": [_ladder_to_json(L) for L in pres.domain.ladders],
        "generators": [
            {"name": name, "element": element_to_json(g)}
            for name, g in pres.generators
        ],
    }


@_decoder
def presentation_from_json(data: Dict[str, Any]) -> Presentation:
    if _typed(dict, data).get("format") != PRESENTATION_FORMAT:
        raise ValueError(f"not a {PRESENTATION_FORMAT} document")
    top = _typed(dict, data["space"])["top"]
    space = ScatteredSpace(parse_ordinal(_typed(str, top)))
    domain = Domain(
        space, tuple(_ladder_from_json(L) for L in _each(dict, data["ladders"]))
    )
    gens = tuple(
        (_typed(str, g["name"]), element_from_json(domain, g["element"]))
        for g in _each(dict, data["generators"])
    )
    return Presentation(_typed(str, data["name"]), domain, gens)


def certificate_to_json(cert: FreenessCertificate) -> Dict[str, Any]:
    return {
        "format": CERTIFICATE_FORMAT,
        "presentation": cert.presentation,
        "kind": cert.kind,
        "pool": [
            {
                "name": p.name,
                "element": element_to_json(p.element),
                "provenance": list(p.provenance)
                if p.provenance is not None
                else None,
            }
            for p in cert.pool
        ],
        "steps": [
            {
                "label": s.label,
                "aExtension": list(s.a_extension),
                "bExtras": list(s.b_extras),
                "torsionBound": s.torsion_bound,
                "torsionWitnesses": [
                    {
                        "extra": w.extra,
                        "bound": w.bound,
                        "over": w.over,
                        "coeffs": list(w.coeffs),
                    }
                    for w in s.torsion_witnesses
                ],
                "quotientOver": s.quotient_over,
                "quotientBasis": [list(row) for row in s.quotient_basis],
            }
            for s in cert.steps
        ],
        "finalBasis": [list(row) for row in cert.final_basis],
        "certifiedTargets": [
            {
                "name": t.name,
                "element": element_to_json(t.element),
                "coeffs": list(t.coeffs),
            }
            for t in cert.targets
        ],
        "rank": cert.rank,
    }


@_decoder
def certificate_from_json(
    domain: Domain, data: Dict[str, Any]
) -> FreenessCertificate:
    if _typed(dict, data).get("format") != CERTIFICATE_FORMAT:
        raise ValueError(f"not a {CERTIFICATE_FORMAT} document")
    pool = tuple(
        PoolEntry(
            name=_typed(str, p["name"]),
            element=element_from_json(domain, p["element"]),
            provenance=_ints(p["provenance"])
            if p.get("provenance") is not None
            else None,
        )
        for p in _each(dict, data["pool"])
    )
    steps = tuple(
        ChainStep(
            label=_typed(str, s["label"]),
            a_extension=_strs(s["aExtension"]),
            b_extras=_strs(s["bExtras"]),
            torsion_bound=_typed(int, s["torsionBound"]),
            torsion_witnesses=tuple(
                TorsionWitness(
                    extra=_typed(str, w["extra"]),
                    bound=_typed(int, w["bound"]),
                    over=_typed(int, w["over"]),
                    coeffs=_ints(w["coeffs"]),
                )
                for w in _each(dict, s["torsionWitnesses"])
            ),
            quotient_over=_typed(int, s["quotientOver"]),
            quotient_basis=tuple(_ints(r) for r in _typed(list, s["quotientBasis"])),
        )
        for s in _each(dict, data["steps"])
    )
    # a target written as a pool element is that element, decoded once
    decoded = {dumps(p["element"]): e.element for p, e in zip(data["pool"], pool)}
    targets = tuple(
        TargetEntry(
            name=_typed(str, t["name"]),
            element=decoded.get(dumps(t["element"]))
            or element_from_json(domain, t["element"]),
            coeffs=_ints(t["coeffs"]),
        )
        for t in _each(dict, data["certifiedTargets"])
    )
    return FreenessCertificate(
        presentation=_typed(str, data["presentation"]),
        kind=_typed(str, data["kind"]),
        pool=pool,
        steps=steps,
        final_basis=tuple(_ints(r) for r in _typed(list, data["finalBasis"])),
        targets=targets,
        rank=_typed(int, data["rank"]),
    )
