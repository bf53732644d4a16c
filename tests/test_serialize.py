import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ordlat import presets
from ordlat.element import Domain
from ordlat.freeness import (
    build_chain_successor,
    certify,
    multi_prime_compose,
    smooth_chain_check,
)
from ordlat.serialize import (
    CERTIFICATE_FORMAT,
    PRESENTATION_FORMAT,
    certificate_from_json,
    certificate_to_json,
    dumps,
    element_from_json,
    element_to_json,
    presentation_from_json,
    presentation_to_json,
)

from .conftest import combos


# --- canonical text --------------------------------------------------------------


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


# --- elements --------------------------------------------------------------------


@given(st.data())
def test_element_roundtrip(any_pres, data):
    f = data.draw(combos(any_pres))
    blob = element_to_json(f)
    json.dumps(blob)  # must be plain JSON types
    assert element_from_json(any_pres.domain, blob) == f


# --- presentations -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(presets.PRESETS))
def test_presentation_roundtrip_byte_identical(name):
    p = presets.load(name)
    blob = presentation_to_json(p)
    assert blob["format"] == PRESENTATION_FORMAT
    q = presentation_from_json(json.loads(dumps(blob)))
    assert q == p
    assert dumps(presentation_to_json(q)) == dumps(blob)


def test_presentation_format_tag_checked(limitq):
    blob = presentation_to_json(limitq)
    blob["format"] = "ordlat/presentation/99"
    with pytest.raises(ValueError):
        presentation_from_json(blob)


# --- certificates ------------------------------------------------------------------


def test_certificate_roundtrip(limitq):
    cert = build_chain_successor(limitq, 4)
    blob = certificate_to_json(cert)
    assert blob["format"] == CERTIFICATE_FORMAT
    back = certificate_from_json(limitq.domain, json.loads(dumps(blob)))
    assert back == cert
    assert dumps(certificate_to_json(back)) == dumps(blob)
    assert smooth_chain_check(limitq, back).ok


def test_composite_certificate_roundtrip(two_prime):
    cert = multi_prime_compose(two_prime)
    blob = certificate_to_json(cert)
    back = certificate_from_json(two_prime.domain, json.loads(dumps(blob)))
    assert back == cert
    assert smooth_chain_check(two_prime, back).ok


def test_certificate_format_tag_checked(limitq):
    cert = build_chain_successor(limitq, 2)
    blob = certificate_to_json(cert)
    blob["format"] = "something/else"
    with pytest.raises(ValueError):
        certificate_from_json(limitq.domain, blob)


def test_certificate_keys_are_camel_case(limitq):
    cert = build_chain_successor(limitq, 2)
    blob = certificate_to_json(cert)
    step = blob["steps"][0]
    assert {"label", "aExtension", "bExtras", "torsionBound"} <= set(step)
    assert "finalBasis" in blob and "certifiedTargets" in blob


def test_targets_written_as_pool_elements_are_decoded_once(limitq, monkeypatch):
    cert = certify(limitq)
    blob = json.loads(dumps(certificate_to_json(cert)))
    pool_json = [dumps(p["element"]) for p in blob["pool"]]
    # every target of the auto certificate is written as a pool element
    assert all(dumps(t["element"]) in pool_json for t in blob["certifiedTargets"])
    calls = []
    literal = Domain.literal
    monkeypatch.setattr(
        Domain, "literal", lambda self, *a, **k: calls.append(1) or literal(self, *a, **k)
    )
    back = certificate_from_json(limitq.domain, blob)
    assert len(calls) == len(blob["pool"])
    assert back == cert


def test_target_unlike_the_pool_is_decoded_and_checked(limitq):
    blob = certificate_to_json(build_chain_successor(limitq, 2))
    target = blob["certifiedTargets"][0]
    target["element"] = {"prefix": [["0", 2]], "tails": []}
    back = certificate_from_json(limitq.domain, blob)
    assert back.targets[0].element == 2 * back.pool[0].element
    report = smooth_chain_check(limitq, back)
    assert [f.location for f in report.failures] == [f"target:{target['name']}"]
    # equal to a pool element as Python values, but true is not an integer
    target["element"] = {"prefix": [["0", True]], "tails": []}
    with pytest.raises(ValueError):
        certificate_from_json(limitq.domain, blob)


# --- hostile documents ---------------------------------------------------------------


@pytest.mark.parametrize("value", [True, 1.0, "1", None])
def test_certificate_integer_fields_are_strict(limitq, value):
    blob = certificate_to_json(build_chain_successor(limitq, 2))
    blob["rank"] = value
    with pytest.raises(ValueError):
        certificate_from_json(limitq.domain, blob)


def _replace(doc, path, value):
    """Set the field at path (keys and list indices) in a document."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


NOT_STRINGS = [None, 3, True, ["e_1"], {"e": 1}]
# a string where a list of names belongs would read as its characters
NOT_LISTS = [None, 3, "abc", {"e": 1}]
CERTIFICATE_STRINGS = [
    ("presentation",),
    ("kind",),
    ("pool", 0, "name"),
    ("steps", 1, "label"),
    ("steps", 1, "aExtension", 0),
    ("steps", 1, "bExtras", 0),
    ("steps", 1, "torsionWitnesses", 0, "extra"),
    ("certifiedTargets", 0, "name"),
]
CERTIFICATE_LISTS = [("steps", 1, "aExtension"), ("steps", 1, "bExtras")]


@pytest.mark.parametrize(
    "path, value",
    [(p, v) for p in CERTIFICATE_STRINGS for v in NOT_STRINGS]
    + [(p, v) for p in CERTIFICATE_LISTS for v in NOT_LISTS],
)
def test_certificate_string_fields_are_strict(limitq, path, value):
    blob = certificate_to_json(build_chain_successor(limitq, 2))
    _replace(blob, path, value)
    with pytest.raises(ValueError):
        certificate_from_json(limitq.domain, blob)


@pytest.mark.parametrize("value", NOT_STRINGS)
@pytest.mark.parametrize("path", [("name",), ("generators", 0, "name")])
def test_presentation_string_fields_are_strict(limitq, path, value):
    blob = presentation_to_json(limitq)
    _replace(blob, path, value)
    with pytest.raises(ValueError):
        presentation_from_json(blob)


@pytest.mark.parametrize(
    "data",
    [
        None,
        [],
        {"prefix": [["3", 1.0]]},
        {"prefix": [["3"]]},
        {"tails": [{}]},
        # a tail's "r" is a Fraction string, not a JSON number or boolean
        {"tails": [{"ladder": "q", "weight": "factorial", "r": 0.5, "start": 3}]},
        {"tails": [{"ladder": "q", "weight": "factorial", "r": 1, "start": 3}]},
        {"tails": [{"ladder": "q", "weight": "factorial", "r": True, "start": 3}]},
        {"tails": [{"ladder": "q", "weight": "factorial", "r": None, "start": 3}]},
        {"tails": [{"ladder": "q", "weight": "factorial", "r": "1/0", "start": 3}]},
        # every listed point is checked, whatever its value
        {"prefix": [["w", 0]]},
    ],
)
def test_malformed_element_is_value_error(limitq, data):
    with pytest.raises(ValueError):
        element_from_json(limitq.domain, data)
