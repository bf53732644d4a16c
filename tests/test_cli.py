import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ordlat.cli import build_parser, main
from ordlat.element import parse_element
from ordlat.group import Presentation
from ordlat.presets import PRESETS, load
from ordlat.ordinal import from_int
from ordlat.serialize import (
    dumps,
    element_from_json,
    element_to_json,
    presentation_to_json,
)


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- demo ---------------------------------------------------------------------


def test_demo_value_matrix(capsys):
    rc, out, _ = run(capsys, "demo-limitq")
    assert rc == 0
    for line in (
        "a_0: 1 1 2 6 24",
        "a_1: 0 1 2 6 24",
        "a_2: 0 0 1 3 12",
        "a_3: 0 0 0 1 4",
    ):
        assert line in out
    assert "a_3 - 4*a_4 = e(3)" in out
    assert "spike at 3 over the family: +1*a_3 -4*a_4" in out
    assert "ok: True" in out


# --- staircase ----------------------------------------------------------------------


def test_verify_staircase_ok(capsys):
    rc, out, _ = run(capsys, "verify-staircase", "--preset", "limitq")
    assert rc == 0
    assert out.count("ok  ") == 5
    assert "divisors: [1, 1, 2, 6, 24" in out


def test_verify_staircase_failure_exits_one(capsys, tmp_path, limitq):
    broken = Presentation(
        name="limitq",
        domain=limitq.domain,
        generators=tuple(
            (n, -g if n == "a_1" else g) for n, g in limitq.generators
        ),
    )
    path = tmp_path / "broken.json"
    path.write_text(dumps(presentation_to_json(broken)))
    rc, out, _ = run(capsys, "verify-staircase", "--input", str(path))
    assert rc == 1
    assert "FAIL" in out


def _limitq_variant(tmp_path, limitq, **fields):
    """limitq's presentation JSON with some top-level fields replaced."""
    doc = presentation_to_json(limitq)
    doc.update(fields)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_staircase_without_ladders_is_bad_input(capsys, tmp_path, limitq):
    spike = element_to_json(limitq.domain.e(from_int(0)))
    path = _limitq_variant(
        tmp_path, limitq, ladders=[], generators=[{"name": "s", "element": spike}]
    )
    rc, out, err = run(capsys, "verify-staircase", "--input", path)
    assert rc == 2
    assert "error: a staircase needs a ladder" in err
    assert "Traceback" not in out + err


def test_verify_staircase_unknown_ladder_is_bad_input(capsys):
    rc, out, err = run(capsys, "verify-staircase", "--preset", "limitq", "--ladder", "bogus")
    assert rc == 2
    assert err == "error: no ladder 'bogus'\n"
    assert "FAIL" not in out


# exit code and stdout digest of `verify-staircase` per preset (the default
# ladder) and per extra ladder argument
VERIFY_STAIRCASE_FROZEN = {
    ("gridrows", None): (1, "88c6243585e44c15"),
    ("limit_power", None): (0, "572fc528e0cc769b"),
    ("limit_power_integer", None): (0, "1e8b151d1d267267"),
    ("limit_power_jump", None): (0, "33e95e71cf4d236e"),
    ("limit_power_two_weights", None): (1, "8bc10f2642121db1"),
    ("limitq", None): (0, "f8918a40d7ddf3b6"),
    ("two_prime", None): (0, "7bd82e93f9323a65"),
    ("two_prime", "inf"): (0, "351b9ed1c321c660"),
    ("twoblock", None): (0, "0d69401630d956b6"),
}


@pytest.mark.parametrize("preset, ladder", sorted(VERIFY_STAIRCASE_FROZEN, key=str))
def test_verify_staircase_output_is_frozen(capsys, preset, ladder):
    extra = ("--ladder", ladder) if ladder else ()
    rc, out, _ = run(capsys, "verify-staircase", "--preset", preset, *extra)
    digest = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert (rc, digest) == VERIFY_STAIRCASE_FROZEN[preset, ladder]


def test_verify_staircase_frozen_table_covers_every_preset():
    assert {p for p, _ in VERIFY_STAIRCASE_FROZEN} == set(PRESETS)


# --- extraction and verification ------------------------------------------------------


def test_extract_then_verify_pipeline(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    rc, _, err = run(
        capsys,
        "extract-basis",
        "--preset",
        "limitq",
        "--depth",
        "6",
        "--output",
        str(cert),
    )
    assert rc == 0
    assert "kind=successor rank=8 pool=14 verified=True" in err
    data = json.loads(cert.read_text())
    assert data["rank"] == 8

    rc, out, _ = run(capsys, "cert-verify", "--preset", "limitq", "--cert", str(cert))
    assert rc == 0
    assert "certificate verified" in out


def test_extract_limit_mode(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    rc, _, err = run(
        capsys,
        "extract-basis",
        "--preset",
        "limit_power",
        "--output",
        str(cert),
    )
    assert rc == 0
    assert "kind=limit" in err


def test_extract_compose_mode(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    rc, _, err = run(
        capsys,
        "extract-basis",
        "--preset",
        "two_prime",
        "--output",
        str(cert),
    )
    assert rc == 0
    assert "kind=composite rank=15" in err


@pytest.mark.parametrize("preset", ["limitq", "limit_power"])
def test_extract_basis_negative_depth_is_bad_input(capsys, preset):
    rc, out, err = run(capsys, "extract-basis", "--preset", preset, "--depth", "-1")
    assert rc == 2
    assert out == ""
    assert "error: chain depth must be >= 0" in err


def test_cert_verify_rejects_wrong_presentation(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    rc, _, _ = run(
        capsys, "extract-basis", "--preset", "limitq", "--output", str(cert)
    )
    assert rc == 0
    rc, _, err = run(
        capsys, "cert-verify", "--preset", "twoblock", "--cert", str(cert)
    )
    assert rc == 2
    assert "error:" in err


def test_cert_verify_catches_tampering(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    run(capsys, "extract-basis", "--preset", "limitq", "--depth", "3", "--output", str(cert))
    data = json.loads(cert.read_text())
    data["rank"] = data["rank"] + 1
    cert.write_text(json.dumps(data))
    rc, out, _ = run(capsys, "cert-verify", "--preset", "limitq", "--cert", str(cert))
    assert rc == 1
    assert "basis" in out  # failure location is printed


def _first_provenance(doc):
    return next(p for p in doc["pool"] if p["provenance"] is not None)


def _null_pool_entry(doc):
    doc["pool"] = [None]


def _float_rank(doc):
    doc["rank"] = float(doc["rank"])


def _string_provenance(doc):
    entry = _first_provenance(doc)
    entry["provenance"] = [str(c) for c in entry["provenance"]]


def _float_coefficient(doc):
    doc["certifiedTargets"][0]["coeffs"][0] = float(
        doc["certifiedTargets"][0]["coeffs"][0]
    )


def _zero_denominator_tail(doc):
    entry = next(p for p in doc["pool"] if p["element"]["tails"])
    entry["element"]["tails"][0]["r"] = "1/0"


def _step_with_quotient(doc):
    return next(s for s in doc["steps"] if s["quotientBasis"])


def _set(find, key, value):
    """A corruption that sets find(doc)[key] to value."""

    def corrupt(doc):
        find(doc)[key] = value

    return corrupt


def _top(doc):
    return doc


def _missing_key(doc):
    del doc["steps"][0]["quotientOver"]


HOSTILE_CERTIFICATES = {
    "null-pool-entry": _null_pool_entry,
    "float-rank": _float_rank,
    "string-provenance": _string_provenance,
    "float-coefficient": _float_coefficient,
    "zero-denominator-tail": _zero_denominator_tail,
    # an object where the format has a list read as an empty list: these
    # two verified, and the next six failed checks (exit 1)
    "targets-object": _set(_top, "certifiedTargets", {}),
    "tails-object": _set(lambda doc: doc["pool"][0]["element"], "tails", {}),
    "pool-object": _set(_top, "pool", {}),
    "final-basis-object": _set(_top, "finalBasis", {}),
    "quotient-basis-object": _set(_step_with_quotient, "quotientBasis", {}),
    "quotient-row-object": _set(
        lambda doc: _step_with_quotient(doc)["quotientBasis"], 0, {}
    ),
    "provenance-object": _set(_first_provenance, "provenance", {}),
    "witnesses-object": _set(lambda doc: doc["steps"][0], "torsionWitnesses", {}),
    # these exited 2 with a message that named a Python exception
    "steps-null": _set(_top, "steps", None),
    "pool-string": _set(_top, "pool", "ab"),
    "missing-key": _missing_key,
}


@pytest.mark.parametrize(
    "corrupt", HOSTILE_CERTIFICATES.values(), ids=list(HOSTILE_CERTIFICATES)
)
def test_cert_verify_hostile_certificate_is_bad_input(capsys, tmp_path, corrupt):
    cert = tmp_path / "cert.json"
    rc, _, _ = run(
        capsys, "extract-basis", "--preset", "limitq", "--depth", "3", "--output", str(cert)
    )
    assert rc == 0
    data = json.loads(cert.read_text())
    corrupt(data)
    cert.write_text(json.dumps(data))
    rc, out, err = run(capsys, "cert-verify", "--preset", "limitq", "--cert", str(cert))
    assert rc == 2
    assert "error:" in err
    assert "Traceback" not in out + err
    # the message says what was wrong, not which exception was raised
    assert not re.search(r"[A-Z]\w*(Error|Exception)\b", out + err)


def test_cert_verify_step_without_extension_is_a_failed_check(capsys, tmp_path):
    # step 2's extension moved into its extras: a step whose extension is
    # empty, whose Hermite form of no rows has width 0, is checked, not
    # refused as bad input
    cert = tmp_path / "cert.json"
    rc, _, _ = run(capsys, "extract-basis", "--preset", "limitq", "--output", str(cert))
    assert rc == 0
    data = json.loads(cert.read_text())
    step = data["steps"][2]
    step["bExtras"] = step["aExtension"] + step["bExtras"]
    step["aExtension"] = []
    cert.write_text(json.dumps(data))
    rc, out, err = run(capsys, "cert-verify", "--preset", "limitq", "--cert", str(cert))
    assert rc == 1, err
    assert "step:step 2: extras without witnesses" in out


@pytest.mark.parametrize("name", [["e_0"], {"e": 0}], ids=["list", "object"])
def test_cert_verify_pool_name_not_a_string_is_bad_input(capsys, tmp_path, name):
    # an unhashable name must not reach the checker's set of pool names
    cert = tmp_path / "cert.json"
    rc, _, _ = run(
        capsys, "extract-basis", "--preset", "limitq", "--depth", "3", "--output", str(cert)
    )
    assert rc == 0
    data = json.loads(cert.read_text())
    data["pool"][0]["name"] = name
    cert.write_text(json.dumps(data))
    rc, out, err = run(capsys, "cert-verify", "--preset", "limitq", "--cert", str(cert))
    assert rc == 2
    assert "error:" in err
    assert "Traceback" not in out + err


def test_cert_verify_large_target_start_is_fast(capsys, tmp_path):
    # a target tail starting far out must not widen the checker's window
    cert = tmp_path / "cert.json"
    rc, _, _ = run(
        capsys, "extract-basis", "--preset", "limitq", "--depth", "3", "--output", str(cert)
    )
    assert rc == 0
    data = json.loads(cert.read_text())
    target = next(t for t in data["certifiedTargets"] if t["name"] == "e_0")
    target["element"]["tails"].append(
        {"ladder": "q", "weight": "factorial", "r": "1", "start": 16000}
    )
    cert.write_text(json.dumps(data))
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "cert-verify", "--preset", "limitq", "--cert", str(cert))
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    assert "target:e_0" in out


def test_cert_verify_malformed_target_like_a_pool_element_is_bad_input(
    capsys, tmp_path
):
    # equal to the pool element e_0 as Python values, but true is no integer
    cert = tmp_path / "cert.json"
    rc, _, _ = run(capsys, "extract-basis", "--preset", "limitq", "--output", str(cert))
    assert rc == 0
    data = json.loads(cert.read_text())
    target = next(t for t in data["certifiedTargets"] if t["name"] == "e_0")
    assert target["element"] == {"prefix": [["0", 1]], "tails": []}
    target["element"]["prefix"][0][1] = True
    cert.write_text(json.dumps(data))
    rc, out, err = run(capsys, "cert-verify", "--preset", "limitq", "--cert", str(cert))
    assert rc == 2
    assert "error:" in err
    assert "Traceback" not in out + err


def test_decode_large_tail_start_is_fast(limitq):
    # integrality is tested modulo the denominator: 7 divides 160 000!
    # without computing it, and 6! mod 7 != 0 rejects a start of 6
    tail = {"ladder": "q", "weight": "factorial", "r": "1/7", "start": 160_000}
    t0 = time.perf_counter()
    f = element_from_json(limitq.domain, {"tails": [tail]})
    assert time.perf_counter() - t0 < 0.1
    assert f.tail_start("q") == 160_000
    with pytest.raises(ValueError, match="not integral"):
        element_from_json(limitq.domain, {"tails": [dict(tail, start=6)]})


def test_far_tail_reads_only_the_indices_asked_for(limitq):
    # neither membership nor a value below the start builds the values at
    # every index below it
    L = limitq.domain.ladder("q")
    t = limitq.domain.tail("q", Fraction(1, 7), 4_000_000, weight="factorial")
    t0 = time.perf_counter()
    assert limitq.span.decompose(t) is None
    assert time.perf_counter() - t0 < 0.05
    t0 = time.perf_counter()
    assert t.value(L.point(5)) == 0
    assert time.perf_counter() - t0 < 0.05


def test_far_tail_ladder_queries_are_cheap(limitq):
    # the ladder-wide queries read the prefix and the settle range, not
    # the values at every index below a far start
    t = limitq.domain.tail("q", Fraction(1, 7), 1_000_000, weight="factorial")
    zero = limitq.domain.zero()
    queries = {
        "mu": lambda: t.mu("q"),
        "is_nonneg": t.is_nonneg,
        "settle_index": lambda: t.settle_index("q"),
        "support": t.support,
        "cb": t.cb,
        "meet": lambda: t.meet(zero),
        "join": lambda: t.join(zero),
        "plus_part": t.plus_part,
    }
    for name, query in queries.items():
        t0 = time.perf_counter()
        query()
        assert time.perf_counter() - t0 < 0.05, name
    assert t.mu("q") == t.settle_index("q") == 1_000_000
    assert t.is_nonneg()
    assert t.support().regimes == (("q", 1_000_000),)
    assert t.meet(zero) == zero
    assert t.join(zero) == t.plus_part() == t


def test_cert_verify_large_pool_start_is_fast(capsys, tmp_path):
    # a pool element whose provenance fails is not combined any further
    cert = tmp_path / "cert.json"
    rc, _, _ = run(
        capsys, "extract-basis", "--preset", "limitq", "--depth", "3", "--output", str(cert)
    )
    assert rc == 0
    data = json.loads(cert.read_text())
    entry = next(p for p in data["pool"] if p["name"] == "e_0")
    entry["element"]["tails"].append(
        {"ladder": "q", "weight": "factorial", "r": "1", "start": 4000}
    )
    cert.write_text(json.dumps(data))
    t0 = time.perf_counter()
    rc, out, _ = run(capsys, "cert-verify", "--preset", "limitq", "--cert", str(cert))
    assert time.perf_counter() - t0 < 1.0
    assert rc == 1
    assert "pool:e_0: provenance does not re-sum to the pool element" in out


# --- decomposition ---------------------------------------------------------------------


def test_decompose_member(capsys):
    rc, out, _ = run(capsys, "decompose", "--preset", "limitq", "e(3)")
    assert rc == 0
    assert "a_3: 1" in out
    assert "a_4: -4" in out
    assert "unique: True" in out


def test_decompose_non_member(capsys):
    rc, out, _ = run(
        capsys,
        "decompose",
        "--preset",
        "limitq",
        "tail(ladder=q, r=1/3628800, start=10)",
    )
    assert rc == 1
    assert "not in the span" in out


def test_decompose_target_point_is_usage_error(capsys):
    rc, _, err = run(capsys, "decompose", "--preset", "limitq", "e(w)")
    assert rc == 2
    assert "ladder target" in err


def test_decompose_parse_error(capsys):
    rc, _, err = run(capsys, "decompose", "--preset", "limitq", "e(3) + garbage")
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "text",
    [
        "tail(ladder=q, r=1/0, start=1)",
        "tail(ladder=q, r=1, start=1, start=2)",
    ],
    ids=["zero-denominator", "repeated-argument"],
)
def test_decompose_bad_tail_literal_is_bad_input(capsys, text):
    rc, out, err = run(capsys, "decompose", "--preset", "limitq", text)
    assert rc == 2
    assert "error:" in err
    assert "Traceback" not in out + err


def test_decompose_input_zero_denominator_is_bad_input(capsys, tmp_path, limitq):
    doc = presentation_to_json(limitq)
    doc["generators"][0]["element"]["tails"][0]["r"] = "1/0"
    path = tmp_path / "pres.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "decompose", "--input", str(path), "e(3)")
    assert rc == 2
    assert "zero denominator" in err
    assert "Traceback" not in out + err


def test_decompose_deeply_nested_ordinal_is_bad_input(capsys):
    # the parser refuses the nesting before it recurses into it
    text = "e(" + "w^(" * 3000 + "1" + ")" * 3000 + ")"
    rc, out, err = run(capsys, "decompose", "--preset", "limitq", text)
    assert rc == 2
    assert "nesting depth exceeds cap" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("flag", ["--cert", "--input"])
def test_deeply_nested_json_file_is_bad_input(capsys, tmp_path, flag):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    source = ["--preset", "limitq"] if flag == "--cert" else ["--input", str(path)]
    rc, out, err = run(capsys, "cert-verify", *source, "--cert", str(path))
    assert rc == 2
    assert "nested too deeply" in err
    assert "Traceback" not in out + err


# --- ideal dictionary --------------------------------------------------------------------


def test_dd_check(capsys):
    rc, out, _ = run(
        capsys, "dd-check", "--preset", "limitq", "--cases", "40", "--witnesses", "20"
    )
    assert rc == 0
    assert "ok" in out


def test_dd_check_without_generators_is_bad_input(capsys, tmp_path, limitq):
    path = _limitq_variant(tmp_path, limitq, generators=[])
    rc, out, err = run(capsys, "dd-check", "--input", path)
    assert rc == 2
    assert "error: no generators to combine" in err
    assert "Traceback" not in out + err


def test_dd_check_far_tail_generator_is_fast(capsys, tmp_path, limitq):
    # meets and sign tests of a generator whose tail starts far out
    g = "-2*e(3) + tail(ladder=q, weight=factorial, r=1, start=1000000)"
    gen = {"name": "a", "element": element_to_json(parse_element(limitq.domain, g))}
    path = _limitq_variant(tmp_path, limitq, generators=[gen])
    t0 = time.perf_counter()
    rc, out, _ = run(
        capsys, "dd-check", "--cases", "5", "--witnesses", "5", "--input", path
    )
    assert time.perf_counter() - t0 < 2.0
    assert rc == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("name", [None, 7, True], ids=["null", "number", "boolean"])
def test_extract_basis_generator_name_not_a_string_is_bad_input(
    capsys, tmp_path, limitq, name
):
    doc = presentation_to_json(limitq)
    doc["generators"][0]["name"] = name
    path = _limitq_variant(tmp_path, limitq, generators=doc["generators"])
    rc, out, err = run(capsys, "extract-basis", "--input", path)
    assert rc == 2
    assert "error:" in err
    assert "Traceback" not in out + err


def test_dd_check_negative_count_is_bad_input(capsys):
    rc, out, err = run(
        capsys, "dd-check", "--preset", "limitq", "--cases", "-3", "--witnesses", "-2"
    )
    assert rc == 2
    assert "error: case count must be >= 0" in err
    assert "Traceback" not in out + err


# --- input handling ----------------------------------------------------------------------


def test_missing_input_file(capsys):
    rc, _, err = run(capsys, "verify-staircase", "--input", "/nonexistent.json")
    assert rc == 2
    assert "error:" in err


def test_malformed_json_input(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    rc, _, err = run(capsys, "verify-staircase", "--input", str(path))
    assert rc == 2


def test_input_roundtrip_matches_preset(capsys, tmp_path, limitq):
    path = tmp_path / "p.json"
    path.write_text(dumps(presentation_to_json(limitq)))
    rc, out, _ = run(capsys, "verify-staircase", "--input", str(path))
    assert rc == 0


# --- frozen extract-basis output ---------------------------------------------------------

# Exit code and the first 16 hex digits of the SHA-256 of stdout and of stderr
# of `extract-basis --preset P --mode M [--depth 2]` for every preset, in the
# order (auto, successor, limit, compose) x (default depth, --depth 2).  The
# table was recorded when membership widened its window by each target and
# ran two Hermite forms per query; one factorization per family must keep
# every byte.  Since the chain grows one Hermite form per chain, 16 runs of
# four presets print other torsion witness coefficients (see
# `test_battery_is_frozen_but_for_witness_coefficients`); their stdout
# digests were recorded again, and nothing else moved.  Since the final
# basis comes from the chain's own grown form, and composite blocks no
# longer restart it, the 46 runs that print a certificate were recorded
# again; every exit code and stderr digest kept its value.
MODES = ("auto", "successor", "limit", "compose")
EXTRACT_BASIS_FROZEN = {
    "gridrows": (
        (2, "e3b0c44298fc1c14", "ddf920c81fde5be7"),
        (2, "e3b0c44298fc1c14", "ddf920c81fde5be7"),
        (2, "e3b0c44298fc1c14", "ddf920c81fde5be7"),
        (2, "e3b0c44298fc1c14", "ddf920c81fde5be7"),
        (2, "e3b0c44298fc1c14", "2cc449a3e3cbd7bc"),
        (2, "e3b0c44298fc1c14", "2cc449a3e3cbd7bc"),
        (2, "e3b0c44298fc1c14", "ddf920c81fde5be7"),
        (2, "e3b0c44298fc1c14", "ddf920c81fde5be7"),
    ),
    "limit_power": (
        (0, "7d1930587a1f76f6", "4c616aba62b94c24"),
        (0, "657eed10cefde406", "7a257e47940d3348"),
        (0, "71801a11c2069634", "93a3a18fe9d21254"),
        (0, "044f56c6f10b3d59", "e686c3d77d5e71b8"),
        (0, "7d1930587a1f76f6", "4c616aba62b94c24"),
        (0, "657eed10cefde406", "7a257e47940d3348"),
        (0, "729536748ea2f192", "efd9fc0ecdeba187"),
        (0, "729536748ea2f192", "efd9fc0ecdeba187"),
    ),
    "limit_power_integer": (
        (0, "49a3fa7933c0fa5f", "9b196585fc18c4e2"),
        (0, "35e4ef2ca13bce02", "7a257e47940d3348"),
        (0, "99e783b7c56e09fd", "fc046647608c025f"),
        (0, "67043866a9073527", "e686c3d77d5e71b8"),
        (0, "49a3fa7933c0fa5f", "9b196585fc18c4e2"),
        (0, "35e4ef2ca13bce02", "7a257e47940d3348"),
        (0, "65875d03a52012c6", "4188785c348ae529"),
        (0, "65875d03a52012c6", "4188785c348ae529"),
    ),
    "limit_power_jump": (
        (0, "9714ecd40a5fbbd1", "fc855e1b9a8d6d2e"),
        (0, "e58b33a611d4caab", "7a257e47940d3348"),
        (0, "18b220eadbf63eac", "3412d44504e4459c"),
        (0, "b590661fb41d1c5c", "67187c50661e8883"),
        (0, "9714ecd40a5fbbd1", "fc855e1b9a8d6d2e"),
        (0, "e58b33a611d4caab", "7a257e47940d3348"),
        (0, "609561d201df4224", "d1e7b1369814eb9e"),
        (0, "609561d201df4224", "d1e7b1369814eb9e"),
    ),
    "limit_power_two_weights": (
        (0, "cbc3e091ee308a96", "941877a1a1da4002"),
        (0, "f4cbacbc8e1f201e", "f70bf534c9c23d49"),
        (2, "e3b0c44298fc1c14", "f7e3a2625d12fe53"),
        (2, "e3b0c44298fc1c14", "f7e3a2625d12fe53"),
        (0, "cbc3e091ee308a96", "941877a1a1da4002"),
        (0, "f4cbacbc8e1f201e", "f70bf534c9c23d49"),
        (2, "e3b0c44298fc1c14", "f7e3a2625d12fe53"),
        (2, "e3b0c44298fc1c14", "f7e3a2625d12fe53"),
    ),
    "limitq": (
        (0, "fee6d633a083a695", "b33ce52618f0480f"),
        (0, "9ee8468dadbff55a", "e686c3d77d5e71b8"),
        (0, "fee6d633a083a695", "b33ce52618f0480f"),
        (0, "9ee8468dadbff55a", "e686c3d77d5e71b8"),
        (2, "e3b0c44298fc1c14", "2cc449a3e3cbd7bc"),
        (2, "e3b0c44298fc1c14", "2cc449a3e3cbd7bc"),
        (0, "a730f286f7506611", "4d9004fe49328499"),
        (0, "a730f286f7506611", "4d9004fe49328499"),
    ),
    "two_prime": (
        (0, "6e25ebdd6cb6a9fe", "032c3cd6697652cd"),
        (0, "6e25ebdd6cb6a9fe", "032c3cd6697652cd"),
        (0, "e421034601866136", "93a3a18fe9d21254"),
        (0, "04c5dab2ecf9015a", "e686c3d77d5e71b8"),
        (2, "e3b0c44298fc1c14", "2cc449a3e3cbd7bc"),
        (2, "e3b0c44298fc1c14", "2cc449a3e3cbd7bc"),
        (0, "6e25ebdd6cb6a9fe", "032c3cd6697652cd"),
        (0, "6e25ebdd6cb6a9fe", "032c3cd6697652cd"),
    ),
    "twoblock": (
        (0, "66d2f6085f66ce4b", "fc046647608c025f"),
        (0, "c042592c90c2bcec", "e686c3d77d5e71b8"),
        (0, "66d2f6085f66ce4b", "fc046647608c025f"),
        (0, "c042592c90c2bcec", "e686c3d77d5e71b8"),
        (2, "e3b0c44298fc1c14", "2cc449a3e3cbd7bc"),
        (2, "e3b0c44298fc1c14", "2cc449a3e3cbd7bc"),
        (0, "1043df11fdf2ba46", "42860110c7d7ba11"),
        (0, "1043df11fdf2ba46", "42860110c7d7ba11"),
    ),
}


@pytest.mark.parametrize("preset", sorted(EXTRACT_BASIS_FROZEN))
def test_extract_basis_output_is_frozen(capsys, preset):
    got = []
    for mode in MODES:
        for depth in ((), ("--depth", "2")):
            rc, out, err = run(
                capsys, "extract-basis", "--preset", preset, "--mode", mode, *depth
            )
            got.append(
                (
                    rc,
                    hashlib.sha256(out.encode()).hexdigest()[:16],
                    hashlib.sha256(err.encode()).hexdigest()[:16],
                )
            )
    assert tuple(got) == EXTRACT_BASIS_FROZEN[preset]


def test_extract_basis_frozen_table_covers_every_preset():
    assert set(EXTRACT_BASIS_FROZEN) == set(PRESETS)
    codes = [rc for runs in EXTRACT_BASIS_FROZEN.values() for rc, _, _ in runs]
    assert (len(codes), codes.count(0), codes.count(2)) == (64, 46, 18)


# --- one parser per process ------------------------------------------------------------


def _in_this_process(capsys, argv):
    try:
        rc = main(argv)
    except SystemExit as ex:  # argparse's usage errors
        rc = ex.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _in_a_fresh_process(argv):
    code = "import sys; from ordlat.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_reuses_one_parser(capsys, tmp_path, monkeypatch):
    # every call answers as it does as the first call of a new interpreter,
    # a usage error included, and the parser is built once
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
    build_parser.cache_clear()

    def calls(d):
        d.mkdir()
        cert = str(d / "cert.json")
        return [
            ["extract-basis", "--depth", "3"],  # no source
            ["extract-basis", "--preset", "limitq", "--output", cert],
            ["cert-verify", "--preset", "limitq", "--cert", cert],
            ["decompose", "--preset", "limitq", "e(3)"],
        ]

    here, fresh = tmp_path / "here", tmp_path / "fresh"
    codes = []
    for argv, fresh_argv in zip(calls(here), calls(fresh)):
        got = _in_this_process(capsys, argv)
        assert got == _in_a_fresh_process(fresh_argv), argv
        codes.append(got[0])
    assert codes == [2, 0, 0, 0]
    assert (here / "cert.json").read_text() == (fresh / "cert.json").read_text()
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_presets_are_loaded_once_per_process(capsys, tmp_path):
    # a preset comes from load's cache after its first use, and every call
    # on it prints what the first call of a new interpreter prints
    load.cache_clear()

    def calls(d, preset, element):
        d.mkdir()
        cert = str(d / "cert.json")
        return [
            ["extract-basis", "--preset", preset, "--output", cert],
            ["cert-verify", "--preset", preset, "--cert", cert],
            ["decompose", "--preset", preset, element],
        ]

    for preset, element in (("limitq", "e(3)"), ("two_prime", "2*e(0) + e(w+2)")):
        here, fresh = tmp_path / f"{preset}-here", tmp_path / f"{preset}-fresh"
        for argv, fresh_argv in zip(
            calls(here, preset, element), calls(fresh, preset, element)
        ):
            got = _in_this_process(capsys, argv)
            assert got == _in_a_fresh_process(fresh_argv), argv
            assert got[0] == 0, argv
        assert (here / "cert.json").read_text() == (fresh / "cert.json").read_text()
    info = load.cache_info()
    assert (info.misses, info.hits) == (2, 4)
