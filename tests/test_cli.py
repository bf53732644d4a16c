import json
import time

import pytest

from ordlat.cli import main
from ordlat.group import Presentation
from ordlat.serialize import dumps, presentation_to_json


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


def test_verify_staircase_unknown_ladder_is_bad_input(capsys):
    rc, out, err = run(capsys, "verify-staircase", "--preset", "limitq", "--ladder", "bogus")
    assert rc == 2
    assert "no ladder 'bogus'" in err
    assert "FAIL" not in out


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


@pytest.mark.parametrize(
    "corrupt",
    [_null_pool_entry, _float_rank, _string_provenance, _float_coefficient],
    ids=["null-pool-entry", "float-rank", "string-provenance", "float-coefficient"],
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


# --- ideal dictionary --------------------------------------------------------------------


def test_dd_check(capsys):
    rc, out, _ = run(
        capsys, "dd-check", "--preset", "limitq", "--cases", "40", "--witnesses", "20"
    )
    assert rc == 0
    assert "ok" in out


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
