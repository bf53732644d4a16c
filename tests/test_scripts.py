import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHAIN_REPORT_DEFAULT = (
    "limitq",
    "two_prime",
    "limit_power",
    "limit_power_two_weights",
    "limit_power_integer",
    "limit_power_jump",
)


def test_chain_report_default_presets_verify():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "chain_report.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == list(CHAIN_REPORT_DEFAULT)
    for line in lines:
        assert re.search(r"ok=True$", line), line


def test_tracer_installs():
    # the tracer looks every name it wraps up by attribute, so a traced
    # name that leaves ordlat breaks it even with no caller left in src
    code = "import tracer; tracer.Tracer().install(); print('installed')"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=ROOT,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "installed\n"


def test_microbench_prints_one_json_object():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "microbench.py"), "--repeat", "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["preset"] == "limitq" and report["repeat"] == 1
    assert set(report["ops"]) == {
        "meet",
        "join",
        "add",
        "scale",
        "value",
        "ordinal_compare",
        "span_build",
        "span_decompose_spike",
        "quark_decompose",
        "spike_sum",
        "member_decompose",
        "coords",
        "hnf_rows_30x30",
        "grown_extend",
    }
    assert all(cost > 0 for cost in report["ops"].values())


def test_scale_report_measures_a_tiny_chain():
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "scale_report", ROOT / "scripts" / "scale_report.py"
    )
    scale_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale_report)
    assert scale_report.SIZES == (24, 48, 64, 80)
    m = scale_report.measure(6, repeat=1)
    assert set(m) == {
        "build_s",
        "check_s",
        "cert_bytes",
        "cert_sha",
        "witness_bits",
        "basis_bits",
        "ok",
    }
    assert len(m["cert_sha"]) == 16 and int(m["cert_sha"], 16) >= 0
    assert m["ok"] is True
    assert m["build_s"] > 0 and m["check_s"] > 0
    assert m["cert_bytes"] > 0 and m["witness_bits"] >= 1
    assert 1 <= m["basis_bits"] <= 16
