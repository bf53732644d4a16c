"""ordlat benchmark: three closed-loop workloads, one caller each.

    python3 bench/run.py --workload {certify,lattice,decompose} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; ordlat is imported from its `src`.
With --trace 0 the run starts CHILDREN fresh interpreters one after the
other.  Each sets up (import, presets, inputs, warm-up) and measures its
share of the S seconds on its own slice of the seeded inputs.  The run
reports the median set-up time and peak RSS of the children and the
latency percentiles and throughput over all their operations.  With
--trace 1 one fresh interpreter replays a fixed set of operations with
every layer traced and reports the per-layer metrics.

Every line but the last is for people; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  The notes in
bench/NOTES.md say why each workload exists and what each metric should
move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the names of workloads.WORKLOADS, which this process does not import
# because it never imports ordlat
WORKLOADS = ("certify", "lattice", "decompose")
CHILDREN = 3
CHILD_TIMEOUT_S = 50
TRACE_TIMEOUT_S = 150


def child(args, extra, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(ROOT / "bench" / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        *extra,
    ]
    if args.wrong_answers:
        cmd.append("--wrong-answers")
    # a fixed hash seed keeps set iteration, and so every traced count,
    # identical between runs
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args) -> tuple:
    runs = []
    for k in range(CHILDREN):
        runs.append(
            child(
                args,
                [
                    "--seconds", str(args.seconds / CHILDREN),
                    "--part", str(k),
                    "--parts", str(CHILDREN),
                ],
                CHILD_TIMEOUT_S,
            )
        )
    lat = [x for r in runs for x in r["latencies_ms"]]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    done = sum(r["completed"] for r in runs)
    p90 = statistics.quantiles(lat, n=10)[8]
    metrics = {
        "ops_per_s": (done / sum(r["busy_s"] for r in runs), "ops/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_p90": (p90, "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    print(
        f"ops={len(lat)} beyond_p90={sum(x > p90 for x in lat)} "
        f"fail_frac={failed / attempted:.4g} "
        f"cycles={[r['cycles'] for r in runs]} "
        f"repeats={sum(r['repeats'] for r in runs)}"
    )
    return runs, attempted, failed, metrics


def traced(args) -> tuple:
    r = child(args, ["--trace"], TRACE_TIMEOUT_S)
    units = {
        "calls": "count",
        "cells": "count",
        "max_bits": "bits",
        "bytes": "B",
        "hit_ratio": "ratio",
        "overhead_frac": "ratio",
    }
    metrics = {
        name: (value, units.get(name.rsplit(".", 1)[1], "s"))
        for name, value in r["per_layer"].items()
    }
    print(
        f"traced_ops={r['ops']} untraced_s={r['untraced_s']:.4f} "
        f"traced_s={r['traced_s']:.4f}"
    )
    return [r], r["attempted"], r["failed"], metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--wrong-answers",
        action="store_true",
        help="perturb every known answer, to show that failures are counted",
    )
    args = ap.parse_args()
    if not (ROOT / "src" / "ordlat" / "__init__.py").is_file():
        print(f"no ordlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runs, attempted, failed, metrics = (traced if args.trace else end_to_end)(args)
    digests = {r["digest"] for r in runs}
    print(f"workload={args.workload} seed={args.seed} inputs={','.join(digests)}")
    for r in runs:
        for err in r["errors"]:
            print(f"FAIL {err}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
