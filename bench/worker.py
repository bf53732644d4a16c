"""One measurement of one workload, in a fresh interpreter.

Started by run.py; prints one JSON object as its last line of output.

Set-up (timed as setup_s) covers importing ordlat, building the presets,
generating the inputs and one untimed warm-up cycle.  Then either

* the timed window: whole cycles, a closed loop with one caller, until
  --seconds have passed; each operation is timed alone and its output is
  checked after its clock stops; or
* the traced run (--trace): the first `trace_cycles` cycles once without
  tracing, then again with every layer wrapped, so the per-layer counts
  repeat exactly for a seed and the two times give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
clock = time.perf_counter


def attempt(wl, inp):
    """Run one operation; return (seconds, error message or None)."""
    t = clock()
    try:
        dt, out = wl.op(inp)
    except Exception as ex:  # a raising operation is a failed one
        return clock() - t, f"op raised {type(ex).__name__}: {ex}"
    try:
        return dt, wl.check(inp, out)
    except Exception as ex:
        return dt, f"check raised {type(ex).__name__}: {ex}"


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.errors = []

    def add(self, err) -> None:
        self.attempted += 1
        if err is not None:
            self.errors.append(err)


def timed_window(wl, seconds: float, first_cycle: int, tally: Tally) -> dict:
    """Whole cycles until `seconds` have passed.  Throughput counts only the
    time spent inside operations, so the checks between them do not lower
    it."""
    latencies = []
    busy = 0.0
    completed = 0
    n = 0
    deadline = clock() + seconds
    while n == 0 or clock() < deadline:
        for inp in wl.cycles[(first_cycle + n) % len(wl.cycles)]:
            dt, err = attempt(wl, inp)
            tally.add(err)
            latencies.append(dt * 1000.0)
            busy += dt
            completed += err is None
        n += 1
    return {
        "latencies_ms": latencies,
        "busy_s": busy,
        "completed": completed,
        "cycles": n,
        # cycles whose inputs this process had already run
        "repeats": max(0, n - len(wl.cycles)),
    }


def traced_run(wl, workloads, seed: int, tally: Tally) -> dict:
    from tracer import Tracer

    ops = [inp for cyc in wl.cycles[: wl.trace_cycles] for inp in cyc]
    untraced = 0.0
    for inp in ops:
        dt, err = attempt(wl, inp)
        tally.add(err)
        untraced += dt
    tracer = Tracer()
    tracer.install([workloads])
    # the untraced pass checked these outputs; checking again here would
    # count the checker's calls as the program's
    traced = 0.0
    for k, inp in enumerate(ops):
        tracer.begin_op(k, f"op:{inp[0]}")
        try:
            traced += wl.op(inp)[0]
        except Exception:  # the untraced pass has counted it as failed
            pass
        tracer.end_op()
    metrics = tracer.metrics()
    metrics["tracing.overhead_frac"] = traced / untraced - 1.0
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{wl.name}-seed{seed}.json"
    with open(spans, "w") as fh:
        json.dump(tracer.span_records(), fh)
    return {
        "per_layer": metrics,
        "ops": len(ops),
        "untraced_s": untraced,
        "traced_s": traced,
    }


def main() -> int:
    t0 = clock()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--wrong-answers", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ordlat

    if Path(ordlat.__file__).resolve().parent != src / "ordlat":
        print(f"ordlat imported from {ordlat.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.wrong_answers)
    tally = Tally()
    try:
        for inp in wl.warm_up:
            tally.add(attempt(wl, inp)[1])
        setup_s = clock() - t0
        if args.trace:
            result = traced_run(wl, workloads, args.seed, tally)
        else:
            first = args.part * len(wl.cycles) // args.parts
            result = timed_window(wl, args.seconds, first, tally)
    finally:
        wl.close()
    result.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=tally.attempted,
        failed=len(tally.errors),
        errors=tally.errors[:5],
        digest=wl.digest(),
        round_cycles=len(wl.cycles),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
