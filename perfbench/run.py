"""Benchmark of severi-lattice: one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  One process issues one operation at a time and starts no
threads.  The only randomness is ``--seed``, which fixes the inputs.

Set-up (import of ``severi_lattice.cli`` in a fresh interpreter, input
generation, input files) runs at least five times and for at least 3 s,
and ``setup_s`` is the median.  The timed phase then repeats one round
over the inputs, the same ops in the same order, until ``--seconds`` of
wall time have passed and at least two rounds are done.  Every output
is checked outside the timed interval; a failed check counts as a
failed op.

Times are reported in nominal seconds: a fixed reference loop
(``hostspeed.py``) runs every 20 ms between ops, and each op's wall time
is multiplied by 1 ms over the reference loop's time around it, which
removes most of a shared host's swings in speed.  An op's latency is its median over
the rounds.  The record keeps the same figures in wall seconds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
round three times, plain, with the tracer installed, and plain again, and
reports per-layer calls and self time, set-up parts and the tracing
overhead.

The last line of stdout is the JSON result; the full record (tail
percentile and sample count, error rate, output digest, machine) is
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
SETUP_REPS = 5  # set-up runs at least this often ...
SETUP_MIN_S = 3.0  # ... and until this much wall time has passed
SETUP_MAX_REPS = 60
SETUP_SAMPLES = 10  # reference loops before and after each set-up
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("corpus-analyze", "large-analyze", "normal-forms", "verify-battery")
MAX_PROBLEMS = 10

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import severi_lattice.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Wall time of ``import severi_lattice.cli`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(proc.stdout)


def set_up(wl, seed: int, reps: int, host: HostSpeed, probe_import: bool = True,
           min_s: float = 0.0):
    """Make and write the inputs at least ``reps`` times and until ``min_s``
    have passed (at most ``SETUP_MAX_REPS`` times); return the last items,
    the median wall time of each part and of their total, the median of
    the totals in nominal seconds (host speed sampled just before and
    after each set-up) and the number of set-ups."""
    directory = RESULTS / "inputs" / wl.name
    parts: dict[str, list[float]] = {"import_s": [], "generate_s": [], "write_s": []}
    nominal: list[float] = []
    items = None
    start = time.perf_counter()
    done = 0
    while done < reps or (time.perf_counter() - start < min_s and done < SETUP_MAX_REPS):
        done += 1
        items = None  # drop the previous copy before making the next
        before = time.perf_counter()
        for _ in range(SETUP_SAMPLES):
            host.measure()
        imp = import_seconds() if probe_import else 0.0
        t0 = time.perf_counter()
        raw = wl.generate(random.Random(f"{wl.name}:{seed}"))
        t1 = time.perf_counter()
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        items = wl.write(raw, directory)
        t2 = time.perf_counter()
        parts["import_s"].append(imp)
        parts["generate_s"].append(t1 - t0)
        parts["write_s"].append(t2 - t1)
        for _ in range(SETUP_SAMPLES):
            host.measure()
        nominal.append((imp + t2 - t0) * host.scale(before, time.perf_counter()))
    totals = [sum(vals) for vals in zip(*parts.values())]
    medians = {k: statistics.median(v) for k, v in parts.items()}
    medians["total_s"] = statistics.median(totals)
    medians["nominal_total_s"] = statistics.median(nominal)
    medians["reps"] = done
    return items, medians


def run_rounds(wl, items, seconds: float, min_rounds: int, host: HostSpeed, tracer=None) -> dict:
    """Closed loop: repeat one round over ``items`` (the same items in the
    same order each round) until ``seconds`` of wall time have passed and
    at least ``min_rounds`` rounds are done.  Returns, among counts, the
    ``calls`` as (start, end, busy) and the ``ops`` as (start, latency),
    in wall seconds; busy time and latencies leave out the reference
    loops that ``host`` ran inside a call."""
    calls: list[tuple[float, float, float]] = []
    ops: list[tuple[float, float]] = []
    rounds = attempted = failed = 0
    problems: list[str] = []
    unmarked_calls = 0
    digest = hashlib.sha256()
    digest_left = wl.digest_ops
    clock = time.perf_counter
    n = wl.ops_per_call
    start = clock()
    host.measure()
    while rounds < min_rounds or clock() - start < seconds:
        rounds += 1
        for item in items:
            host.tick()
            if tracer is not None:
                tracer.op = len(calls)
            attempted += n
            p0 = host.paused_s
            t0 = clock()
            try:
                out = wl.call(item)
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, bad = None, [f"raised {exc!r}"]
            t1 = clock()
            busy = t1 - t0 - (host.paused_s - p0)
            calls.append((t0, t1, busy))
            lat = None if out is None else wl.op_latencies(out, t0, t1, host.paused_s)
            if lat is None:
                unmarked_calls += out is not None
                lat = [(t0 + i * busy / n, busy / n) for i in range(n)]
            ops.extend(lat)
            if out is not None:
                try:
                    bad = wl.check(item, out)
                except Exception as exc:
                    bad = [f"check raised {exc!r}"]
            if bad:
                failed += n
                if len(problems) < MAX_PROBLEMS:
                    problems.append(f"{item!r}: {'; '.join(bad)}")
            if out is not None and digest_left > 0:
                digest.update(wl.output_bytes(out))
                digest_left -= n
    host.measure()
    return {
        "calls": calls,
        "ops": ops,
        "rounds": rounds,
        "wall_s": clock() - start,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "unmarked_calls": unmarked_calls,
        "output_sha256": digest.hexdigest() if digest_left <= 0 else None,
    }


def tail_latency(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank ``pct`` percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, ceil(Fraction(str(pct)) / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def freeze_heap() -> None:
    """Move everything alive (the inputs above all) out of the collector's
    reach, so that collections during ops scan what the ops allocate, as
    they would in a process holding one input, not the whole input pool."""
    gc.collect()
    gc.freeze()


def untraced(wl, seed: int, seconds: float) -> tuple[dict, dict]:
    host = HostSpeed()
    wl.host = host
    items, setup = set_up(wl, seed, SETUP_REPS, host, min_s=SETUP_MIN_S)
    freeze_heap()
    res = run_rounds(wl, items, seconds, MIN_ROUNDS, host)
    calls, ops = res.pop("calls"), res.pop("ops")
    # every round makes the same ops in the same order; an op's latency is
    # its median over the rounds, so a stall in one round does not count
    m = len(items) * wl.ops_per_call
    wall = [statistics.median(lat for _, lat in ops[i::m]) for i in range(m)]
    nominal = [
        statistics.median(lat * host.scale(t, t + lat) for t, lat in ops[i::m]) for i in range(m)
    ]
    busy = sum(b for _, _, b in calls)
    nominal_busy = sum(b * host.scale(t0, t1) for t0, t1, b in calls)
    tail, beyond = tail_latency(nominal, wl.tail_pct)
    completed = res["attempted"] - res["failed"]
    metrics = {
        "setup_s": _metric(setup["nominal_total_s"], "s"),
        "ops_per_s": _metric(completed / nominal_busy, "1/s"),
        "latency_p50_ms": _metric(statistics.median(nominal) * 1e3, "ms"),
        "latency_tail_ms": _metric(tail * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MiB"),
    }
    record = dict(
        res,
        setup=setup,
        error_rate=res["failed"] / res["attempted"],
        ops_per_round=m,
        tail_percentile=wl.tail_pct,
        tail_samples_beyond=beyond,
        reference_loops=len(host.samples),
        reference_loop_median_s=statistics.median(host.samples),
        reference_paused_s=host.paused_s,
        wall=dict(
            setup_s=setup["total_s"],
            ops_per_s=completed / busy,
            latency_p50_ms=statistics.median(wall) * 1e3,
            latency_tail_ms=tail_latency(wall, wl.tail_pct)[0] * 1e3,
        ),
    )
    return metrics, record


def traced(wl, seed: int) -> tuple[dict, dict]:
    from tracer import Tracer

    host = HostSpeed()
    wl.host = host
    items, setup = set_up(wl, seed, SETUP_REPS, host)
    tracer = Tracer()
    tracer.install()
    try:
        items = set_up(wl, seed, 1, host, probe_import=False)[0]  # spans of set-up, op -1
    finally:
        tracer.uninstall()
    freeze_heap()
    # plain rounds before and after the traced one cancel a linear drift
    before = run_rounds(wl, items, 0, 1, host)
    tracer.install()
    try:
        spanned = run_rounds(wl, items, 0, 1, host, tracer)
    finally:
        tracer.uninstall()
    after = run_rounds(wl, items, 0, 1, host)
    passes = {"plain_before": before, "traced": spanned, "plain_after": after}
    for res in passes.values():
        res.pop("ops")
        res["busy_s"] = sum(b for _, _, b in res.pop("calls"))
    plain_busy = (before["busy_s"] + after["busy_s"]) / 2
    metrics = {
        name: _metric(value, "count" if name.endswith((".calls", ".points")) else "s")
        for name, value in tracer.metrics().items()
    }
    metrics["cli.import_s"] = _metric(setup["import_s"], "s")
    metrics["setup.generate_s"] = _metric(setup["generate_s"], "s")
    metrics["setup.write_s"] = _metric(setup["write_s"], "s")
    metrics["trace.ops"] = _metric(spanned["attempted"], "count")
    metrics["trace.overhead_ratio"] = _metric(spanned["busy_s"] / plain_busy, "ratio")
    spans_path = RESULTS / f"spans-{wl.name}-seed{seed}.jsonl.gz"
    tracer.write_spans(spans_path)
    record = {
        "attempted": sum(res["attempted"] for res in passes.values()),
        "failed": sum(res["failed"] for res in passes.values()),
        "problems": [p for res in passes.values() for p in res["problems"]],
        "setup": setup,
        "passes": passes,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(HERE.parent)),
        "missing_functions": tracer.missing,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "severi_lattice" / "cli.py").is_file():
        print(f"error: no severi_lattice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import severi_lattice.cli  # also compiles bytecode before the import probes

    if not Path(severi_lattice.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: severi_lattice was not imported from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.trace:
        metrics, record = traced(wl, args.seed)
    else:
        metrics, record = untraced(wl, args.seed, args.seconds)

    record.update(
        workload=wl.name,
        why=wl.why,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        machine=machine(),
        metrics=metrics,
    )
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in record["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    if record.get("unmarked_calls"):
        print(
            f"warning: {record['unmarked_calls']} calls had no per-op stamps; "
            "their latency was split evenly over their ops",
            file=sys.stderr,
        )
    if not args.trace:
        print(
            f"{wl.name} seed {args.seed}: {record['attempted']} ops, "
            f"error_rate {record['error_rate']:g}, "
            f"{record['rounds']} rounds of {record['ops_per_round']}, "
            f"p{wl.tail_pct:g} ({record['tail_samples_beyond']} beyond), "
            f"setup import {record['setup']['import_s']:.4f} s "
            f"generate {record['setup']['generate_s']:.4f} s "
            f"write {record['setup']['write_s']:.4f} s, "
            f"output_sha256 {record['output_sha256']}"
        )
    print(f"record: {out_path.relative_to(HERE.parent)}")
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
