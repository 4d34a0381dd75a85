"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports nilp2 from the checkout's ``src`` (never from an installed copy),
builds the workload's operations from the seed, and times whole passes
over them until the next pass would end after S seconds of measured time
(at least three passes; an operation's time is its median over the
passes).  After timing, every output of the first pass is
checked by ``checker.py``; later passes must reproduce it exactly.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  Results and traces also go to ``perfbench/out/``.
The exit code is 0 when every check passed, 1 otherwise, 2 on bad usage.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "nilp2", "__init__.py")):
    sys.stderr.write(f"run.py: no nilp2 sources under {SRC}\n")
    sys.exit(2)
sys.path.insert(0, SRC)

import nilp2  # noqa: E402
import nilp2.cli  # noqa: E402,F401

IMPORT_S = time.perf_counter() - T0
if os.path.dirname(os.path.abspath(nilp2.__file__)) != os.path.join(SRC, "nilp2"):
    sys.stderr.write(f"run.py: imported nilp2 from {nilp2.__file__}, not from {SRC}\n")
    sys.exit(2)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

from nilp2 import group_core  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT = os.path.join(ROOT, "perfbench", "out")
# Set-up is repeated this many times per run, each time from a cold element
# table cache; setup_s is the import time plus the median round.
SETUP_REPEATS = 3
# Each operation's time is its median over the run's passes.
MIN_PASSES = 3


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def build(name, seed, tmpdir):
    rng = random.Random(seed)
    if name == "extend_verify":
        return workloads.build_extend(rng, tmpdir)
    return workloads.WORKLOADS[name](rng)


def warm_up(ops):
    """Run the first operation of each kind once, untimed."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            op.extract(op.run())


def timed_passes(ops, seconds, min_passes, tracer):
    """Whole passes over ``ops``.  Returns per-pass op latencies, the outputs
    of the first pass, mismatches in later passes and, when traced, the
    per-pass layer counters."""
    latencies, first, mismatches, layers = [], [], [], []
    measured = 0.0
    while True:
        # Every pass starts as a fresh nilp2 process would: no element
        # tables cached, no garbage, and no older objects (the benchmark's
        # own included) for the garbage collector to traverse.
        group_core._tables.cache_clear()
        gc.collect()
        gc.freeze()
        if tracer:
            tracer.reset()
        lat = []
        for i, op in enumerate(ops):
            if tracer:
                tracer.enabled = True
            start = time.perf_counter()
            try:
                raw, error = op.run(), None
            except Exception as exc:  # noqa: BLE001 - a failing operation is reported, not fatal
                raw, error = None, exc
            lat.append(time.perf_counter() - start)
            if tracer:
                tracer.enabled = False
            outcome = (False, None, repr(error)) if error else op.extract(raw)
            if not latencies:
                first.append(outcome)
            elif outcome[:2] != first[i][:2]:
                mismatches.append(i)
        latencies.append(lat)
        if tracer:
            layers.append(tracer.snapshot())
        measured += sum(lat)
        if len(latencies) >= min_passes and measured * (1 + 1 / len(latencies)) > seconds:
            return latencies, first, mismatches, layers


def check(ops, first, mismatches):
    """Problems found by the checker, and which operations succeeded."""
    problems = []
    good = []
    families = {}
    for i, (op, (definite, data, invariant)) in enumerate(zip(ops, first)):
        if data is None:
            found = [f"raised {invariant}"]
        elif definite:
            found = op.check(data)
        else:
            # An operation kept as failed for a known fault may stay undetermined.
            found = [] if op.fault else ["no definite answer"]
        problems += [f"{op.label}: {p}" for p in found]
        good.append(definite and not found)
        if op.family is not None:
            families.setdefault(op.family, set()).add(invariant)
    for family, values in families.items():
        if len(values) > 1:
            problems.append(f"{family}: answers differ between presentations of one group: {sorted(map(str, values))}")
    for i in sorted(set(mismatches)):
        problems.append(f"{ops[i].label}: a later pass gave a different output")
        good[i] = False
    return problems, good


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=OUT)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            # Same inputs every round: without this, later rounds would find
            # the element tables the first round built.
            group_core._tables.cache_clear()
            gc.collect()
            start = time.perf_counter()
            ops = build(args.workload, args.seed, tmpdir)
            warm_up(ops)
            setups.append(time.perf_counter() - start)
        # The highest whole percentile with at least ten operations beyond it.
        tail = math.floor(100 * (1 - 10 / len(ops)))

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        try:
            latencies, first, mismatches, layers = timed_passes(ops, args.seconds, MIN_PASSES, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems, good = check(ops, first, mismatches)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    passes = len(latencies)
    measured = sum(map(sum, latencies))
    succeeded = passes * sum(good)
    attempted = passes * len(ops)
    # An operation's time is its median over the passes, which a burst of
    # load from outside the process moves much less than any single timing.
    op_s = [statistics.median(lat[i] for lat in latencies) for i in range(len(ops))]
    goodput = sum(good) / sum(op_s)
    if args.trace:
        names = [name for name, _, _ in tracing.per_layer_metrics()]
        counts = {k: v for k, v in layers[0].items() if not k.endswith(".self_s")}
        for later in layers[1:]:
            if {k: v for k, v in later.items() if not k.endswith(".self_s")} != counts:
                problems.append("traced counters differ between passes")
        values = dict.fromkeys(names, 0)
        values.update(counts)
        for name in names:
            if name.endswith(".self_s"):
                values[name] = sum(layer.get(name, 0.0) for layer in layers) / passes
        values["process.import_nilp2_s"] = IMPORT_S
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    else:
        metrics = {
            "goodput_ops_per_s": {"value": goodput, "unit": "1/s"},
            "latency_p50_s": {"value": percentile(op_s, 50), "unit": "s"},
            "latency_tail_s": {"value": percentile(op_s, tail), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": IMPORT_S + statistics.median(setups), "unit": "s"},
        }
    for p in problems:
        sys.stderr.write(f"CHECK FAILED {p}\n")
    faults = sorted({op.fault for op, ok in zip(ops, good) if op.fault and not ok})
    sys.stderr.write(
        f"{args.workload} seed={args.seed}: {len(ops)} ops x {passes} passes in {measured:.2f} s measured, "
        f"{attempted - succeeded} failed ({', '.join(faults) or 'none'}), {len(problems)} check problems\n"
    )
    result = {"correct": not problems, "attempted": attempted, "failed": attempted - succeeded, "metrics": metrics}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(ops),
        "measured_s": measured,
        "goodput_ops_per_s": goodput,
        "tail_percentile": tail,
        "setup_repeats_s": setups,
        "import_nilp2_s": IMPORT_S,
        "problems": problems,
        "ops": [
            {"label": op.label, "kind": op.kind, "fault": op.fault, "ok": ok, "seconds": [lat[i] for lat in latencies]}
            for i, (op, ok) in enumerate(zip(ops, good))
        ],
        "result": result,
    }
    kind = "trace" if args.trace else "result"
    with open(os.path.join(OUT, f"{kind}-{args.workload}-{args.seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
