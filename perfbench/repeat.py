"""Run two sets of benchmark runs of the same code and compare them.

    python3 perfbench/repeat.py [--runs 10] [--workloads a,b]

Each run is ``run.py`` in its own process with its own seed: set 1 uses
seeds 1..runs, set 2 seeds runs+1..2*runs.  The workloads are interleaved
so that drift in the machine's load reaches all of them alike.  For every
end-to-end metric on every workload it prints each set's median and spread
(distance between the first and third quartile, as a share of the median),
then how much worse set 2's median is than set 1's.  A metric is within
its bound in BENCHMARK.json when both spreads and the size of that shift,
in either direction, are.  It also compares the share of failed operations
between the sets, which must be identical.  The exit code is 0 only when
every run was correct and every metric on every workload is within bound.

``suggest`` is the bound these numbers support: three times the largest
spread or shift seen, rounded up to the next 0.01 and capped at 0.25.  The
bounds in BENCHMARK.json were set that way.  A summary goes to
perfbench/out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    names = args.workloads.split(",")

    first = {w: [] for w in names}
    second = {w: [] for w in names}
    for seed in range(1, 2 * args.runs + 1):
        for w in names:
            start = time.perf_counter()
            (first if seed <= args.runs else second)[w].append(run_once(w, seed, bench["run_seconds"]))
            sys.stderr.write(f"{w} seed {seed}: {time.perf_counter() - start:.1f} s wall\n")

    rows = []
    ok = True
    for w in names:
        runs = first[w] + second[w]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        correct = all(r["correct"] for r in runs)
        if len(shares) != 1 or not correct:
            ok = False
            print(f"{w}: failed shares {sorted(map(str, shares))}, all correct: {correct}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[r["metrics"][name]["value"] for r in s] for s in (first[w], second[w])]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            sign = 1 if m["better"] == "lower" else -1
            shift = sign * (medians[1] - medians[0]) / medians[0]
            worst = max(spreads + [abs(shift)])
            good = worst <= bound
            ok &= good
            suggest = min(0.25, math.ceil(300 * worst) / 100)
            rows.append({"workload": w, "metric": name, "bound": bound, "medians": medians, "spreads": spreads, "shift": shift, "suggest": suggest, "ok": good})
            print(
                f"{w:17s} {name:18s} bound {bound:.2f}  "
                + "  ".join(f"median {med:.4g} spread {s:.3f}" for med, s in zip(medians, spreads))
                + f"  worse by {shift:+.3f}  suggest {suggest:.2f}  {'ok' if good else 'OVER BOUND'}"
            )
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"repeat-{int(time.time())}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "rows": rows, "results": {"set1": first, "set2": second}}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
