"""Check that the benchmark repeats: two interleaved sets of runs per workload.

    python3 benchmark/steady.py

Run it from the root of a checkout. For every workload of ``BENCHMARK.json``
it makes ten runs in set A (seeds 1-10) and ten in set B (seeds 101-110),
alternating A and B, each with the run length ``run_seconds`` of
``BENCHMARK.json``. For each end-to-end metric it prints each set's
median and quartiles, the spread (interquartile distance over the median)
and the change of the median from A to B, and checks them against the
metric's bound: every spread except that of ``setup_s`` and every change of
median must stay within it. The share of failed operations must be exactly
the same in every run. It also makes two traced runs of
seed 1 per workload and checks that their counts are identical. The raw
results go to ``benchmark/results/steady.json``; the exit code is 0 only if
every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
RUNS = 10


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {workload} seed {seed}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    results = {w: {"A": [], "B": []} for w in workloads}
    for i in range(RUNS):
        for w in workloads:
            order = ("A", "B") if i % 2 == 0 else ("B", "A")
            for s in order:
                seed = (1 if s == "A" else 101) + i
                res = run_once(w, seed, seconds, 0)
                results[w][s].append(res)
                vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics)
                print(f"[{i + 1}/{RUNS}] {w} {s} seed {seed}: {vals} "
                      f"failed {res['failed']}/{res['attempted']}", flush=True)

    ok = True
    for w in workloads:
        print(f"\n== {w}")
        runs = results[w]["A"] + results[w]["B"]
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        if len(shares) != 1 or not all(r["correct"] for r in runs):
            ok = False
            print(f"FAIL: failed shares {sorted(shares)}, correct {[r['correct'] for r in runs]}")
        else:
            print(f"failed share {shares.pop()} in every run; every run correct")
        print(f"{'metric':<13}{'set':>4}{'q1':>11}{'median':>11}{'q3':>11}{'spread':>8}"
              f"{'change':>8}{'bound':>7}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            med = {}
            for s in ("A", "B"):
                vals = [r["metrics"][name]["value"] for r in results[w][s]]
                q1, md, q3 = quartiles(vals)
                med[s] = md
                spread = (q3 - q1) / md
                bad = name != "setup_s" and spread > bound
                ok = ok and not bad
                change = ""
                if s == "B":
                    rel = (med["B"] - med["A"]) / med["A"]
                    bad = bad or abs(rel) > bound
                    ok = ok and abs(rel) <= bound
                    change = f"{rel:+.3f}"
                print(f"{name:<13}{s:>4}{q1:>11.5g}{md:>11.5g}{q3:>11.5g}{spread:>8.3f}"
                      f"{change:>8}{bound:>7}{'  FAIL' if bad else ''}")

    for w in workloads:
        a, b = run_once(w, 1, seconds, 1), run_once(w, 1, seconds, 1)
        counts = [k for k, v in a["metrics"].items() if v["unit"] == "count"]
        same = all(a["metrics"][k]["value"] == b["metrics"][k]["value"] for k in counts)
        ok = ok and same
        print(f"\n{w}: traced counts {'identical' if same else 'DIFFER'} across two runs; "
              f"trace.overhead {a['metrics']['trace.overhead']['value']:.3f}, "
              f"{b['metrics']['trace.overhead']['value']:.3f}")
        results[w]["traces"] = [a, b]

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "steady.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    print("\nsteady: all checks pass" if ok else "\nsteady: some checks FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
