"""Run one workload of the toricbound benchmark and print its metrics.

    python3 benchmark/run.py --workload semigroups --seed 1 --seconds 24 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``
there and nowhere else. The run builds the workload's jobs from the seed
and times whole passes over the job list on the process CPU clock until the
jobs have used ``--seconds`` of CPU time (at least three passes). The first
pass also checks every output against an independent answer; every later
output must equal the checked one. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the run instead makes one untraced and one traced pass,
reports the per-layer metrics of the traced pass with its overhead against
the untraced one, and writes the spans to ``benchmark/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("semigroups", "levels", "surfaces", "tc-grid")
SETUP_PROBES = 9
MIN_PASSES = 3
WINDOW = 3  # reference timings on each side of a job that set its speed

# FROZEN: reference() and REFERENCE_S set the scale of every end-to-end time.
# REFERENCE_S is the CPU time of reference() at the speed that times are
# scaled to. Changing either changes every figure: re-measure REFERENCE_S
# against the old pair and every baseline with it (see README.md).
REFERENCE_S = 0.00535
_POLYGON = ((1, 0, 0), (0, 1, 0), (-1, -1, 90), (1, -2, 90), (3, 1, 150))
_MATRIX = [[Fraction(i * j + 1, i + j + 1) for j in range(7)] for i in range(7)]


def reference():
    """Fixed work that calls nothing outside this function and the Python
    runtime: continued fractions on integer pairs, a fibre-by-fibre lattice
    point count, a Fraction determinant and dict updates. Its CPU time tracks
    the speed the shared machine gives this process at the moment it runs,
    and no change to the program or to the rest of the benchmark moves it."""
    for k in range(20, 60):  # the continued fraction of (3k + 1) / k
        num, den = 3 * k + 1, k
        seq = [(0, 1), (1, 0)]
        while den:
            a = -(-num // den)
            seq.append((a * seq[-1][0] - seq[-2][0], a * seq[-1][1] - seq[-2][1]))
            num, den = den, a * den - num
        sorted(set((x + y, x) for x, y in seq))
    count = 0  # lattice points of the polygon a*x + b*y >= -c, fibre by fibre
    for x in range(-120, 121):
        lo, hi = None, None
        for a, b, c in _POLYGON:
            rhs = -c - a * x  # b*y >= rhs
            if b > 0:
                lo = -(-rhs // b) if lo is None else max(lo, -(-rhs // b))
            elif b < 0:
                hi = rhs // b if hi is None else min(hi, rhs // b)
            elif rhs > 0:
                lo, hi = 1, 0
        count += max(0, hi - lo + 1)
    rows = [row[:] for row in _MATRIX]
    d = Fraction(1)
    for c in range(len(rows)):
        d *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    seen: dict = {}
    for i in range(6000):
        seen[i % 97, i % 89] = seen.get((i % 97, i % 89), 0) + i
    return count, d, len(seen)


def timed_reference() -> float:
    t0 = time.process_time()
    reference()
    return time.process_time() - t0


def setup(workload: str, seed: int):
    """Import the program, load its corpus and build the jobs; returns the
    jobs and the CPU seconds this took."""
    if not os.path.isfile(os.path.join(SRC, "toricbound", "__init__.py")):
        raise SystemExit(f"error: no toricbound sources under {SRC}; run from a checkout root")
    sys.path[:0] = [SRC, HERE]
    t0 = time.process_time()
    import toricbound
    import toricbound.cli

    if not os.path.abspath(toricbound.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: toricbound was imported from {toricbound.__file__}, not {SRC}")
    for name in toricbound.cli.corpus_list():
        toricbound.cli.corpus_entry(name)
    import workloads

    jobs = workloads.build(workload, seed)
    return jobs, time.process_time() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the CPU time of setup(), rescaled to
    reference speed by reference() timed three times right before and three
    times right after it."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: setup probe failed: {proc.stderr.strip()}")
        setup_cpu, ref = map(float, proc.stdout.split()[-2:])
        times.append(setup_cpu * REFERENCE_S / ref)
    return statistics.median(times)


class Outcome:
    def __init__(self):
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def wrong(self, message):
        self.correct = False
        print(f"INCORRECT: {message}", file=sys.stderr)


def attempt(job, outcome: Outcome):
    """Run one job; returns its output, or None when it raised."""
    outcome.attempted += 1
    try:
        return job.run()
    except Exception as exc:  # every job failure is counted, never hidden
        outcome.failed += 1
        if job.fault is None or not isinstance(exc, job.fault):
            outcome.wrong(f"{job.label}: {type(exc).__name__}: {exc}")
        return None


def timed_pass(jobs, refs: list, outcome: Outcome, records: list, span=None) -> float:
    """Run every job once on the process CPU clock, each right after one
    reference() timing, and return the CPU time of all its jobs. Each job
    adds (label, job CPU s, reference CPU s, completed) to records. On the
    first pass (refs empty) each output is checked and kept; later outputs
    must equal it."""
    from oracles import CheckFailed

    first = not refs
    cpu = 0.0
    for i, job in enumerate(jobs):
        ref = timed_reference()
        t0 = time.process_time()
        if span is None:
            out = attempt(job, outcome)
        else:
            with span(job.label, i):
                out = attempt(job, outcome)
        dt = time.process_time() - t0
        cpu += dt
        records.append((job.label, dt, ref, out is not None))
        if first:
            refs.append(out)
            if out is not None:
                try:
                    job.check(out)
                except (CheckFailed, KeyError, ValueError, TypeError) as exc:
                    outcome.wrong(f"{job.label}: {exc}")
        elif out != refs[i]:
            outcome.wrong(f"{job.label}: output changed between passes")
    return cpu


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rescale(records) -> list:
    """(label, seconds at reference speed, completed) for each record: the
    job's CPU time times REFERENCE_S over the median reference timing of the
    2 * WINDOW + 1 jobs around it."""
    refs = [r for _, _, r, _ in records]
    out = []
    for i, (label, dt, _, done) in enumerate(records):
        local = statistics.median(refs[max(0, i - WINDOW): i + WINDOW + 1])
        out.append((label, dt * REFERENCE_S / local, done))
    return out


def run_timed(jobs, seconds):
    """Whole passes until the jobs have used `seconds` of CPU time."""
    outcome = Outcome()
    records: list = []
    refs: list = []
    gc.collect()
    passes, cpu = 0, 0.0
    while passes < MIN_PASSES or cpu < seconds:
        cpu += timed_pass(jobs, refs, outcome, records)
        passes += 1
    return outcome, records, passes


def run_traced(jobs, workload, seed):
    """One untraced pass, then one traced pass of the same jobs."""
    from tracer import Tracer

    refs: list = []
    check = Outcome()
    plain: list = []
    timed_pass(jobs, refs, check, plain)
    tracer = Tracer()
    tracer.install()
    outcome = Outcome()
    traced: list = []
    try:
        timed_pass(jobs, refs, outcome, traced, tracer.job_span)
    finally:
        tracer.uninstall()
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"trace-{workload}-seed{seed}.jsonl"))
    overhead = sum(t for _, t, _ in rescale(traced)) / sum(t for _, t, _ in rescale(plain))
    outcome.correct = outcome.correct and check.correct
    return outcome, tracer.metrics(overhead)


def by_label(samples):
    groups: dict = {}
    for label, dt, done in samples:
        if done:
            groups.setdefault(label, []).append(dt)
    return {k: {"median_ms": statistics.median(v) * 1e3, "samples": len(v)}
            for k, v in sorted(groups.items())}


def end_to_end(samples, setup_s) -> dict:
    """The end-to-end metrics from (label, seconds, completed) samples."""
    times = [t for _, t, done in samples if done]
    out = {
        "jobs_per_s": {"value": len(times) / sum(t for _, t, _ in samples), "unit": "1/s"},
        "job_p50_ms": {"value": percentile(times, 50) * 1e3, "unit": "ms"},
        "job_p90_ms": {"value": percentile(times, 90) * 1e3, "unit": "ms"},
    }
    if setup_s is not None:
        out["setup_s"] = {"value": setup_s, "unit": "s"}
        out["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "unit": "MB"}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    before = [timed_reference() for _ in range(3)] if args.setup_probe else []
    jobs, setup_cpu = setup(args.workload, args.seed)
    if args.setup_probe:
        print(setup_cpu, statistics.median(before + [timed_reference() for _ in range(3)]))
        return 0

    if args.trace:
        outcome, layer = run_traced(jobs, args.workload, args.seed)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        for name, m in metrics.items():
            print(f"{name}: {m['value']} {m['unit']}")
    else:
        setup_s = setup_seconds(args.workload, args.seed)
        outcome, records, passes = run_timed(jobs, args.seconds)
        scaled = rescale(records)
        plain = [(label, dt, done) for label, dt, _, done in records]
        metrics = end_to_end(scaled, setup_s)
        raw = end_to_end(plain, None)
        times = [t for _, t, done in scaled if done]
        beyond = sum(1 for t in times if t * 1e3 > metrics["job_p90_ms"]["value"])
        print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs a pass, {passes} passes, "
              f"{sum(dt for _, dt, _ in plain):.2f} CPU s timed, machine at "
              f"{REFERENCE_S / statistics.median(r for _, _, r, _ in records):.3f} x reference speed")
        for name, m in metrics.items():
            plain_value = f" (plain CPU: {raw[name]['value']:.6g})" if name in raw else ""
            print(f"{name}: {m['value']:.6g} {m['unit']}{plain_value}")
        print(f"job_p90_ms is taken over {len(times)} samples, {beyond} beyond it")
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"metrics": metrics, "plain_cpu_metrics": raw, "passes": passes,
                       "jobs": by_label(scaled)}, fh, indent=1)
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, correct {outcome.correct}")
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
