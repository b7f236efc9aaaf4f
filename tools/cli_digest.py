"""Print one digest line per command-line run, to compare the behaviour of
two checkouts byte for byte.

The runs are, in this order:
- `toricbound COMMAND` for every corpus entry and every command, with the
  entry read by `--corpus NAME` and again as JSON on stdin (`--input -`),
  under each option set of OPTION_SETS. An option that a command lacks ends
  in argparse's exit 2, which is recorded like any other exit.
- every job of `benchmark/workloads.build(WORKLOAD, SEED)`, once, for each
  workload and each seed given with --seeds. A job's result, or the
  exception it raised, takes the place of the exit code.

Each line is a label and the sha256 of (exit code, stdout, stderr); the last
line counts the runs. Everything runs in-process and the output is
deterministic, so two checkouts behave the same on these runs iff their
outputs are equal.

Run from the root of a checkout:
    python tools/cli_digest.py --seeds 1 2 3 > digest.txt
and compare the files of two checkouts with diff.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import workloads  # noqa: E402
from toricbound import cli  # noqa: E402

OPTION_SETS = ([], ["--nmax", "2"], ["--grid=1,-1,2"], ["--box", "2"])


def digest(run, stdin=""):
    """sha256 of (exit code, stdout, stderr) of run() with the given stdin."""
    out, err = io.StringIO(), io.StringIO()
    old_in = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run()
            except SystemExit as exc:  # argparse rejecting the command line
                code = exc.code
            except Exception as exc:  # a traceback is behaviour to compare too
                code = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = old_in
    text = "\0".join((str(code), out.getvalue(), err.getvalue()))
    return hashlib.sha256(text.encode()).hexdigest()


def cli_runs():
    for name in cli.corpus_list():
        payload = json.dumps(cli.corpus_entry(name)["input"])
        for command in cli._DISPATCH:
            for options in OPTION_SETS:
                for source, stdin in ((["--corpus", name], ""), (["--input", "-"], payload)):
                    argv = [command, *source, *options]
                    yield f"{name}: {' '.join(argv)}", functools.partial(cli.main, argv), stdin


def job_runs(seeds):
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for i, job in enumerate(workloads.build(workload, seed)):
                yield f"{workload}:{seed}:{i}: {job.label}", job.run, ""


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*", default=[],
                        help="workload seeds whose jobs are run too")
    args = parser.parse_args()
    count = 0
    for label, run, stdin in (*cli_runs(), *job_runs(args.seeds)):
        print(f"{label}  {digest(run, stdin)}")
        count += 1
    print(f"{count} runs")


if __name__ == "__main__":
    main()
