"""Check that the benchmark prints a well-formed result line.

Runs perfbench/run.py with the given options and fails unless it exits 0
and its last line of standard output is a JSON object whose metrics hold
every metric BENCHMARK.json lists for that kind of run (end_to_end with
--trace 0, per_layer with --trace 1), for every workload that ran.  With
--workload all the metrics are named <workload>.<metric>.

    python tools/check_bench_result.py --size toy --seconds 0.5 --trace 1
    python tools/check_bench_result.py --workload mc_lti --trace 1

Reads perfbench/ and BENCHMARK.json only; writes nothing but what the
benchmark itself writes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--seconds", default="0.5")
    parser.add_argument("--trace", choices=("0", "1"), default="1")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    listed = [m["name"] for m in manifest[kind]]
    if args.workload == "all":
        expected = [f"{w['name']}.{m}" for w in manifest["workloads"] for m in listed]
    else:
        expected = listed

    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", args.workload, "--size", args.size,
           "--seconds", args.seconds, "--trace", args.trace]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, KeyError, TypeError):
        problems.append(f"last line is not a result: {lines[-1] if lines else ''!r}")
    else:
        missing = [name for name in expected if name not in metrics]
        if missing:
            problems.append(f"{len(missing)} {kind} metrics missing: {', '.join(missing)}")
        if result.get("failed") != 0:
            problems.append(f"failed checks: {result.get('failed')}")
    label = " ".join(["perfbench/run.py", *cmd[2:]])
    if problems:
        print("\n".join(lines[-20:]))
        print(f"FAIL {label}: " + "; ".join(problems))
        return 1
    print(f"ok {label}: {len(expected)} {kind} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
