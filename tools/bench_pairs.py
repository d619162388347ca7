"""Compare two checkouts on one benchmark workload in alternating pairs.

Runs perfbench/run.py of each checkout (--trace 0), one after the other,
for N pairs.  Pair i runs both sides with seed --seed + i; the parent
side runs first in even pairs and the change side in odd ones, so a
host that slows down or speeds up over the batch weighs on both sides.
Prints every pair, then per end-to-end metric the parent's and the
change's median and quartiles and how many pairs the change won under
BENCHMARK.json's `better`.  Exits 1 if any run exits nonzero, fails a
check or prints no result line.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload stream_long --pairs 10 --json-out BENCH.json

With --json-out the same summary goes to a JSON file as well: under
"workloads", the workload's settings, and per end-to-end metric each
side's median and quartiles and the change's wins, and the failed runs;
under "host", the cores, Python and numpy of the runs.  A workload already in the file is
replaced and the others are kept, so one file gathers several workloads.
Each checkout's run writes what its benchmark writes (.perfbench_out/
in that checkout); this script writes nothing else but the --json-out file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def _run(checkout: str, workload: str, seed: int, seconds: str, size: str):
    """One untraced run: (metric values, failure text or None)."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", seconds, "--size", size,
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {name: m["value"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        return {}, f"no result line (exit status {proc.returncode})"
    if proc.returncode != 0 or result.get("failed") != 0:
        return values, f"exit status {proc.returncode}, {result.get('failed')} failed checks"
    return values, None


def won(better: str, parent: float, change: float) -> bool:
    """Whether the change's value beats the parent's under `better`."""
    return change < parent if better == "lower" else change > parent


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, (25, 50, 75)).tolist()
    return {"q1": q1, "median": median, "q3": q3}


def metric_summary(better: str, pairs: list[tuple[float, float]]) -> dict:
    """Each side's quartiles and the change's wins over `pairs`."""
    return {"better": better, "pairs": len(pairs),
            "wins": sum(won(better, p, c) for p, c in pairs),
            **{side: quartiles([pair[k] for pair in pairs]) for k, side in enumerate(SIDES)}}


def summary(stats: dict) -> str:
    """A metric_summary on one line."""
    sides = "  ".join(f"{side} {stats[side]['median']:.6g} [{stats[side]['q1']:.6g}, "
                      f"{stats[side]['q3']:.6g}]" for side in SIDES)
    return (f"{sides}  change won {stats['wins']} of {stats['pairs']} "
            f"({stats['better']} is better)")


def write_json(path: str, args, stats: dict, failures: list[str]) -> None:
    """Put this workload's summary into the JSON file at `path`."""
    try:
        with open(path) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {"workloads": {}}
    record["host"] = {"cores": os.cpu_count(), "python": platform.python_version(),
                      "numpy": np.__version__}
    record["workloads"][args.workload] = {
        "pairs": args.pairs, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "metrics": stats, "failures": failures}
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    parser.add_argument("--change", required=True, help="checkout with the change")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    parser.add_argument("--json-out", help="JSON file to put the summary into as well")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")

    better = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    checkouts = dict(zip(SIDES, (os.path.abspath(args.parent), os.path.abspath(args.change))))
    values = {name: [] for name in better}
    failures = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        got = {}
        for side in order:
            got[side], failure = _run(checkouts[side], args.workload, seed, args.seconds,
                                      args.size)
            if failure:
                failures.append(f"pair {i} {side} seed {seed}: {failure}")
        print(f"pair {i}  seed {seed}  {order[0]} first  " + "  ".join(
            f"{name} {got['parent'].get(name, float('nan')):.6g} -> "
            f"{got['change'].get(name, float('nan')):.6g}" for name in better), flush=True)
        for name in better:
            if name in got["parent"] and name in got["change"]:
                values[name].append((got["parent"][name], got["change"][name]))
    stats = {name: metric_summary(better[name], pairs)
             for name, pairs in values.items() if pairs}
    for name, metric in stats.items():
        print(f"{name:18s} {summary(metric)}")
    if args.json_out:
        write_json(args.json_out, args, stats, failures)
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
