"""Benchmark of the ivrls package: Monte Carlo studies and a long stream.

Run from the repository root:

    python3 perfbench/run.py --workload mc_lti --seed 0 --seconds 30 --trace 0

Workloads: mc_lti, mc_ltv, stream_long, or all (each in its own process).
The package is imported from ./src of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
measures the same untraced phase, then makes one traced pass whose spans
give the per-layer metrics, the tracing overhead (traced over untraced
time of the fastest unit) and a span file under .perfbench_out/.  Every check that fails is
counted in `failed`; the exit status is nonzero if any did.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Its metrics are those BENCHMARK.json lists (end_to_end with --trace 0,
per_layer with --trace 1), which every workload reports; the tables
printed before it add the metrics only some workloads have.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKLOAD_NAMES = ("mc_lti", "mc_ltv", "stream_long")
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed phase (at least one pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="problem size; toy is for the benchmark's own tests")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Put ./src first on the path and check ivrls really comes from there."""
    if not os.path.isfile(os.path.join(SRC, "ivrls", "__init__.py")):
        raise FileNotFoundError(f"no ivrls package under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import ivrls

    if os.path.dirname(os.path.dirname(os.path.abspath(ivrls.__file__))) != SRC:
        raise ImportError(f"ivrls imported from {ivrls.__file__}, not from {SRC}")


def _probe(args) -> int:
    """Child process: time imports plus input generation once, on a speed clock.

    numpy is imported and the reference kernel warmed up before the clock
    starts: the clock needs both, and no change to ivrls can speed up
    numpy's own import.  Prints the interval and the clock's kernels.
    """
    sys.path.insert(0, HERE)
    import speed

    for _ in range(3):
        speed.reference_kernel()
    clock = speed.SpeedClock()
    with clock:
        t0 = time.perf_counter()
        _import_package()
        import workloads

        workloads.setup_inputs(args.workload, args.seed, workloads.SIZES[args.size],
                               args.setup_probe)
        t1 = time.perf_counter()
    print(json.dumps({"t0": t0, "t1": t1, "start": list(clock.start), "end": list(clock.end)}))
    return 0


class _SetUp:
    """Times SETUP_REPEATS set-ups, each in a fresh process, spread over the run.

    The first set-up runs before the timed phase and its inputs are used;
    the workload calls this object after each timed pass for one more;
    `finish` runs whatever is left.  Each set-up is timed on its own speed
    clock.  A set-up lasts too short a time to see the host at full speed,
    so full speed is the fastest kernel of every clock of the run, the
    timed phase's included.  The fastest wall time of the set-ups moved by
    30% between sets of runs 20 minutes apart.
    """

    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.probes: list[dict] = []
        self()
        probe_dir = os.path.join(workdir, "setup0")
        for name in os.listdir(probe_dir):
            os.replace(os.path.join(probe_dir, name), os.path.join(workdir, name))

    def __call__(self) -> None:
        if len(self.probes) == SETUP_REPEATS:
            return
        probe_dir = os.path.join(self.workdir, f"setup{len(self.probes)}")
        os.makedirs(probe_dir)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", self.args.workload,
             "--seed", str(self.args.seed), "--size", self.args.size,
             "--setup-probe", probe_dir],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        self.probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
        if len(self.probes) > 1:
            shutil.rmtree(probe_dir)

    def finish(self, timed_clock) -> list[float]:
        """Full-speed time of every set-up, in seconds.

        timed_clock is the speed clock of the timed phase, or None.
        """
        import speed

        while len(self.probes) < SETUP_REPEATS:
            self()
        clocks = [] if timed_clock is None else [timed_clock]
        for probe in self.probes:
            clock = speed.SpeedClock()
            clock.start.extend(probe["start"])
            clock.end.extend(probe["end"])
            clocks.append(clock)
        fastest = min(clock.fastest() for clock in clocks)
        return [clock.full_speed(probe["t0"], probe["t1"], fastest)
                for clock, probe in zip(clocks[-len(self.probes):], self.probes)]


def _print_table(title, metrics, counts=None):
    print(title)
    for name, (value, unit) in metrics.items():
        note = f"  (n = {counts[name]})" if counts and name in counts else ""
        print(f"  {name:36s} {value:14.6g} {unit}{note}")


def _listed_metrics(trace: int) -> list[str]:
    """Names of the metrics BENCHMARK.json lists for this kind of run."""
    with open(MANIFEST) as fh:
        manifest = json.load(fh)
    return [m["name"] for m in manifest["per_layer" if trace else "end_to_end"]]


def _run_one(args) -> int:
    _import_package()
    listed = _listed_metrics(args.trace)
    os.makedirs(OUT_ROOT, exist_ok=True)
    workdir = os.path.join(OUT_ROOT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup = _SetUp(args, workdir)
        import checks
        import workloads

        size = workloads.SIZES[args.size]
        result = workloads.run_workload(args.workload, args.seed, size, args.seconds,
                                        args.trace, workdir, checks.load_reference(), setup)
        setup_times = setup.finish(result.clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcome, layers, tracer = result.outcome, result.layers, result.tracer
    metrics = {"setup_s": (statistics.median(setup_times), "s"), **result.metrics}
    counts = {"setup_s": len(setup_times), **result.counts}
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"timed phase {args.seconds:g} s")
    _print_table("end to end (untraced)", metrics, counts)
    print(f"  {'(each set-up, s)':36s} " + " ".join(f"{t:.4g}" for t in setup_times))
    fail_frac = outcome.failed / max(outcome.attempted, 1)
    print(f"  {'fail_frac':36s} {fail_frac:14.6g} ({outcome.failed} of {outcome.attempted})")
    for note in outcome.notes:
        print(f"  FAILED: {note}")
    if layers is not None:
        _print_table(f"per layer (one traced pass, {len(tracer)} spans)", layers, counts)
        spans = os.path.join(OUT_ROOT, f"spans_{args.workload}_seed{args.seed}.csv")
        tracer.write_csv(spans)
        print(f"  spans written to {os.path.relpath(spans, ROOT)}")

    measured = layers if args.trace else metrics
    reported = {name: measured[name] for name in listed if name in measured}
    for name in listed:
        if name not in measured:
            print(f"warning: {name} was not measured", file=sys.stderr)
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 and not lines:
            return done.returncode
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"] and done.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
        print()
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.setup_probe:
            return _probe(args)
        if args.workload == "all":
            return _run_all(args)
        return _run_one(args)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
