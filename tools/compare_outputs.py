"""Compare what two checkouts' command lines write, file by file.

Runs one fixed list of `ivrls` commands with each checkout's package
(`python -m ivrls.cli` on PYTHONPATH=<checkout>/src), each side in a
temporary directory of its own, so neither checkout is written to.  The
list covers every subcommand: the two studies with their datasets, with
refinement off, with two workers and with other modes and horizon; the
estimator on a constant and a drifting dataset; the excitation report;
a forgetting-factor sweep; a 3000-sample log and its estimates, whose
constant columns (noise bounds, true parameter, and the refined box over
most 128-row chunks) exercise the CSV writer's once-per-chunk formatting;
a 3000-sample drifting log, whose drift boxes are constant columns too;
and a log with one output lag and three input lags, whose regressor
columns are lags of one another as in every ARX log, which the writer
formats once and shifts down one row.
Later commands read the datasets the earlier ones wrote on the same side.

Every file either side wrote is compared, and so is each command's exit
status, stdout and stderr (as the pseudo-file `$ <command>`, with the
checkout's path masked).  A file is reported identical, or per column
with the largest absolute and relative difference; a changed `*_contained`
flag is counted by rows, and changed comment lines (the estimator's audit
summary) are shown.  Exits 1 on any difference.

    python tools/compare_outputs.py --parent ../parent --change .
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import tempfile

DATA = ("lti/dataset_run000.csv", "ltv/dataset_run000.csv", "long/dataset_run000.csv")
COMMANDS = (
    "simulate-lti --seed 3 --runs 20 --out lti --write-datasets",
    "simulate-lti --seed 3 --runs 20 --out lti_plain --monotonic false",
    "simulate-lti --seed 3 --runs 20 --out lti_workers --workers 2",
    "simulate-ltv --seed 5 --out ltv --write-datasets",
    "simulate-ltv --seed 5 --out ltv_modes --modes 2,7,exact --horizon 300",
    f"estimate --in {DATA[0]} --out est_m20 --m 20",
    f"estimate --in {DATA[0]} --out est_exact --m exact",
    f"estimate --in {DATA[0]} --out est_m20_plain --m 20 --monotonic false",
    f"estimate --in {DATA[1]} --out est_ltv --m 5 --lambda 0.1",
    f"analyze-pe --in {DATA[0]} --out pe",
    f"analyze-pe --in {DATA[0]} --out pe_window --window 12",
    f"analyze-pe --in {DATA[1]} --out pe_ltv",
    "sweep-lambda --seed 3 --out sweep --lambdas 0.5,0.9,0.99",
    "simulate-lti --seed 3 --runs 1 --horizon 3000 --modes 50 --out long --write-datasets",
    f"estimate --in {DATA[2]} --out est_long --m 50",
    "simulate-ltv --seed 5 --runs 1 --horizon 3000 --modes 5 --out long_ltv --write-datasets",
    "simulate-lti --seed 3 --runs 1 --horizon 1000 --na 1 --nb 3 --theta-true=-0.5,1,0.5,0.25"
    " --modes 50 --out lags --write-datasets",
)


def run_side(checkout: str, workdir: str) -> dict:
    """Run COMMANDS with `checkout`'s package in `workdir`: {name: text} of
    every file written there and of each command's `$ <command>` record."""
    checkout = os.path.abspath(checkout)
    # no __pycache__ is written into the checkout either
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"), PYTHONDONTWRITEBYTECODE="1")
    outputs = {}
    for command in COMMANDS:
        proc = subprocess.run([sys.executable, "-m", "ivrls.cli", *command.split()],
                              cwd=workdir, env=env, capture_output=True, text=True)
        stderr = proc.stderr.replace(checkout, "<checkout>")
        outputs[f"$ {command}"] = (f"exit status {proc.returncode}\n--- stdout\n"
                                   f"{proc.stdout}--- stderr\n{stderr}")
    for root, _, names in os.walk(workdir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, newline="") as fh:
                outputs[os.path.relpath(path, workdir)] = fh.read()
    return outputs


def _table(name: str, text: str):
    """(header, rows, comments) of a CSV file, or of a file of key=value
    lines as a one-row table; None for any other text or a ragged CSV."""
    lines = [line for line in text.splitlines() if line]
    if not name.endswith(".csv"):
        if not lines or not all("=" in line for line in lines):
            return None
        keys, values = zip(*(line.split("=", 1) for line in lines))
        return list(keys), [list(values)], []
    comments = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    if not body or len({len(row) for row in body}) != 1:
        return None
    return body[0], body[1:], comments


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _column_diff(name: str, parent: list[str], change: list[str]) -> str | None:
    """One line on how a column changed, or None if it did not."""
    pairs = [(a, b) for a, b in zip(parent, change) if a != b]
    if not pairs:
        return None
    if name.endswith("_contained"):
        return f"{name}: audit flag changed on {len(pairs)} of {len(parent)} rows"
    numbers = [(_float(a), _float(b)) for a, b in pairs]
    if any(a is None or b is None for a, b in numbers):
        return f"{name}: text differs on {len(pairs)} rows, first {pairs[0][0]!r} -> {pairs[0][1]!r}"
    worst_abs = worst_rel = 0.0
    for a, b in numbers:
        diff = abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf
        worst_abs = max(worst_abs, diff)
        scale = abs(a) if 0 < abs(a) < math.inf else 0.0
        worst_rel = max(worst_rel, diff / scale if scale else 0.0 if diff == 0 else math.inf)
    return (f"{name}: {len(pairs)} of {len(parent)} rows differ, largest abs diff "
            f"{worst_abs:.3g}, largest rel diff {worst_rel:.3g}")


def compare(name: str, parent: str | None, change: str | None) -> list[str]:
    """The differences of one file, one line each; empty if identical."""
    if parent == change:
        return []
    if parent is None or change is None:
        return [f"only in {'change' if parent is None else 'parent'}"]
    tables = _table(name, parent), _table(name, change)
    if None in tables:
        first = next(i for i, (a, b) in enumerate(zip(parent.splitlines() + [""],
                                                      change.splitlines() + [""])) if a != b)
        return [f"text differs from line {first + 1}"]
    (head_a, rows_a, notes_a), (head_b, rows_b, notes_b) = tables
    lines = []
    if head_a != head_b:
        lines.append(f"header {','.join(head_a)} -> {','.join(head_b)}")
    if len(rows_a) != len(rows_b):
        lines.append(f"{len(rows_a)} rows -> {len(rows_b)} rows")
    for j, column in enumerate(head_a):
        if column in head_b:
            k = head_b.index(column)
            line = _column_diff(column, [r[j] for r in rows_a], [r[k] for r in rows_b])
            lines += [line] if line else []
    lines += [f"comment {a!r} -> {b!r}" for a, b in zip(notes_a, notes_b) if a != b]
    if len(notes_a) != len(notes_b):
        lines.append(f"{len(notes_a)} comment lines -> {len(notes_b)}")
    return lines or ["differs in layout only (line endings or blank lines)"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout to compare against")
    parser.add_argument("--change", required=True, help="checkout under test")
    args = parser.parse_args(argv)
    sides = []
    for checkout in (args.parent, args.change):
        with tempfile.TemporaryDirectory(prefix="compare_outputs_") as workdir:
            sides.append(run_side(checkout, workdir))
    parent, change = sides
    differing = 0
    for name in sorted(set(parent) | set(change)):
        lines = compare(name, parent.get(name), change.get(name))
        print(f"{name}: {'differs' if lines else 'identical'}")
        for line in lines:
            print(f"  {line}")
        differing += bool(lines)
    print(f"{len(set(parent) | set(change))} outputs compared, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
