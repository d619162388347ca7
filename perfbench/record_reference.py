"""Record the outputs that later runs of the benchmark must reproduce.

    python3 perfbench/record_reference.py 0 1 2 3 4

runs every workload once per seed at full size and writes, per workload
and seed, the estimate boxes at six checkpoints plus a few scalars
(final width, PE certificates) to perfbench/reference.json.  Record them
on the commit whose outputs are the reference; a run of the benchmark on
a stored seed then fails if its boxes differ by more than
checks.REFERENCE_RTOL.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from dataclasses import asdict

import run


def main(argv) -> int:
    seeds = [int(s) for s in argv] or [0]
    run._import_package()
    import checks
    import workloads

    size = workloads.SIZES["full"]
    reference = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            workdir = os.path.join(run.OUT_ROOT, f"reference-{workload}-{seed}")
            os.makedirs(workdir)
            try:
                workloads.setup_inputs(workload, seed, size, workdir)
                result = workloads.run_workload(workload, seed, size, 0, 0, workdir, {})
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if result.outcome.failed:
                print(f"{workload} seed {seed}: checks failed, nothing recorded",
                      *result.outcome.notes, sep="\n  ", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = {
                "size": asdict(size), **result.observed}
            print(f"{workload} seed {seed}: recorded")
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
