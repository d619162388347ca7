"""The calls a tracer reroutes by replacing module attributes.

An outside tracer or profiler may replace these names with plain
pass-through functions.  A study must still go through each of them, as
often as stated here, and write the same files as without them.  Inside
`ivrls.lti`, `IntervalVector` may be such a function, so the package
only calls it there.  `ivrls.experiment` builds one drift box per run of
equal drift rows, so one per drifting study run.
"""

import os

import pytest

import ivrls.experiment
import ivrls.lti
from ivrls.cli import main

HOOKED = (
    (ivrls.lti, "IntervalVector"),
    (ivrls.experiment, "IntervalVector"),
    (ivrls.lti, "rls_step"),
    (ivrls.lti.LtiIntervalEstimator, "step"),
    (ivrls.experiment, "run_dataset"),
    (ivrls.experiment, "from_center_radius"),
)


def read_tree(root):
    files = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            files[name] = fh.read()
    return files


@pytest.mark.parametrize("command, modes", [("simulate-lti", 3), ("simulate-ltv", 2)])
def test_studies_call_every_hooked_name_as_often_as_stated(command, modes, tmp_path,
                                                            monkeypatch, capsys):
    runs, N = 3, 25
    argv = [command, "--seed", "9", "--runs", str(runs), "--horizon", str(N),
            "--workers", "1", "--write-datasets"]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0

    counts = {f"{owner.__name__}.{name}": 0 for owner, name in HOOKED}

    def counting(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in HOOKED:
        key = f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), key))
    assert main(argv + ["--out", str(tmp_path / "wrapped")]) == 0
    capsys.readouterr()

    assert counts == {
        "ivrls.experiment.run_dataset": runs,
        "LtiIntervalEstimator.step": runs * N * modes,
        "ivrls.lti.rls_step": runs * N,
        # the prior box of each run; a step builds no box objects
        "ivrls.experiment.from_center_radius": runs,
        "ivrls.lti.IntervalVector": 0,
        # a generated drift box is the same at every step: one per run
        "ivrls.experiment.IntervalVector": runs if command == "simulate-ltv" else 0,
    }
    plain = read_tree(tmp_path / "plain")
    assert len(plain) == runs + modes + 1  # datasets, averages, audit
    assert read_tree(tmp_path / "wrapped") == plain
