"""The calls a tracer reroutes by replacing module attributes.

An outside tracer or profiler may replace these names with plain
pass-through functions.  A study must still go through each of them, as
often as stated here, and write the same files as without them.  Inside
`ivrls.lti`, `IntervalVector` may be such a function, so the package
only calls it there.
"""

import os

import pytest

import ivrls.experiment
import ivrls.lti
from ivrls.cli import main

HOOKED = (
    (ivrls.lti, "IntervalVector"),
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

    counts = {name: 0 for _, name in HOOKED}

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for owner, name in HOOKED:
        monkeypatch.setattr(owner, name, counting(getattr(owner, name), name))
    assert main(argv + ["--out", str(tmp_path / "wrapped")]) == 0
    capsys.readouterr()

    assert counts == {
        "run_dataset": runs,
        "step": runs * N * modes,
        "rls_step": runs * N,
        # the prior box of each run; a step builds no box objects
        "from_center_radius": runs,
        "IntervalVector": 0,
    }
    plain = read_tree(tmp_path / "plain")
    assert len(plain) == runs + modes + 1  # datasets, averages, audit
    assert read_tree(tmp_path / "wrapped") == plain
