"""tools/compare_outputs.py: its per-file report, and a run on stub
checkouts whose `ivrls.cli` writes a canned table for every command."""

import importlib.util
import os
import subprocess
import sys

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "compare_outputs.py")
_spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)

STUB = '''import os, sys
args = sys.argv[1:]
out = args[args.index("--out") + 1]
os.makedirs(out, exist_ok=True)
with open(os.path.join(out, "audit.csv"), "w") as fh:
    fh.write({table!r})
print("wrote", out)
sys.exit({status})
'''
TABLE = "run,mode,raw_contained,c_1\n0,m20,1,0.5\n1,m20,1,-0.25\n"


def stub(root, table=TABLE, status=0):
    package = root / "src" / "ivrls"
    os.makedirs(package)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB.format(table=table, status=status))
    return root


def listing(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def run_tool(parent, change):
    # with bytecode writing on, as on a default host: the tool must turn it off
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return subprocess.run([sys.executable, TOOL, "--parent", str(parent), "--change",
                           str(change)], capture_output=True, text=True, timeout=120, env=env)


def test_identical_checkouts_pass_and_nothing_is_written_to_them(tmp_path):
    parent, change = stub(tmp_path / "parent"), stub(tmp_path / "change")
    before = listing(tmp_path)
    proc = run_tool(parent, change)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # a file per command's --out, and each command's exit status and output
    count = 2 * len(compare_outputs.COMMANDS)
    assert lines[-1] == f"{count} outputs compared, 0 differ"
    assert all(line.endswith(": identical") for line in lines[:-1])
    assert "lti/audit.csv: identical" in lines
    assert f"$ {compare_outputs.COMMANDS[0]}: identical" in lines
    assert listing(tmp_path) == before


def test_a_changed_value_flag_or_exit_status_fails_naming_each(tmp_path):
    parent = stub(tmp_path / "parent")
    change = stub(tmp_path / "change", TABLE.replace("0,m20,1,0.5", "0,m20,0,0.5000001"), 1)
    proc = run_tool(parent, change)
    assert proc.returncode == 1
    report = proc.stdout.splitlines()
    at = report.index("lti/audit.csv: differs")
    assert report[at + 1:at + 3] == [
        "  raw_contained: audit flag changed on 1 of 2 rows",
        "  c_1: 1 of 2 rows differ, largest abs diff 1e-07, largest rel diff 2e-07",
    ]
    at = report.index(f"$ {compare_outputs.COMMANDS[0]}: differs")
    assert report[at + 1] == "  text differs from line 1"
    count = 2 * len(compare_outputs.COMMANDS)
    assert report[-1] == f"{count} outputs compared, {count} differ"


@pytest.mark.parametrize("name, parent, change, lines", [
    ("f.csv", "a,b\n1,2\n", "a,b\n1,2\n", []),
    ("f.csv", None, "a\n1\n", ["only in change"]),
    ("f.csv", "a\n1\n", None, ["only in parent"]),
    ("f.txt", "alpha=1\nbeta=2\n", "alpha=1\nbeta=4\n",
     ["beta: 1 of 1 rows differ, largest abs diff 2, largest rel diff 1"]),
    ("f.csv", "t,lo_1\n1,0\n2,1\n", "t,lo_1\n1,0\n2,1\n3,1\n", ["2 rows -> 3 rows"]),
    ("f.csv", "t,lo_1\n1,0\n", "t,hi_1\n1,0\n", ["header t,lo_1 -> t,hi_1"]),
    ("f.csv", "t,c_1\n1,0\n", "t,c_1\n1,1e-300\n",
     ["c_1: 1 of 1 rows differ, largest abs diff 1e-300, largest rel diff inf"]),
    ("f.csv", "t,c_1\n1,nan\n", "t,c_1\n1,1\n",
     ["c_1: 1 of 1 rows differ, largest abs diff inf, largest rel diff inf"]),
    ("f.csv", "t,mode\n1,m20\n", "t,mode\n1,m50\n",
     ["mode: text differs on 1 rows, first 'm20' -> 'm50'"]),
    ("f.csv", "t,c_1\n1,0\n# audit raw_contained=1\n", "t,c_1\n1,0\n# audit raw_contained=0\n",
     ["comment '# audit raw_contained=1' -> '# audit raw_contained=0'"]),
    ("$ run", "exit status 0\nok\n", "exit status 0\nno\n", ["text differs from line 2"]),
    ("f.csv", "t,c\n1\n", "t,c\n1,2\n", ["text differs from line 2"]),  # ragged: no table
    ("f.csv", "t,c_1\n1,-0\n", "t,c_1\n1,0\n",
     ["c_1: 1 of 1 rows differ, largest abs diff 0, largest rel diff 0"]),
    ("f.csv", "t,c_1\n1,0\n", "t,c_1\r\n1,0\r\n",
     ["differs in layout only (line endings or blank lines)"]),
])
def test_each_file_is_reported_identical_or_by_what_changed(name, parent, change, lines):
    assert compare_outputs.compare(name, parent, change) == lines
