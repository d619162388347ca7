"""tools/bench_pairs.py on stub checkouts whose perfbench/run.py prints a
canned result line and logs how it was called."""

import json
import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "bench_pairs.py")

STUB = '''import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open({log!r}, "a") as fh:
    fh.write(json.dumps([{side!r}, args]) + "\\n")
seed = int(args["--seed"])
metrics = {{"setup_s": 0.1, "steps_per_s": {rate} + seed, "peak_rss_mb": 40.0,
            "width_final_mean": 0.3}}
failed = {failed}
print("table")
print(json.dumps({{"correct": not failed, "attempted": 10, "failed": failed,
                  "metrics": {{k: {{"value": v, "unit": "1"}} for k, v in metrics.items()}}}}))
sys.exit(1 if failed else 0)
'''


def stub(root, side, log, rate, failed=0):
    os.makedirs(root / "perfbench")
    (root / "perfbench" / "run.py").write_text(
        STUB.format(log=str(log), side=side, rate=rate, failed=failed))
    return str(root)


def bench_pairs(*args):
    return subprocess.run([sys.executable, TOOL, *args], capture_output=True, text=True,
                          timeout=60)


def test_pairs_alternate_the_first_side_and_share_a_seed(tmp_path):
    log = tmp_path / "calls.jsonl"
    parent = stub(tmp_path / "parent", "parent", log, rate=100.0)
    change = stub(tmp_path / "change", "change", log, rate=120.0)
    done = bench_pairs("--parent", parent, "--change", change, "--workload", "stream_long",
                       "--pairs", "3", "--seed", "41", "--size", "toy", "--seconds", "0.5")
    assert done.returncode == 0, done.stdout + done.stderr
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    assert [side for side, _ in calls] == ["parent", "change", "change", "parent",
                                           "parent", "change"]
    assert [args["--seed"] for _, args in calls] == ["41", "41", "42", "42", "43", "43"]
    assert all(args["--workload"] == "stream_long" and args["--trace"] == "0"
               and args["--size"] == "toy" and args["--seconds"] == "0.5"
               for _, args in calls)
    lines = {line.split()[0]: line for line in done.stdout.splitlines()
             if not line.startswith("pair")}
    # steps_per_s is 100 + seed at the parent and 120 + seed at the change
    assert "parent 142 [141.5, 142.5]" in lines["steps_per_s"]
    assert "change 162 [161.5, 162.5]" in lines["steps_per_s"]
    assert "change won 3 of 3" in lines["steps_per_s"]
    assert "change won 0 of 3" in lines["setup_s"]  # ties are no win


def test_a_failed_run_makes_the_exit_status_nonzero(tmp_path):
    log = tmp_path / "calls.jsonl"
    parent = stub(tmp_path / "parent", "parent", log, rate=100.0)
    change = stub(tmp_path / "change", "change", log, rate=120.0, failed=1)
    done = bench_pairs("--parent", parent, "--change", change, "--workload", "mc_lti",
                       "--pairs", "2")
    assert done.returncode == 1
    assert done.stdout.count("FAILED: pair") == 2
    assert "pair 1 change seed 1: exit status 1, 1 failed checks" in done.stdout


def test_json_out_gathers_each_workloads_summary_and_the_host(tmp_path):
    log = tmp_path / "calls.jsonl"
    parent = stub(tmp_path / "parent", "parent", log, rate=100.0)
    change = stub(tmp_path / "change", "change", log, rate=120.0)
    out = tmp_path / "BENCH.json"
    for workload, pairs in (("stream_long", "3"), ("mc_lti", "2"), ("stream_long", "4")):
        done = bench_pairs("--parent", parent, "--change", change, "--workload", workload,
                           "--pairs", pairs, "--seed", "41", "--json-out", str(out))
        assert done.returncode == 0, done.stdout + done.stderr
    record = json.loads(out.read_text())
    assert set(record["host"]) == {"cores", "python", "numpy"}
    assert record["host"]["python"] == "{}.{}.{}".format(*sys.version_info[:3])
    # a workload run again replaces its entry; the others are kept
    assert set(record["workloads"]) == {"stream_long", "mc_lti"}
    stream = record["workloads"]["stream_long"]
    assert (stream["pairs"], stream["seed"], stream["size"], stream["failures"]) == (
        4, 41, "full", [])
    # steps_per_s is 100 + seed at the parent and 120 + seed at the change
    assert stream["metrics"]["steps_per_s"] == {
        "better": "higher", "pairs": 4, "wins": 4,
        "parent": {"q1": 141.75, "median": 142.5, "q3": 143.25},
        "change": {"q1": 161.75, "median": 162.5, "q3": 163.25}}
    assert stream["metrics"]["setup_s"]["wins"] == 0  # ties are no win
    assert record["workloads"]["mc_lti"]["metrics"]["peak_rss_mb"]["pairs"] == 2
