"""tools/pairs.py: the alternation of sides and the statistics of a pair run,
with a stub in place of the 36 s benchmark process."""

import importlib.util
import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _record(ops, p90, failed=0, attempted=100):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                        "op_p90_ms": {"value": p90, "unit": "ms"}}}


def test_sign_test_is_the_exact_binomial_tail():
    assert pairs.sign_test(10, 0) == pairs.sign_test(0, 10) == 2 / 1024
    assert pairs.sign_test(9, 1) == 2 * 11 / 1024
    assert pairs.sign_test(5, 5) == pairs.sign_test(0, 0) == 1.0
    for better in range(13):
        worse = 12 - better
        tail = sum(math.comb(12, k) for k in range(13) if k <= min(better, worse))
        assert pairs.sign_test(better, worse) == min(1.0, tail / 2**11)


def test_sides_alternate_and_share_each_pairs_seed():
    calls = []

    def stub(directory, workload, seed, seconds, trace):
        calls.append((directory, workload, seed, seconds, trace))
        return _record(1.0, 1.0)

    runs = pairs.run_pairs({"parent": "P", "change": "C"}, "execute_faults", 4, 36.0, 2701, 0, stub)
    assert [c[0] for c in calls] == ["P", "C", "C", "P", "P", "C", "C", "P"]
    assert [c[2] for c in calls] == [2701, 2701, 2702, 2702, 2703, 2703, 2704, 2704]
    assert {(c[1], c[3], c[4]) for c in calls} == {("execute_faults", 36.0, 0)}
    assert runs["seeds"] == [2701, 2702, 2703, 2704]
    assert runs["first_in_pair"] == ["parent", "change", "parent", "change"]
    assert [len(runs["results"][side]) for side in pairs.SIDES] == [4, 4]


def test_summary_counts_better_pairs_by_each_metrics_direction():
    parent = [_record(10, 100), _record(20, 90), _record(30, 80, failed=1), _record(40, 70)]
    change = [_record(11, 50), _record(20, 95), _record(29, 40), _record(44, 35)]
    runs = {"seeds": [1, 2, 3, 4], "first_in_pair": ["parent", "change"] * 2,
            "results": {"parent": parent, "change": change}}
    block = pairs.summarise("w", 36.0, 0, runs, {"ops_per_s": "higher", "op_p90_ms": "lower",
                                                 "setup_s": "lower"})
    assert block["failed_over_attempted"] == {"parent": "1/400", "change": "0/400"}
    assert block["correct"] is False
    assert list(block["metrics"]) == ["ops_per_s", "op_p90_ms"]  # setup_s was not measured
    ops, p90 = block["metrics"]["ops_per_s"], block["metrics"]["op_p90_ms"]
    assert ops["change_better_pairs"] == "2/4" and ops["change_worse_pairs"] == "1/4"  # one tie
    assert ops["sign_test_p"] == 1.0
    assert p90["change_better_pairs"] == "3/4" and p90["change_worse_pairs"] == "1/4"
    assert p90["paired_ratios"] == [0.5, 1.056, 0.5, 0.5]
    assert p90["paired_ratio_median"] == 0.5
    assert p90["parent_median"] == 85 and p90["change_median"] == 45
    assert p90["parent_quartiles"] == [77.5, 85, 92.5] and p90["parent_iqr"] == 15
    assert p90["parent"] == [100, 90, 80, 70] and p90["change"] == [50, 95, 40, 35]


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs a git checkout to export from")
def test_same_exports_one_revision_twice(tmp_path):
    seen = []

    def stub(directory, workload, seed, seconds, trace):
        seen.append(Path(directory))
        assert (Path(directory) / "bench" / "run.py").is_file()
        return _record(50.0 + seed, 10.0)

    out = tmp_path / "aa.json"
    assert pairs.main(["HEAD", "--same", "--workload", "plan_scenes", "--pairs", "2",
                       "--seconds", "1", "--seed", "7", "--out", str(out)], run=stub) == 0
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()
    block = json.loads(out.read_text())["plan_scenes"]
    assert block["commits"] == {"parent": head, "change": head} and block["same"] is True
    assert block["seeds"] == [7, 8] and block["metrics"]["ops_per_s"]["paired_ratios"] == [1.0, 1.0]
    assert len(set(seen)) == 2 and not any(d.exists() for d in seen)  # two exports, removed after
