"""Run alternating benchmark pairs of two revisions and summarise them.

Usage, from the repository root:

    python3 tools/pairs.py PARENT CHANGE --workload execute_faults --pairs 10 \\
        --seconds 36 --seed 2701 --out pairs.json
    python3 tools/pairs.py REV --same --workload execute_faults --pairs 10 \\
        --seconds 36 --seed 2801

Each side is exported with ``git archive`` into its own temporary directory,
so no worktree and no ``.git`` state is touched; ``--same`` exports one
revision twice, for an A/A run that measures the noise floor. Pair i runs
``bench/run.py`` on both sides with seed SEED + i, one process after the
other, and the side that runs first alternates between pairs. The result is
one JSON object, the ``committed_code`` shape of the ``BENCH_*.json`` files:
per metric, each side's values, medians and quartiles, the paired ratios
change / parent, the pairs the change was better in (ties count for neither)
and an exact two-sided sign test over the pairs that were not tied. Whether
higher or lower is better comes from ``BENCHMARK.json``. Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(revision: str, into: Path) -> Path:
    """The files of ``revision``, extracted into the new directory ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, capture_output=True, check=True
    ).stdout
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into


def bench_run(directory: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``bench/run.py`` process in ``directory``: its last output line."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=directory, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pairs(directories: dict, workload: str, pairs: int, seconds: float, seed: int,
              trace: int, run=bench_run) -> dict:
    """Each side's run results in pair order, with the seeds and first sides."""
    results: dict[str, list] = {side: [] for side in SIDES}
    seeds, first = [seed + i for i in range(pairs)], []
    for i, pair_seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            results[side].append(run(directories[side], workload, pair_seed, seconds, trace))
            print(f"pair {i + 1}/{pairs} {side} seed {pair_seed} done", file=sys.stderr, flush=True)
    return {"seeds": seeds, "first_in_pair": first, "results": results}


def sign_test(better: int, worse: int) -> float:
    """The exact two-sided sign test's p-value for ``better`` against ``worse``."""
    n = better + worse
    tail = sum(math.comb(n, k) for k in range(min(better, worse) + 1))
    return min(1.0, 2 * tail / 2**n)


def quartiles(values: list) -> list:
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarise(workload: str, seconds: float, trace: int, runs: dict, directions: dict) -> dict:
    """The ``committed_code`` block of one workload's pairs; ``directions`` maps
    each metric to "lower" or "higher", whichever is better."""
    results = runs["results"]
    pairs = len(runs["seeds"])
    block = {
        "pairs": pairs,
        "seconds": seconds,
        "trace": trace,
        "seeds": runs["seeds"],
        "first_in_pair": runs["first_in_pair"],
        "failed_over_attempted": {
            side: f"{sum(r['failed'] for r in results[side])}/"
                  f"{sum(r['attempted'] for r in results[side])}"
            for side in SIDES
        },
        "correct": all(r["correct"] for side in SIDES for r in results[side]),
        "metrics": {},
    }
    measured = set.intersection(*(set(r["metrics"]) for side in SIDES for r in results[side]))
    for metric in [m for m in directions if m in measured]:
        values = {side: [round(r["metrics"][metric]["value"], 6) for r in results[side]]
                  for side in SIDES}
        ratios = [round(c / p, 3) if p else None for p, c in zip(values["parent"], values["change"])]
        sign = 1 if directions[metric] == "higher" else -1
        better = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        worse = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        entry = {**values}
        for side in SIDES:
            entry[f"{side}_median"] = round(statistics.median(values[side]), 6)
        known = [r for r in ratios if r is not None]
        entry["paired_ratio_median"] = round(statistics.median(known), 4) if known else None
        entry["paired_ratios"] = ratios
        entry["change_better_pairs"] = f"{better}/{pairs}"
        entry["change_worse_pairs"] = f"{worse}/{pairs}"
        entry["sign_test_p"] = round(sign_test(better, worse), 6)
        if pairs > 1:
            entry["parent_quartiles"] = quartiles(values["parent"])
            entry["parent_iqr"] = round(entry["parent_quartiles"][2] - entry["parent_quartiles"][0], 6)
            entry["change_quartiles"] = quartiles(values["change"])
        block["metrics"][metric] = entry
    return block


def metric_directions() -> dict:
    """Metric name -> "lower" or "higher", from ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in declared["end_to_end"] + declared["per_layer"]}


def main(argv=None, run=bench_run) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revisions", nargs="+", help="PARENT CHANGE, or one REV with --same")
    parser.add_argument("--same", action="store_true", help="run one revision against itself")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True, help="the first pair's seed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the JSON here instead of to stdout")
    args = parser.parse_args(argv)
    if len(args.revisions) != (1 if args.same else 2) or args.pairs < 1:
        parser.error("give PARENT and CHANGE, or one revision with --same, and at least one pair")
    revisions = args.revisions * 2 if args.same else args.revisions
    commits = [
        subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                       capture_output=True, text=True, check=True).stdout.strip()
        for rev in revisions
    ]
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        directories = {side: export(commit, Path(scratch) / side)
                       for side, commit in zip(SIDES, commits)}
        runs = run_pairs(directories, args.workload, args.pairs, args.seconds, args.seed,
                         args.trace, run)
    block = summarise(args.workload, args.seconds, args.trace, runs, metric_directions())
    block = {"commits": dict(zip(SIDES, commits)), "same": args.same, **block}
    text = json.dumps({args.workload: block}, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
