"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload learn_noisy --seed 1 --seconds 36 --trace 0

One client drives the package in a closed loop from this single-threaded
process. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs each round untraced and then traced, and reports per-layer self times and
counts, plus the tracing overhead. Every line but the last is for people; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results and the span dump go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("learn_noisy", "plan_scenes", "execute_faults")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer self time per operation: metric -> the spans it sums.
LAYER_TIMES = {
    "traces.load_s": ("traces.load",),
    "traces.debounce_s": ("traces.debounce",),
    "segmentation.segment_s": ("segmentation.segment",),
    "learning.extract_s": ("learning.extract",),
    "learning.lift_s": ("learning.lift",),
    "learning.canonical_key_s": ("learning.canonical_key",),
    "learning.merge_s": ("learning.merge",),
    "learning.variant_names_s": ("learning.variant_names",),
    "learning.library_load_s": ("learning.library_load",),
    "learning.library_save_s": ("learning.library_save",),
    # derive_costs only supplies the costs that the domain file carries.
    "pddl.emit_s": ("planner.derive_costs", "pddl.emit_domain", "pddl.emit_problem"),
    "pddl.parse_s": ("pddl.library_name_map", "pddl.parse_domain", "pddl.parse_problem"),
    "planner.ground_s": ("planner.ground",),
    "planner.plan_none_s": ("planner.plan_none",),
    "planner.plan_hmax_s": ("planner.plan_hmax",),
    "planner.validate_s": ("planner.validate",),
    "monitor.execute_s": ("monitor.execute",),
}
# Per-layer counts, averaged per operation.
LAYER_COUNTS = (
    "traces.frames",
    "segmentation.segments",
    "learning.operators_added",
    "learning.operators_reobserved",
    "pddl.domain_bytes",
    "planner.grounded_actions",
    "planner.plan_steps",
    "planner.plan_cost",
    "monitor.steps",
    "monitor.replans",
)
# Ratios of two summed counts: (numerator, denominator).
LAYER_RATIOS = {
    "learning.merged_ratio": ("learning.operators_reobserved", "segmentation.segments"),
    "monitor.useful_step_ratio": ("monitor.useful_steps", "monitor.steps"),
}

PER_LAYER = {name: "s" for name in LAYER_TIMES}
PER_LAYER.update({name: "count" for name in LAYER_COUNTS})
PER_LAYER["pddl.domain_bytes"] = "B"
PER_LAYER.update({name: "ratio" for name in LAYER_RATIOS})
PER_LAYER["tracing.overhead_pct"] = "%"


def _commit() -> str:
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Samples:
    """Timed operations of one pass, traced or untraced."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.outcomes: list = []

    def add(self, seconds: float, outcome) -> None:
        self.seconds.append(seconds)
        self.outcomes.append(outcome)

    def ops_per_s(self) -> float:
        return len(self.seconds) / sum(self.seconds)

    def total(self, count: str) -> float:
        return sum(o.counts.get(count, 0) for o in self.outcomes)


def measure(workloads, name: str, seed: int, seconds: float, trace: bool, sizes, workdir: Path):
    """Set up at least ``sizes.setup_repeats`` times and
    ``sizes.setup_seconds`` in all, then run whole rounds for about
    ``seconds``. With ``trace``, each round runs twice on the same inputs,
    untraced and then traced, so the two passes compare like with like.

    Returns set-up times, set-up failures, untraced and traced samples, the
    tracer, and the time origin of its spans.
    """
    from tracing import NullTracer, Tracer

    cls = workloads.WORKLOADS[name]
    setup_times: list[float] = []
    while len(setup_times) < sizes.setup_repeats or sum(setup_times) < sizes.setup_seconds:
        started = perf_counter()
        workload = cls(seed, sizes, workdir)
        setup_times.append(perf_counter() - started)
    setup_failures = workload.setup_failures(seed)

    rng = random.Random(f"{seed}/rounds")
    passes = [(NullTracer(), Samples())]
    tracer = Tracer()
    if trace:
        passes.append((tracer, Samples()))
    op_id = 0
    index = 0
    loop_start = perf_counter()
    while True:
        round_start = perf_counter()
        state = rng.getstate()
        for tr, into in passes:
            rng.setstate(state)
            for inp in workload.round_inputs(index, rng):
                tr.begin_op(op_id)
                op_id += 1
                into.add(*_timed_op(workloads, workload, inp, tr))
        index += 1
        now = perf_counter()
        # Stop before a round that would not fit in the time left.
        if (now - loop_start) + (now - round_start) > seconds:
            break
    plain = passes[0][1]
    traced = passes[1][1] if trace else Samples()
    return setup_times, setup_failures, plain, traced, tracer, loop_start


def _timed_op(workloads, workload, inp, tr):
    """Run one operation; time it, then check its output outside the timing."""
    started = perf_counter()
    try:
        with tr.span("op"):
            result = workload.run(inp, tr)
    except Exception as exc:  # a crash in the package is a failed operation
        elapsed = perf_counter() - started
        return elapsed, workloads.Outcome(error=f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - started
    try:
        outcome = workload.check(inp, result)
    except Exception as exc:  # so is output too malformed to check
        outcome = workloads.Outcome(error=f"check raised {type(exc).__name__}: {exc}")
    return elapsed, outcome


def end_to_end_metrics(setup_times: list[float], plain: Samples) -> dict:
    ms = [s * 1000.0 for s in plain.seconds]
    n = len(ms)
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "ops_per_s": (plain.ops_per_s(), n),
        "op_p50_ms": (statistics.median(ms), n),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8] if n > 1 else ms[0], n),
        "peak_rss_mb": (_peak_rss_mb(), 1),
    }


def per_layer_metrics(plain: Samples, traced: Samples, tracer) -> dict:
    n = len(traced.seconds)
    self_times = tracer.self_times()
    metrics = {}
    for name, spans in LAYER_TIMES.items():
        metrics[name] = (sum(self_times.get(span, 0.0) for span in spans) / n, n)
    for name in LAYER_COUNTS:
        metrics[name] = (traced.total(name) / n, n)
    for name, (num, den) in LAYER_RATIOS.items():
        total = traced.total(den)
        metrics[name] = (traced.total(num) / total if total else 0.0, n)
    untraced = plain.ops_per_s()
    metrics["tracing.overhead_pct"] = (
        100.0 * (untraced - traced.ops_per_s()) / untraced,
        len(plain.seconds) + n,
    )
    return metrics


def main(argv=None, sizes=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (ROOT / "src" / "demoplan" / "__init__.py", ROOT / "tests" / "oracles.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from a demoplan checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT / "tests"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    sizes = sizes or workloads.FULL
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_times, setup_failures, plain, traced, tracer, origin = measure(
            workloads, args.workload, args.seed, args.seconds, bool(args.trace), sizes, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = plain.outcomes + traced.outcomes
    attempted = len(everything)
    errors = [o.error for o in everything if o.error is not None]
    correct = not errors and not setup_failures
    e2e = end_to_end_metrics(setup_times, plain)
    info = {"error_rate": (len(errors) / attempted, attempted)}
    if args.workload == "learn_noisy":
        frames = plain.total("traces.frames")
        info["frames_per_s"] = (frames / sum(plain.seconds), len(plain.seconds))
    layers = per_layer_metrics(plain, traced, tracer) if args.trace else {}

    units = dict(END_TO_END, **PER_LAYER, error_rate="ratio", frames_per_s="1/s")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": _nproc(),
        "commit": _commit(),
        "correct": correct,
        "attempted": attempted,
        "failed": len(errors),
        "setup_failures": setup_failures,
        "failures": errors[:20],
        "metrics": {
            name: {"value": value, "unit": units[name], "samples": count}
            for name, (value, count) in {**e2e, **info, **layers}.items()
        },
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        tracer.dump(OUT_DIR / f"{stem}-spans.json", origin)

    print(
        f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"python={record['python']} nproc={record['nproc']} commit={record['commit']}"
    )
    for name, entry in record["metrics"].items():
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']:6s} n={entry['samples']}")
    for message in setup_failures + errors[:5]:
        print(f"FAILED: {message}")
    shown = layers if args.trace else e2e
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(errors),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, (value, _) in shown.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
