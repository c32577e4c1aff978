"""Extension bench: multi-core analysis through the process executor.

Measures the one fan-out whose work is long enough to pay for worker
processes: a multi-fact frequency sweep over every traced function of
the perl-like workload (several seconds of backward propagation),
serial (``jobs=1``) against
:func:`repro.analysis.frequency.fact_frequencies_many` at ``jobs=2``.
The fanned-out time includes starting the executor's workers: a
per-call :class:`concurrent.futures.ProcessPoolExecutor` (see
:mod:`repro.analysis.parallel`) is the cost every ``analyze -j 2`` pays.

Reports are checked exactly identical to serial (entries, per-block
``queries_issued`` and the memo-dependent ``total_queries``), and the
``analysis.parallel_fallback`` counter must stay at zero, so a gate
can only pass on processes that really ran.

The gates auto-scale to the runner: ``jobs=2 >= 1.3x`` needs two real
CPUs, and on machines exposing >= 4 cores the sweep runs again at
``jobs=4`` gated at >= 2.0x (:func:`repro.bench.workbench.cpu_guard`
records the skip in the emitted JSON on smaller machines).

Results land in ``BENCH_parallel.json`` (schema
``repro.bench_parallel/3``).  Runs two ways::

    pytest benchmarks/bench_parallel.py            # bench suite
    python benchmarks/bench_parallel.py --smoke    # CI smoke (no gate)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.analysis.facts import ExpressionAvailable, LoadAvailable, VarHasDefinition
from repro.analysis.frequency import fact_frequencies_many
from repro.bench.workbench import bench_scale, build_artifacts, cpu_guard
from repro.compact.qserve import QueryEngine
from repro.obs import MetricsRegistry

BENCH_SCHEMA = "repro.bench_parallel/3"
MIN_SPEEDUP = 1.3
#: The auto-scaled leg: with >= 4 exposed cores the same sweep runs at
#: jobs=4 and must reach this speedup.
JOBS4 = 4
MIN_SPEEDUP_JOBS4 = 2.0

#: Facts for the analysis sweep: several independent passes over the
#: same hot traces, so even a workload dominated by one function still
#: exposes task-level parallelism.
ANALYSIS_FACTS = (
    VarHasDefinition("__bench_never_defined__"),
    LoadAvailable(0x1000),
    ExpressionAvailable(("a", "b")),
    VarHasDefinition("i"),
)


def _canon_report(report):
    return (
        report.fact,
        report.total_queries,
        {
            bid: (e.executions, e.holds, e.fails, e.unresolved, e.queries_issued)
            for bid, e in report.entries.items()
        },
    )


def _analysis_tasks(art):
    prog = art.program
    tasks = []
    with QueryEngine(art.twpp_path) as engine:
        for name in art.traced_function_names():
            func = prog.function(name)
            for trace in engine.traces(name):
                for fact in ANALYSIS_FACTS:
                    tasks.append((func, trace, fact))
    return tasks


def _bench_analysis(tasks, serial, jobs1_ms, jobs):
    """One fanned-out sweep, executor start-up included."""
    metrics = MetricsRegistry()
    t0 = time.perf_counter()
    fanned = fact_frequencies_many(tasks, jobs=jobs, metrics=metrics)
    fanned_ms = (time.perf_counter() - t0) * 1000.0
    return {
        "tasks": len(tasks),
        "facts": len(ANALYSIS_FACTS),
        "jobs": jobs,
        "jobs1_ms": round(jobs1_ms, 1),
        "executor_ms": round(fanned_ms, 1),
        "speedup": round(jobs1_ms / fanned_ms, 2) if fanned_ms else None,
        "shards": metrics.counter("analysis.shards"),
        "fallback": metrics.counter("analysis.parallel_fallback"),
        "identical_to_serial": [_canon_report(r) for r in serial]
        == [_canon_report(r) for r in fanned],
    }


def run_bench(scale=1.0, smoke=False, out_dir=None):
    """The jobs 1-vs-2 (and, given the cores, 1-vs-4) sweep; returns
    the JSON document."""
    art = build_artifacts(
        "perl-like",
        scale=min(scale, 0.25) if smoke else scale,
        out_dir=out_dir,
        with_sequitur=False,
    )
    tasks = _analysis_tasks(art)
    guard = cpu_guard(2)

    t0 = time.perf_counter()
    serial = fact_frequencies_many(tasks)
    jobs1_ms = (time.perf_counter() - t0) * 1000.0
    analysis = _bench_analysis(tasks, serial, jobs1_ms, 2)

    guard4 = cpu_guard(JOBS4)
    if guard4 is None and not smoke:
        jobs4 = {"analysis": _bench_analysis(tasks, serial, jobs1_ms, JOBS4)}
    else:
        jobs4 = {"skipped": guard4 or "smoke"}

    return {
        "schema": BENCH_SCHEMA,
        "unix_time": round(time.time(), 3),
        "smoke": smoke,
        "workload": art.name,
        "scale": art.spec.scale,
        "events": len(art.wpp),
        "functions": len(art.partitioned.func_names),
        "cpus": os.cpu_count(),
        "cpu_guard": guard,
        "analysis": analysis,
        "jobs4": jobs4,
        "gate": {
            "min_speedup": MIN_SPEEDUP,
            "enforced": guard is None and not smoke,
            "skipped": guard,
            "jobs4": {
                "min_speedup": MIN_SPEEDUP_JOBS4,
                "enforced": "skipped" not in jobs4,
                "skipped": jobs4.get("skipped"),
            },
        },
    }


def check_doc(doc):
    """Every assertion the bench/CI gate makes; returns error strings."""
    errors = []
    legs = [("jobs=2", doc["analysis"], doc["gate"])]
    if doc["gate"]["jobs4"]["enforced"]:
        legs.append(("jobs=4", doc["jobs4"]["analysis"], doc["gate"]["jobs4"]))
    for label, leg, gate in legs:
        if not leg["identical_to_serial"]:
            errors.append(f"{label} analysis diverged from serial")
        if leg["fallback"]:
            errors.append(f"{label} executor fell back to serial")
        if gate["enforced"] and (
            leg["speedup"] is None or leg["speedup"] < gate["min_speedup"]
        ):
            errors.append(
                f"analysis {label} speedup {leg['speedup']} below "
                f"{gate['min_speedup']}x"
            )
    return errors


def write_doc(doc, out_path):
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# pytest entry point (bench suite)


def test_parallel_analysis_scaling(results_dir, tmp_path):
    """jobs=2 matches serial exactly; beats it >= 1.3x given >= 2 CPUs."""
    doc = run_bench(scale=max(1.0, bench_scale()), out_dir=tmp_path)
    out = write_doc(doc, Path(results_dir) / "BENCH_parallel.json")
    print(f"\nwrote {out}")
    print(
        f"analysis x{doc['analysis']['speedup']} "
        f"(gate {'on' if doc['gate']['enforced'] else 'skipped'})"
    )
    errors = check_doc(doc)
    assert not errors, errors


# ---------------------------------------------------------------------------
# standalone entry point (CI gate)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="jobs 1-vs-2 scaling of the analysis process executor"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small workload, identity checks only")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (default: REPRO_BENCH_SCALE)")
    parser.add_argument("--out", default=None,
                        help="output path (default results/BENCH_parallel.json)")
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else max(1.0, bench_scale())
    doc = run_bench(scale=scale, smoke=args.smoke)
    default_out = (
        Path(__file__).resolve().parent.parent
        / "results"
        / "BENCH_parallel.json"
    )
    out = write_doc(doc, args.out or default_out)
    print(json.dumps(doc, indent=2))
    print(f"wrote {out}", file=sys.stderr)

    errors = check_doc(doc)
    for error in errors:
        print(f"FAIL: {error}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
