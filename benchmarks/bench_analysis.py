"""Extension bench: the memoized, parallel data-flow analysis engine.

Three measurements over the largest generated workload, all on the
paper's Section 4 demand-driven GEN-KILL queries:

* **cold** — repeated all-blocks query rounds on a stateless engine
  (``memoize=False``): every round re-propagates every backward
  traversal from scratch, cost proportional to raw trace length;
* **memoized** — the same rounds on a memoizing engine: after the
  first round every query looks its positions up in the verdict memo
  and propagates nothing;
* **fan-out** — :func:`~repro.analysis.frequency.fact_frequencies_many`
  over every (function, path trace) task, serially and under a jobs
  sweep, each timed as the median of ``BATCH_REPEATS`` interleaved
  runs and checked byte-identical to the serial reference (as is the
  ``query_many`` batch against fresh single queries).

Results land in ``BENCH_analysis.json`` (schema
``repro.bench_analysis/1``) so successive runs accumulate perf data
points over time.

Runs two ways::

    pytest benchmarks/bench_analysis.py            # bench suite
    python benchmarks/bench_analysis.py --smoke    # CI smoke gate

``--smoke`` uses a small workload and asserts only the direction
(memoized p50 < cold p50); the full bench asserts the >= 5x speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.bench.workbench import bench_scale, build_all_artifacts, build_artifacts
from repro.analysis.engine import DemandDrivenEngine
from repro.analysis.facts import VarHasDefinition
from repro.analysis.frequency import fact_frequencies_many
from repro.obs import MetricsRegistry

JOBS_SWEEP = (1, 2, 4)
#: Runs of the serial batch and of each jobs-sweep row; the report
#: keeps the median, since one run swings by about 15% on a small VM.
BATCH_REPEATS = 5
BENCH_SCHEMA = "repro.bench_analysis/1"

#: The bench fact: a variable no workload defines, so every block is
#: transparent and every query propagates all the way to the trace
#: start -- the worst case for the cold engine and therefore the
#: repeated-query workload the memo exists for.
BENCH_FACT = VarHasDefinition("__bench_never_defined__")


def _percentile(values, q):
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def _time_ms(fn):
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1000.0


def _largest_artifacts(scale, out_dir, smoke):
    """The largest generated workload (by traced events) at this scale."""
    if smoke:
        return build_artifacts(
            "perl-like", scale=min(scale, 0.25), out_dir=out_dir,
            with_sequitur=False,
        )
    arts = build_all_artifacts(scale=scale, out_dir=out_dir, with_sequitur=False)
    return max(arts, key=lambda a: len(a.wpp))


def _hot_trace(art):
    """The single longest path trace: (function name, trace)."""
    best = None
    for idx, name in enumerate(art.partitioned.func_names):
        for trace in art.partitioned.traces[idx]:
            if best is None or len(trace) > len(best[1]):
                best = (name, trace)
    return best


def _all_tasks(art, fact):
    """One frequency task per (function, unique path trace)."""
    tasks = []
    for idx, name in enumerate(art.partitioned.func_names):
        func = art.program.function(name)
        for trace in art.partitioned.traces[idx]:
            tasks.append((func, trace, fact))
    return tasks


def _canon_results(results):
    """Canonical bytes of query results (verdicts are set-valued)."""
    doc = [
        {
            "node": r.origin_node,
            "holds": r.holds.values(),
            "fails": r.fails.values(),
            "unresolved": r.unresolved.values(),
        }
        for r in results
    ]
    return json.dumps(doc, sort_keys=True).encode()


def _canon_reports(reports):
    """Canonical bytes of frequency reports."""
    doc = [
        {
            str(block): [e.executions, e.holds, e.fails, e.unresolved]
            for block, e in report.entries.items()
        }
        for report in reports
    ]
    return json.dumps(doc, sort_keys=True).encode()


def run_bench(scale=1.0, smoke=False, out_dir=None):
    """Run the cold/memoized/fan-out sweep; returns the JSON document."""
    art = _largest_artifacts(scale, out_dir, smoke)
    hot_name, hot_trace = _hot_trace(art)
    func = art.program.function(hot_name)
    rounds = 3 if smoke else 10

    cold_engine = DemandDrivenEngine.for_function_trace(
        func, hot_trace, BENCH_FACT, memoize=False
    )
    blocks = cold_engine.cfg.nodes()
    cold_ms = [
        _time_ms(lambda: cold_engine.query_many(blocks))
        for _ in range(rounds)
    ]

    metrics = MetricsRegistry()
    memo_engine = DemandDrivenEngine.for_function_trace(
        func, hot_trace, BENCH_FACT, metrics=metrics
    )
    memo_engine.query_many(blocks)  # fill the memo
    memo_ms = [
        _time_ms(lambda: memo_engine.query_many(blocks))
        for _ in range(rounds)
    ]
    memo_stats = memo_engine.memo_stats()

    # Batch identity: query_many on a memoized engine vs one-at-a-time
    # queries on stateless engines.
    serial_results = []
    for block in blocks:
        one = DemandDrivenEngine.for_function_trace(
            func, hot_trace, BENCH_FACT, memoize=False
        )
        serial_results.append(one.query(block))
    batch_results = DemandDrivenEngine.for_function_trace(
        func, hot_trace, BENCH_FACT
    ).query_many(blocks)
    batch_identical = _canon_results(batch_results) == _canon_results(
        serial_results
    )

    # Jobs sweep over every (function, trace) frequency task: each
    # repeat runs the serial batch and then every jobs row once.
    tasks = _all_tasks(art, BENCH_FACT)
    reference_bytes = None
    serial_ms = []
    rows = {
        jobs: {"ms": [], "fallback": 0, "identical": True}
        for jobs in JOBS_SWEEP
    }
    for _ in range(BATCH_REPEATS):
        t0 = time.perf_counter()
        reference = fact_frequencies_many(tasks)
        serial_ms.append((time.perf_counter() - t0) * 1000.0)
        if reference_bytes is None:
            reference_bytes = _canon_reports(reference)
        for jobs, row in rows.items():
            pool_metrics = MetricsRegistry()
            t0 = time.perf_counter()
            out = fact_frequencies_many(tasks, jobs=jobs, metrics=pool_metrics)
            row["ms"].append((time.perf_counter() - t0) * 1000.0)
            row["fallback"] += pool_metrics.counter("analysis.parallel_fallback")
            row["identical"] &= _canon_reports(out) == reference_bytes
    sweep = [
        {
            "jobs": jobs,
            "batch_ms": round(_percentile(row["ms"], 0.5), 3),
            "fallback": row["fallback"],
            "identical_to_serial": row["identical"],
        }
        for jobs, row in rows.items()
    ]

    cold_p50 = _percentile(cold_ms, 0.5)
    memo_p50 = _percentile(memo_ms, 0.5)
    return {
        "schema": BENCH_SCHEMA,
        "unix_time": round(time.time(), 3),
        "smoke": smoke,
        "workload": art.name,
        "scale": art.spec.scale,
        "events": len(art.wpp),
        "functions": len(art.partitioned.func_names),
        "fact": "def:__bench_never_defined__",
        "hot_function": hot_name,
        "trace_len": len(hot_trace),
        "blocks": len(blocks),
        "cpus": os.cpu_count(),
        "rounds": rounds,
        "cold_ms_p50": round(cold_p50, 4),
        "cold_ms_min": round(min(cold_ms), 4),
        "memo_ms_p50": round(memo_p50, 4),
        "memo_ms_min": round(min(memo_ms), 4),
        "speedup_p50": round(cold_p50 / memo_p50, 1) if memo_p50 else None,
        "memo": memo_stats,
        "engine_counters": {
            k: v
            for k, v in metrics.counters.items()
            if k.startswith("analysis.")
        },
        "batch_identical_to_serial": batch_identical,
        "tasks": len(tasks),
        "batch_repeats": BATCH_REPEATS,
        "serial_batch_ms": round(_percentile(serial_ms, 0.5), 3),
        "jobs_sweep": sweep,
    }


def write_doc(doc, out_path):
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# pytest entry point (bench suite)


def test_analysis_cold_memoized_parallel(results_dir, tmp_path):
    """Memoized repeated queries beat cold by >= 5x on the largest
    workload; batch and parallel results are byte-identical to serial."""
    doc = run_bench(scale=max(1.0, bench_scale()), out_dir=tmp_path)
    out = write_doc(doc, Path(results_dir) / "BENCH_analysis.json")
    print(f"\nwrote {out}")
    print(
        f"cold p50 {doc['cold_ms_p50']}ms, memoized p50 "
        f"{doc['memo_ms_p50']}ms => x{doc['speedup_p50']} "
        f"({doc['workload']}, trace {doc['trace_len']})"
    )
    assert doc["batch_identical_to_serial"]
    assert all(row["identical_to_serial"] for row in doc["jobs_sweep"])
    assert doc["speedup_p50"] >= 5, doc
    assert doc["memo"]["positions"] > 0


# ---------------------------------------------------------------------------
# standalone entry point (CI smoke gate)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Cold-vs-memoized/jobs sweep for the analysis engine"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small workload, direction-only assertion")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (default: REPRO_BENCH_SCALE)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default results/BENCH_analysis.json)")
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else max(1.0, bench_scale())
    doc = run_bench(scale=scale, smoke=args.smoke)
    default_out = (
        Path(__file__).resolve().parent.parent / "results" / "BENCH_analysis.json"
    )
    out = write_doc(doc, args.out or default_out)
    print(json.dumps(doc, indent=2))
    print(f"wrote {out}", file=sys.stderr)

    if not doc["batch_identical_to_serial"]:
        print("FAIL: query_many diverged from serial queries", file=sys.stderr)
        return 1
    if not all(row["identical_to_serial"] for row in doc["jobs_sweep"]):
        print("FAIL: parallel batch diverged from serial", file=sys.stderr)
        return 1
    if args.smoke:
        if doc["memo_ms_p50"] >= doc["cold_ms_p50"]:
            print("FAIL: memoized p50 not below cold p50", file=sys.stderr)
            return 1
    elif doc["speedup_p50"] < 5:
        print("FAIL: memoized/cold speedup below 5x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
