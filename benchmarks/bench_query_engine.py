"""Extension bench: the cached, mmap-backed query engine.

Three measurements over the largest generated workload:

* **cold** — the Table 4/5 operation: open + header + one section per
  query (:func:`extract_function_traces`), exactly what a process that
  dies between requests pays;
* **warm** — the same query served by a long-lived
  :class:`~repro.compact.qserve.QueryEngine` whose byte-budgeted LRU
  already holds the function's expanded traces;
* **batch** — :meth:`~repro.compact.qserve.QueryEngine.traces_many`
  over every function, cold on a fresh engine and then warm on the same
  one, checked identical to one-at-a-time queries.

Results land in ``BENCH_query.json`` (schema ``repro.bench_query/3``)
so successive runs accumulate perf data points over time.

Runs two ways::

    pytest benchmarks/bench_query_engine.py            # bench suite
    python benchmarks/bench_query_engine.py --smoke    # CI smoke gate

``--smoke`` uses a small workload and asserts only the direction
(warm p50 < cold p50); the full bench asserts the >= 5x speedup.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.bench.workbench import bench_scale, build_all_artifacts, build_artifacts
from repro.compact import QueryEngine, extract_function_traces
from repro.obs import MetricsRegistry

BENCH_SCHEMA = "repro.bench_query/3"


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


def run_bench(scale=1.0, smoke=False, out_dir=None):
    """Run the cold/warm/batch measurements; returns the JSON document."""
    art = _largest_artifacts(scale, out_dir, smoke)
    path = art.twpp_path
    hot = art.traced_function_names()[0]
    cold_rounds = 5 if smoke else 15
    warm_rounds = 50 if smoke else 200

    cold_ms = [
        _time_ms(lambda: extract_function_traces(path, hot))
        for _ in range(cold_rounds)
    ]

    metrics = MetricsRegistry()
    with QueryEngine(path, metrics=metrics) as engine:
        engine.traces(hot)  # fill the cache
        warm_ms = [
            _time_ms(lambda: engine.traces(hot)) for _ in range(warm_rounds)
        ]
        cache = engine.cache_stats()

    with QueryEngine(path, cache_bytes=0) as eng:
        reference = {name: eng.traces(name) for name in eng.function_names()}
    with QueryEngine(path) as eng:
        t0 = time.perf_counter()
        out = eng.traces_many()
        batch_ms = (time.perf_counter() - t0) * 1000.0
        # Warm pass over the same engine: every section now cached.
        t0 = time.perf_counter()
        warm_out = eng.traces_many()
        warm_batch_ms = (time.perf_counter() - t0) * 1000.0

    cold_p50 = _percentile(cold_ms, 0.5)
    warm_p50 = _percentile(warm_ms, 0.5)
    return {
        "schema": BENCH_SCHEMA,
        "unix_time": round(time.time(), 3),
        "smoke": smoke,
        "workload": art.name,
        "scale": art.spec.scale,
        "events": len(art.wpp),
        "functions": len(art.partitioned.func_names),
        "twpp_bytes": art.twpp_bytes,
        "hot_function": hot,
        "cpus": os.cpu_count(),
        "cold_ms_p50": round(cold_p50, 4),
        "cold_ms_min": round(min(cold_ms), 4),
        "cold_rounds": cold_rounds,
        "warm_ms_p50": round(warm_p50, 4),
        "warm_ms_min": round(min(warm_ms), 4),
        "warm_rounds": warm_rounds,
        "speedup_p50": round(cold_p50 / warm_p50, 1) if warm_p50 else None,
        "batch_cold_ms": round(batch_ms, 3),
        "batch_warm_ms": round(warm_batch_ms, 3),
        "batch_identical": out == reference and warm_out == reference,
        "cache": cache,
    }


def write_doc(doc, out_path):
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# pytest entry point (bench suite)


def test_query_engine_cold_warm_batch(results_dir, tmp_path):
    """Warm cached queries beat cold by >= 5x on the largest workload;
    batch extraction is identical to one-at-a-time queries."""
    doc = run_bench(scale=max(1.0, bench_scale()), out_dir=tmp_path)
    out = write_doc(doc, Path(results_dir) / "BENCH_query.json")
    print(f"\nwrote {out}")
    print(
        f"cold p50 {doc['cold_ms_p50']}ms, warm p50 {doc['warm_ms_p50']}ms "
        f"=> x{doc['speedup_p50']} ({doc['workload']}, "
        f"{doc['events']} events)"
    )
    assert doc["batch_identical"]
    assert doc["speedup_p50"] >= 5, doc
    assert doc["cache"]["hits"] > 0


# ---------------------------------------------------------------------------
# standalone entry point (CI smoke gate)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Cold-vs-warm and batch timings for the TWPP query engine"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small workload, direction-only assertion")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (default: REPRO_BENCH_SCALE)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default results/BENCH_query.json)")
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else max(1.0, bench_scale())
    doc = run_bench(scale=scale, smoke=args.smoke)
    default_out = (
        Path(__file__).resolve().parent.parent / "results" / "BENCH_query.json"
    )
    out = write_doc(doc, args.out or default_out)
    print(json.dumps(doc, indent=2))
    print(f"wrote {out}", file=sys.stderr)

    if not doc["batch_identical"]:
        print("FAIL: batch diverged from single queries", file=sys.stderr)
        return 1
    if args.smoke:
        if doc["warm_ms_p50"] >= doc["cold_ms_p50"]:
            print("FAIL: warm p50 not below cold p50", file=sys.stderr)
            return 1
    elif doc["speedup_p50"] < 5:
        print("FAIL: warm/cold speedup below 5x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
