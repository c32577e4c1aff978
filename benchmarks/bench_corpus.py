"""Corpus bench: multi-run dedup compaction and compressed-domain analyses.

Builds a family of seeded runs per workload -- the same program traced
at stepped scales, the regression-testing shape the corpus exists for
-- ingests them all into one content-addressed corpus, and measures:

* **compaction** -- total ``.twpp`` bytes the runs would occupy as
  independent files vs what the corpus holds (pack + manifests).  The
  full bench gates the overall factor >= 2x; the smoke gate requires
  the corpus to beat independent storage at all.
* **diff parity** -- ``corpus.diff`` over blob-id set algebra must
  render byte-identically to
  :func:`repro.compact.delta.diff_twpp_files` rematerializing both
  runs, for every family's first-vs-last pair; both sides are timed.
* **analysis parity** -- single-run ``corpus.hot_paths`` must equal
  :func:`repro.analysis.hotpaths.path_profile_compacted` over the
  original file, and corpus-served traces must be identical to engine
  reads; the corpus-wide hot-path sweep over every ingested run is
  timed as the headline compressed-domain query.

Results land in ``BENCH_corpus.json`` (schema ``repro.bench_corpus/1``).

Runs two ways::

    pytest benchmarks/bench_corpus.py            # bench suite
    python benchmarks/bench_corpus.py --smoke    # CI smoke gate

``--smoke`` builds 3 runs of two workloads at a small scale and asserts
direction plus every identity; the full bench builds 8 runs of all
five workloads and gates compaction >= 2x.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.analysis.hotpaths import path_profile_compacted
from repro.api import Session
from repro.bench.workbench import bench_scale
from repro.compact.delta import diff_twpp_files
from repro.corpus import TraceCorpus
from repro.workloads.specs import WORKLOAD_NAMES, workload

BENCH_SCHEMA = "repro.bench_corpus/1"
N_RUNS_FULL = 8
N_RUNS_SMOKE = 3
SMOKE_WORKLOADS = ("li-like", "perl-like")
#: Per-step scale growth within a family; small enough that most blobs
#: recur run to run, which is the regression-suite shape being modeled.
SCALE_STEP = 0.1


def _build_family(session, tmp_dir, name, base_scale, n_runs):
    """One workload at ``n_runs`` stepped scales; [(run, path)] in order."""
    out = []
    for i in range(n_runs):
        program, _spec = workload(
            name, scale=base_scale * (1.0 + SCALE_STEP * i)
        )
        path = Path(tmp_dir) / f"{name}-{i}.twpp"
        session.stream_compact(program, path)
        out.append((f"{name}-{i}", path))
    return out


def run_bench(scale=1.0, smoke=False, tmp_dir=None):
    """Build the run families, ingest, measure; returns the doc."""
    names = SMOKE_WORKLOADS if smoke else WORKLOAD_NAMES
    n_runs = N_RUNS_SMOKE if smoke else N_RUNS_FULL
    if smoke:
        scale = min(scale, 0.2)

    with Session() as session:
        t0 = time.perf_counter()
        families = {
            name: _build_family(session, tmp_dir, name, scale, n_runs)
            for name in names
        }
        build_s = time.perf_counter() - t0

        runs = [run for family in families.values() for run, _ in family]
        paths = [path for family in families.values() for _, path in family]
        corpus = TraceCorpus(Path(tmp_dir) / "corpus", session=session)
        try:
            t0 = time.perf_counter()
            results = corpus.ingest_runs(paths, runs=runs)
            ingest_s = time.perf_counter() - t0
            stats = corpus.stats()

            by_family = []
            diffs = []
            for name, family in families.items():
                records = [r for r in results if r.run.startswith(name)]
                family_twpp = sum(r.twpp_bytes for r in records)
                family_marginal = sum(
                    r.manifest_bytes + r.bytes_added for r in records
                )
                by_family.append(
                    {
                        "workload": name,
                        "runs": len(records),
                        "twpp_bytes": family_twpp,
                        "marginal_bytes": family_marginal,
                        "compaction_factor": round(
                            family_twpp / family_marginal, 2
                        )
                        if family_marginal
                        else None,
                    }
                )
                (first_run, first_path) = family[0]
                (last_run, last_path) = family[-1]
                t0 = time.perf_counter()
                delta = corpus.diff(first_run, last_run)
                corpus_diff_s = time.perf_counter() - t0
                t0 = time.perf_counter()
                reference = diff_twpp_files(first_path, last_path)
                file_diff_s = time.perf_counter() - t0
                diffs.append(
                    {
                        "workload": name,
                        "runs": [first_run, last_run],
                        "corpus_diff_ms": round(corpus_diff_s * 1e3, 3),
                        "file_diff_ms": round(file_diff_s * 1e3, 3),
                        "identical": delta.render(limit=100)
                        == reference.render(limit=100),
                    }
                )

            # Analysis parity on the first family's first run.
            probe_run, probe_path = next(iter(families.values()))[0]
            t0 = time.perf_counter()
            corpus_profile = corpus.hot_paths(runs=[probe_run])
            hot_single_s = time.perf_counter() - t0
            reference_profile = path_profile_compacted(probe_path)
            hot_identical = (
                corpus_profile.counts == reference_profile.counts
            )
            engine = session.engine(probe_path)
            traces_identical = all(
                corpus.traces(probe_run, fn) == engine.traces(fn)
                for fn in corpus.functions(probe_run)
            )

            t0 = time.perf_counter()
            corpus_wide = corpus.hot_paths()
            hot_all_s = time.perf_counter() - t0
        finally:
            corpus.close()

    return {
        "schema": BENCH_SCHEMA,
        "unix_time": round(time.time(), 3),
        "smoke": smoke,
        "scale": scale,
        "workloads": list(names),
        "runs_per_workload": n_runs,
        "runs": len(runs),
        "cpus": os.cpu_count(),
        "build_ms": round(build_s * 1e3, 1),
        "ingest_ms": round(ingest_s * 1e3, 1),
        "ingest_runs_per_sec": round(len(runs) / ingest_s, 2)
        if ingest_s
        else None,
        "twpp_bytes": stats["twpp_bytes"],
        "pack_bytes": stats["pack_bytes"],
        "manifest_bytes": stats["manifest_bytes"],
        "corpus_bytes": stats["corpus_bytes"],
        "compaction_factor": round(stats["compaction_factor"], 3),
        "blobs": stats["blobs"],
        "families": by_family,
        "diffs": diffs,
        "diff_identical": all(d["identical"] for d in diffs),
        "hot_single_run_ms": round(hot_single_s * 1e3, 3),
        "hot_single_run_identical": hot_identical,
        "hot_corpus_wide_ms": round(hot_all_s * 1e3, 3),
        "hot_corpus_paths": len(corpus_wide.counts),
        "traces_identical": traces_identical,
    }


def write_doc(doc, out_path):
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# pytest entry point (bench suite)


def test_corpus_compaction_and_parity(results_dir, tmp_path):
    """Eight stepped runs per workload dedup to >= 2x less storage than
    independent ``.twpp`` files, and every compressed-domain analysis
    matches its rematerialized reference."""
    doc = run_bench(scale=bench_scale(), tmp_dir=tmp_path)
    out = write_doc(doc, Path(results_dir) / "BENCH_corpus.json")
    print(f"\nwrote {out}")
    print(
        f"{doc['runs']} runs, {doc['twpp_bytes']:,} .twpp bytes held in "
        f"{doc['corpus_bytes']:,} corpus bytes => "
        f"x{doc['compaction_factor']}"
    )
    for family in doc["families"]:
        print(
            f"  {family['workload']}: x{family['compaction_factor']} over "
            f"{family['runs']} runs"
        )
    assert doc["diff_identical"], doc["diffs"]
    assert doc["hot_single_run_identical"], doc
    assert doc["traces_identical"], doc
    assert doc["compaction_factor"] >= 2.0, doc


# ---------------------------------------------------------------------------
# standalone entry point (CI smoke gate)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Multi-run corpus dedup compaction and analysis parity"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small run families, direction-only compaction gate")
    parser.add_argument("--scale", type=float, default=None,
                        help="base workload scale (default: REPRO_BENCH_SCALE)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default results/BENCH_corpus.json)")
    args = parser.parse_args(argv)

    import tempfile

    scale = args.scale if args.scale is not None else bench_scale()
    with tempfile.TemporaryDirectory() as tmp_dir:
        doc = run_bench(scale=scale, smoke=args.smoke, tmp_dir=tmp_dir)
    default_out = (
        Path(__file__).resolve().parent.parent / "results" / "BENCH_corpus.json"
    )
    out = write_doc(doc, args.out or default_out)
    print(json.dumps(doc, indent=2))
    print(f"wrote {out}", file=sys.stderr)

    if not doc["diff_identical"]:
        print("FAIL: corpus diff diverged from file-based diff",
              file=sys.stderr)
        return 1
    if not doc["hot_single_run_identical"]:
        print("FAIL: corpus hot paths diverged from path_profile_compacted",
              file=sys.stderr)
        return 1
    if not doc["traces_identical"]:
        print("FAIL: corpus-served traces diverged from .twpp reads",
              file=sys.stderr)
        return 1
    floor = 1.0 if args.smoke else 2.0
    if doc["compaction_factor"] < floor:
        print(
            f"FAIL: compaction x{doc['compaction_factor']} below x{floor}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
