"""The ``ingest`` workload: the regression-suite producer path.

Fifteen runs per pass -- five SPEC analogues at three stepped scales --
each go from textual IR through ``Session.trace(stream=True)`` (parse,
compile, interpret, compact, write the ``.twpp``), then
``TraceCorpus.ingest`` (CWPK pack and SQLite catalog), then
``TraceCorpus.diff`` against the same program's previous step.  Every
pass starts from a fresh corpus.  This is the write side alone: no
point reads, store, server or analysis.

The seed jitters each step's scale by up to 2%, so inputs differ per
seed while the work per pass stays comparable across seeds.  The
program order is fixed: the process's peak RSS depends on it (about
4% between orders), not on the jitter.

Set-up writes the fifteen IR programs.  It runs once before the
warm-up and again before every pass, so the set-up samples spread over
the whole run like the passes do.
"""

from __future__ import annotations

import hashlib
import random
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Tuple

from harness import (
    KEEP_ERRORS,
    During,
    Gauge,
    Spans,
    dir_bytes,
    nominal_scale,
    percentile,
    place,
    write_programs,
)

#: Main-loop scales of the three steps of each program: about 8.4M
#: events per pass, so interpretation and compaction outweigh compile
#: (about 15% of a pass) as in a long-running traced program.
STEPS = (5.0, 5.5, 6.0)
SCALE_JITTER = 0.02
#: Session timers read into per-layer metrics on traced passes.
SESSION_TIMERS = ("interp.compile", "ingest.stall", "ingest.finalize", "ingest.write")


def plan(seed: int) -> List[Tuple[str, str, float]]:
    """The pass's ``(run name, program family, scale)`` list, in order."""
    from repro.workloads import WORKLOAD_NAMES

    rng = random.Random(seed)
    return [
        (f"{family}-s{step}", family,
         round(base * (1.0 + rng.uniform(-SCALE_JITTER, SCALE_JITTER)), 4))
        for family in WORKLOAD_NAMES
        for step, base in enumerate(STEPS)
    ]


@dataclass
class PassResult:
    wall_s: float = 0.0
    events: int = 0
    #: run name -> its wall time (trace + ingest + diff); its CPU time;
    #: its CPU time at nominal machine speed and the factor that took it
    #: there (untraced passes only); its events.
    latencies_ms: Dict[str, float] = field(default_factory=dict)
    cpu_ms: Dict[str, float] = field(default_factory=dict)
    scaled_ms: Dict[str, float] = field(default_factory=dict)
    scales: Dict[str, float] = field(default_factory=dict)
    run_events: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: run name -> sha1 of its ``.twpp``; run name -> its diff document.
    digests: Dict[str, str] = field(default_factory=dict)
    diffs: Dict[str, str] = field(default_factory=dict)
    twpp_bytes: int = 0
    corpus_bytes: int = 0
    #: Traced passes only.
    spans: Optional[Spans] = None
    timers_ms: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)


def run_pass(runs, inputs: List[Path], pass_dir: Path, traced: bool,
             gauge: Optional[Gauge] = None) -> PassResult:
    """One pass over every input into a fresh corpus under ``pass_dir``.

    With a ``gauge``, the machine's speed is sampled before every run,
    during it and after the last, and each run's CPU time is also kept
    scaled to nominal speed.
    """
    from repro import Session
    from repro.corpus import diff_doc
    from repro.store.server import canonical_json

    result = PassResult(spans=Spans() if traced else None)
    spans = result.spans
    clock = time.perf_counter
    outputs: Dict[str, Path] = {}
    start = clock()
    with Session() as session:
        corpus = session.corpus(pass_dir / "corpus")
        try:
            previous: Dict[str, str] = {}
            speed = gauge.sample() if gauge is not None else None
            for (name, family, _scale), ir in zip(runs, inputs):
                result.attempted += 1
                output = pass_dir / f"{name}.twpp"
                try:
                    with gauge.during() if gauge is not None else nullcontext(During()) as during:
                        c0 = time.process_time()
                        t0 = clock()
                        traced_run = session.trace(ir, stream=True, output=output)
                        t1 = clock()
                        corpus.ingest(output, run=name)
                        t2 = clock()
                        before = previous.get(family)
                        if before is not None:
                            doc = diff_doc(corpus.diff(before, name))
                        t3 = clock()
                        cpu_s = time.process_time() - c0
                except Exception as exc:  # noqa: BLE001 - counted, run continues
                    result.failed += 1
                    if len(result.errors) < KEEP_ERRORS:
                        result.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    continue
                # The gauge's ticks ran inside the run, on its CPU.
                wall_s = t3 - t0 - during.spent_s
                cpu_s -= during.spent_s
                previous[family] = name
                outputs[name] = output
                result.events += traced_run.events
                result.run_events[name] = traced_run.events
                result.latencies_ms[name] = wall_s * 1000.0
                result.cpu_ms[name] = cpu_s * 1000.0
                if gauge is not None:
                    started, speed = speed, gauge.sample()
                    result.scales[name] = nominal_scale([started, speed, *during.samples])
                    result.scaled_ms[name] = cpu_s * 1000.0 * result.scales[name]
                if before is not None:
                    result.diffs[name] = canonical_json(doc).decode("utf-8")
                if spans is not None:
                    spans.durations["compact.stream"].append(t1 - t0)
                    spans.durations["corpus.ingest"].append(t2 - t1)
                    spans.durations["corpus.diff"].append(t3 - t2)
        finally:
            corpus.close()
        result.wall_s = clock() - start
        metrics = session.metrics
        result.timers_ms = {
            name: metrics.timers_ms.get(name, 0.0) for name in SESSION_TIMERS
        }
        result.counters = dict(metrics.counters)
    for name, output in outputs.items():
        data = output.read_bytes()
        result.digests[name] = hashlib.sha1(data).hexdigest()
        result.twpp_bytes += len(data)
    result.corpus_bytes = dir_bytes(pass_dir / "corpus")
    return result


def _two_phase_mismatches(runs, inputs, digests: Dict[str, str], work: Path) -> int:
    """Runs whose streamed ``.twpp`` differs from the two-phase route
    ``write_twpp(compact_wpp(partition_wpp(collect_wpp(p))))``."""
    from repro.compact.format import write_twpp
    from repro.compact.pipeline import compact_wpp
    from repro.ir.parser import parse_program
    from repro.trace.partition import partition_wpp
    from repro.trace.wpp import collect_wpp

    mismatches = 0
    target = work / "two-phase.twpp"
    for (name, _family, _scale), ir in zip(runs, inputs):
        program = parse_program(ir.read_text())
        compacted, _stats = compact_wpp(partition_wpp(collect_wpp(program)))
        write_twpp(compacted, target)
        if hashlib.sha1(target.read_bytes()).hexdigest() != digests.get(name):
            mismatches += 1
    return mismatches


def _run_seconds(inputs: List[Path]) -> float:
    """Untraced interpretation time of every input (``interp.run_s``):
    each program runs once to compile, then once timed."""
    from repro.interp.interpreter import run_program
    from repro.interp.tracer import NullTracer
    from repro.ir.parser import parse_program

    total = 0.0
    for ir in inputs:
        program = parse_program(ir.read_text())
        run_program(program, tracer=NullTracer())
        t0 = time.perf_counter()
        run_program(program, tracer=NullTracer())
        total += time.perf_counter() - t0
    return total


def run(workload_name: str, seed: int, seconds: float, traced: bool, work: Path) -> Dict:
    place("one")
    runs = plan(seed)
    gauge = Gauge()
    setup_times: List[float] = []
    setup_scaled: List[float] = []

    def set_up() -> List[Path]:
        before = gauge.sample()
        with gauge.during() as during:
            t0 = time.perf_counter()
            inputs = write_programs(work / "inputs", runs)
            setup_times.append(time.perf_counter() - t0 - during.spent_s)
        scale = nominal_scale([before, gauge.sample(), *during.samples])
        setup_scaled.append(setup_times[-1] * scale)
        return inputs

    # Load the lazily imported modules before timing: one untimed run.
    run_pass(runs[:1], write_programs(work / "warm-up", runs[:1]), work / "warm-up", traced=False)
    shutil.rmtree(work / "warm-up")
    inputs = set_up()

    passes: List[PassResult] = []
    deadline = time.perf_counter() + seconds
    n = 0
    # Whole passes, as many as end nearest the deadline: another starts
    # while at least half of one still fits.  Traced runs alternate
    # untraced and traced passes, so the two pass walls give the
    # tracing overhead.
    while (not passes or time.perf_counter() + passes[-1].wall_s / 2.0 < deadline
           or (traced and len(passes) < 2)):
        if passes:
            inputs = set_up()
        pass_dir = work / f"pass-{n}"
        # A traced run reports no scaled times, so no pass of it samples
        # the speed: the two kinds of pass stay comparable.
        passes.append(run_pass(runs, inputs, pass_dir, traced and n % 2 == 1,
                               gauge=None if traced else gauge))
        shutil.rmtree(pass_dir)
        n += 1

    reference = passes[0].digests
    stable = all(p.digests == reference and p.diffs == passes[0].diffs for p in passes)
    complete = len(reference) == len(runs)
    doc = {
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors][:KEEP_ERRORS],
        "checks": {"passes": len(passes), "digests_stable": stable, "complete": complete},
    }
    correct = stable and complete
    if not traced:
        # CPU times at nominal machine speed (see the gauge in harness),
        # over every run of every pass: each pass runs all fifteen
        # programs, so the mix is the same in every run of the benchmark.
        # The rest of a run's wall waits on the corpus catalog's SQLite
        # commits, which track the host's disk load (see README.md); it
        # is kept in ``detail`` and as the per-layer ``ingest.off_cpu_s``.
        lat = [ms for p in passes for ms in p.scaled_ms.values()]
        events = sum(p.run_events[name] for p in passes for name in p.scaled_ms)
        scaled_s = sum(lat) / 1000.0
        doc["metrics"] = {
            "setup_s": (median(setup_scaled), "s"),
            "ops_per_s": (events / scaled_s, "1/s"),
            "latency_p50_ms": (percentile(lat, 50), "ms"),
            "latency_p90_ms": (percentile(lat, 90), "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
        }
        doc["detail"] = {
            "setup_s": setup_times,
            "setup_scaled_s": setup_scaled,
            "gauge_s": gauge.samples,
            "pass_wall_s": [p.wall_s for p in passes],
            "pass_off_cpu_s": [
                (sum(p.latencies_ms.values()) - sum(p.cpu_ms.values())) / 1000.0 for p in passes
            ],
            "events_per_s_per_pass": [p.events / p.wall_s for p in passes],
            "run_ms": [p.latencies_ms for p in passes],
            "run_cpu_ms": [p.cpu_ms for p in passes],
            "run_scaled_ms": [p.scaled_ms for p in passes],
            "run_scales": [p.scales for p in passes],
            "twpp_bytes": passes[0].twpp_bytes,
            "corpus_bytes": passes[0].corpus_bytes,
        }
        doc["correct"] = correct
        return doc

    mismatches = _two_phase_mismatches(runs, inputs, reference, work)
    doc["checks"]["two_phase_mismatches"] = mismatches
    doc["failed"] += mismatches
    doc["attempted"] += len(runs)
    doc["correct"] = correct and mismatches == 0
    doc["metrics"] = _traced_metrics(passes, _run_seconds(inputs))
    return doc


def _traced_metrics(passes: List[PassResult], run_s: float) -> Dict:
    traced = [p for p in passes if p.spans is not None]
    untraced = [p for p in passes if p.spans is None]

    def per_pass(value) -> float:
        return median(value(p) for p in traced)

    def off_cpu_s(p: PassResult) -> float:
        return (sum(p.latencies_ms.values()) - sum(p.cpu_ms.values())) / 1000.0

    compile_s = per_pass(lambda p: p.timers_ms["interp.compile"] / 1000.0)
    stream_s = per_pass(lambda p: p.spans.total("compact.stream"))
    added = per_pass(lambda p: p.counters.get("corpus.blobs_added", 0))
    shared = per_pass(lambda p: p.counters.get("corpus.blobs_shared", 0))
    return {
        "interp.compile_s": (compile_s, "s"),
        "interp.run_s": (run_s, "s"),
        "compact.stream_s": (stream_s, "s"),
        "compact.stream_overhead_s": (stream_s - compile_s - run_s, "s"),
        "ingest.stall_s": (per_pass(lambda p: p.timers_ms["ingest.stall"] / 1000.0), "s"),
        "ingest.finalize_s": (per_pass(lambda p: p.timers_ms["ingest.finalize"] / 1000.0), "s"),
        "ingest.write_s": (per_pass(lambda p: p.timers_ms["ingest.write"] / 1000.0), "s"),
        "ingest.off_cpu_s": (per_pass(off_cpu_s), "s"),
        "ingest.unique_traces": (per_pass(lambda p: p.counters.get("ingest.unique_traces", 0)), "count"),
        "ingest.trace_overhead": (
            median(p.wall_s for p in traced) / median(p.wall_s for p in untraced) - 1.0,
            "ratio",
        ),
        "compact.twpp_bytes": (traced[0].twpp_bytes, "B"),
        "corpus.ingest_s": (per_pass(lambda p: p.spans.total("corpus.ingest")), "s"),
        "corpus.diff_s": (per_pass(lambda p: p.spans.total("corpus.diff")), "s"),
        "corpus.blobs_added": (added, "count"),
        "corpus.blobs_shared": (shared, "count"),
        "corpus.dedup_ratio": (shared / (added + shared) if added + shared else 0.0, "ratio"),
        "corpus.bytes": (traced[0].corpus_bytes, "B"),
        "span_coverage": (
            per_pass(lambda p: sum(
                p.spans.total(n) for n in ("compact.stream", "corpus.ingest", "corpus.diff")
            ) / p.wall_s),
            "ratio",
        ),
    }
