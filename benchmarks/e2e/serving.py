"""The HTTP workloads: ``serve-warm``, ``serve-cold`` and ``analyze``.

Each run builds a store of five scale-1 traces (one per SPEC analogue,
188 (trace, function) pairs in all), serves it with a separate
``python -m repro serve`` process, and drives it from this process
alone over at most two keep-alive connections in a closed loop: the
dashboards, CI diff scripts and analysts who call the daemon each wait
for their reply before asking again.

The measured phase runs in short segments with a sample of the
machine's speed between them, so every segment's times can be scaled
to nominal speed (see the gauge in ``harness``); analyze samples it
around every request.  Ten times in a run,
between segments, a spare daemon starts on a copy of the store and
stops again, so the set-up samples spread over the whole run like the
load does.

The traced run replays the same schedule prefix in-process on a fresh
store with the same cache budget, on one thread, timing the calls each
request makes into the store, request, analysis and encoding layers.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Optional, Sequence, Set, Tuple
from urllib.parse import urlencode

from harness import (
    KEEP_ERRORS,
    Connection,
    Daemon,
    Gauge,
    LoopResult,
    Spans,
    closed_loop,
    get_json,
    get_request,
    nominal_scale,
    percentile,
    place,
    post_request,
    write_programs,
)

#: Scale of the five served traces: about 0.5 MB of decoded traces.
TRACE_SCALE = 1.0
ZIPF_S = 1.1
#: ``def:i`` keeps every analyze request under about 0.3 s; ``def:acc``
#: on the ``main`` functions takes seconds per request.
ANALYZE_FACT = "def:i"
#: Responses per run compared byte for byte with the in-process store.
VERIFY_SAMPLES = 50
#: Cold keys per traced run replayed through a fresh uncached engine.
MAX_COLD_REPLAYS = 200
#: Length of a segment of the measured phase, between two speed samples.
SEGMENT_S = 0.5
#: Daemon start-ups timed per untraced run.
SETUP_SAMPLES = 10


@dataclass(frozen=True)
class HttpWorkload:
    name: str
    verb: str  # "query" or "analyze"
    #: The daemon's ``--cache-bytes`` (None = the default 64 MiB).
    cache_bytes: Optional[int]
    connections: int
    #: Where the client and the daemon run (see ``harness.place``).
    placement: str


WORKLOADS = {
    w.name: w
    for w in (
        # Working set fits: framing, parsing and encoding dominate.  The
        # client and the daemon on CPUs of their own, so they run in
        # parallel as in a deployment, and the OS does not move them.
        HttpWorkload("serve-warm", "query", None, 2, placement="split"),
        # An 8 KiB budget: most requests decode, half evict a file.  One
        # CPU: on two, concurrent cold requests hit a known daemon race
        # (an evicted engine's mmap closes under a decoding worker), and
        # the benchmark's workloads must not fail.
        HttpWorkload("serve-cold", "query", 8192, 2, placement="one"),
        # Per-request program parsing and the frequency engine dominate.
        # One connection, so a request's latency is its own work, and the
        # client can sample the machine's speed between requests.
        HttpWorkload("analyze", "analyze", None, 1, placement="one"),
        # Not in BENCHMARK.json: serve-cold free on both CPUs, which
        # measures the race above as its failed share (see README.md).
        HttpWorkload("serve-cold-2cpu", "query", 8192, 2, placement="free"),
    )
}


def _families() -> Tuple[str, ...]:
    from repro.workloads import WORKLOAD_NAMES

    return WORKLOAD_NAMES


def build_store(directory: Path) -> None:
    """Trace the five analogue programs into ``directory``: ``<name>.ir``
    beside ``<name>.twpp``, so analyze finds each trace's program."""
    from repro import Session

    runs = [(name, name, TRACE_SCALE) for name in _families()]
    with Session() as session:
        for ir in write_programs(directory, runs):
            session.trace(ir, stream=True, output=ir.with_suffix(".twpp"))


def store_keys(store_dir: Path) -> List[Tuple[str, str]]:
    """Every (trace, function) pair of the store, most called first.

    Popularity follows call counts, and stays the same for every seed:
    a seeded ranking would move the cost of a run with the seed (an
    8 KiB budget turns which functions are hot into the hit rate).
    """
    from repro.compact.qserve import QueryEngine

    ranked = []
    for name in _families():
        with QueryEngine(store_dir / f"{name}.twpp", cache_bytes=0) as engine:
            ranked.extend(
                (-engine.call_count(fn), name, fn) for fn in engine.function_names()
            )
    return [(name, fn) for _calls, name, fn in sorted(ranked)]


def query_string(key: Tuple[str, str]) -> str:
    return urlencode([("trace", key[0]), ("fn", key[1])])


def analyze_body(key: Tuple[str, str]) -> bytes:
    return json.dumps(
        {"trace": key[0], "fact": ANALYZE_FACT, "functions": [key[1]]}
    ).encode("utf-8")


def wire_requests(workload: HttpWorkload, keys) -> List[bytes]:
    if workload.verb == "query":
        return [get_request("/query?" + query_string(k)) for k in keys]
    return [post_request("/analyze", analyze_body(k)) for k in keys]


def make_schedule(
    workload: HttpWorkload, n_keys: int, seed: int, length: int
) -> List[int]:
    """Key indices in send order.

    Queries draw keys zipf(s=1.1) by popularity rank (the key index);
    analyze sweeps every key once per pass in one seeded order.
    """
    rng = random.Random(seed)
    if workload.verb == "analyze":
        order = list(range(n_keys))
        rng.shuffle(order)
        return order
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n_keys)]
    return rng.choices(range(n_keys), weights, k=length)


def _warm(port: int, workload: HttpWorkload, keys) -> None:
    """Fill the daemon's caches and load its lazy imports."""
    conn = Connection(port)
    try:
        for key in keys:
            status, body = conn.roundtrip(get_request("/query?" + query_string(key)))
            if status != 200:
                raise RuntimeError(f"warm-up query failed: {status} {body[:200]!r}")
        if workload.verb == "analyze":
            for name in _families():
                key = next(k for k in keys if k[0] == name)
                status, body = conn.roundtrip(post_request("/analyze", analyze_body(key)))
                if status != 200:
                    raise RuntimeError(f"warm-up analyze failed: {status}")
    finally:
        conn.close()


def _warm_in_process(store, workload: HttpWorkload, keys) -> None:
    from repro import AnalyzeRequest, QueryRequest

    for trace, fn in keys:
        store.query(QueryRequest(trace=trace, functions=(fn,)))
    if workload.verb == "analyze":
        for name in _families():
            fn = next(f for t, f in keys if t == name)
            store.analyze(AnalyzeRequest(trace=name, fact=ANALYZE_FACT, functions=(fn,)))


def _expected_body(store, workload: HttpWorkload, key) -> bytes:
    from repro import AnalyzeRequest, QueryRequest
    from repro.store.server import canonical_json

    trace, fn = key
    if workload.verb == "query":
        doc = store.query(QueryRequest(trace=trace, functions=(fn,)))
    else:
        doc = store.analyze(
            AnalyzeRequest(trace=trace, fact=ANALYZE_FACT, functions=(fn,))
        )
    return canonical_json(doc) + b"\n"


def verify(work: Path, store_dir: Path, workload, keys, bodies) -> int:
    """Compare sampled HTTP bodies with the in-process store; returns
    the number of mismatches."""
    from repro import Session

    mismatches = 0
    with Session() as session:
        with session.store(store_dir, catalog_path=work / "verify.sqlite") as store:
            for index, body in sorted(bodies.items()):
                if _expected_body(store, workload, keys[index]) != body:
                    mismatches += 1
    return mismatches


def _counter_deltas(before: Dict, after: Dict) -> Dict[str, int]:
    a, b = before["counters"], after["counters"]
    return {name: b.get(name, 0) - a.get(name, 0) for name in set(a) | set(b)}


def _start_daemon(work: Path, name: str, workload: HttpWorkload,
                  cpus: Optional[Set[int]]) -> Tuple[Daemon, float]:
    """Serve a fresh copy of the built store on ``cpus``; returns the
    daemon and its set-up time, from launch until ``/healthz`` answers
    (which includes the catalog scan of every ``.twpp``)."""
    store_dir = work / name
    shutil.copytree(work / "inputs", store_dir)
    t0 = time.perf_counter()
    daemon = Daemon(store_dir, work / f"{name}.log", workload.cache_bytes, cpus)
    return daemon, time.perf_counter() - t0


def run(workload_name: str, seed: int, seconds: float, traced: bool, work: Path) -> Dict:
    workload = WORKLOADS[workload_name]
    daemon_cpus = place(workload.placement)
    build_store(work / "inputs")
    keys = store_keys(work / "inputs")
    requests = wire_requests(workload, keys)
    schedule = make_schedule(workload, len(keys), seed, length=int(25000 * seconds) + 1000)
    keep = set(
        random.Random(seed + 1).sample(range(len(keys)), min(VERIFY_SAMPLES, len(keys)))
    )
    # The measured phase lasts ``seconds`` of wall time, spare daemon
    # starts and speed samples included.  The traced run keeps half the
    # time for its in-process replay, in one segment.
    segment_s = seconds / 2.0 if traced else SEGMENT_S
    setup_every_s = seconds / SETUP_SAMPLES
    gauge = Gauge(os.sched_getaffinity(0) | (daemon_cpus or set()))
    loop: List[LoopResult] = []
    position = 0
    speed = gauge.sample()
    daemon, setup_s = _start_daemon(work, "store", workload, daemon_cpus)
    try:
        setup_times = [setup_s]
        setup_scaled = [setup_s * nominal_scale([speed, gauge.sample()])]
        _warm(daemon.port, workload, keys)
        before = get_json(daemon.port, "/metrics")
        speed = gauge.sample()
        start = time.perf_counter()
        # Untraced, analyze samples the speed around every request, and
        # runs on until its sweep has sent every key.
        sweep = workload.verb == "analyze" and not traced
        while (not loop or (not traced and time.perf_counter() - start < seconds)
               or (sweep and position < len(keys))):
            if (not traced and len(setup_times) < SETUP_SAMPLES
                    and time.perf_counter() - start >= len(setup_times) * setup_every_s):
                k = len(setup_times)
                spare, setup_s = _start_daemon(work, f"spare-{k}", workload, daemon_cpus)
                spare.stop()
                shutil.rmtree(work / f"spare-{k}")
                setup_times.append(setup_s)
                speed, started = gauge.sample(), speed
                setup_scaled.append(setup_s * nominal_scale([started, speed]))
            part = closed_loop(
                daemon.port, requests, schedule, workload.connections, segment_s, keep,
                start=position, gauge=gauge if sweep else None,
            )
            speed, started = gauge.sample(), speed
            part.scale = nominal_scale([started, speed])
            loop.append(part)
            position += sum(part.sent)
        after = get_json(daemon.port, "/metrics")
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    samples = [sample for part in loop for sample in part.samples]
    if not samples:
        raise RuntimeError(f"no request succeeded: {loop[0].errors}")
    bodies: Dict[int, bytes] = {}
    for part in loop:
        for key, body in part.bodies.items():
            bodies.setdefault(key, body)
    mismatches = verify(work, work / "store", workload, keys, bodies)
    attempted = sum(part.attempted for part in loop)
    failed = sum(part.failed for part in loop)
    doc = {
        "correct": mismatches == 0 and bool(bodies),
        "attempted": attempted + len(bodies),
        "failed": failed + mismatches,
        "errors": [e for part in loop for e in part.errors][:KEEP_ERRORS],
        "checks": {"verified_responses": len(bodies), "mismatches": mismatches},
    }
    if not traced:
        # Every request of the run, its time at nominal machine speed
        # (see the gauge in harness).
        if workload.verb == "query":
            latencies = [latency * part.scale for part in loop for latency in part.latencies_ms]
            ops_per_s = len(latencies) / sum(part.elapsed_s * part.scale for part in loop)
        else:
            # Each key's median, so keys a run happened to repeat weigh
            # no more than the rest; one connection, so a sweep at those
            # latencies runs at 1 / mean requests per second.
            per_key: Dict[int, List[float]] = {}
            for latency, key in (sample for part in loop for sample in part.scaled):
                per_key.setdefault(key, []).append(latency)
            latencies = [median(times) for times in per_key.values()]
            ops_per_s = 1000.0 / mean(latencies)
        doc["metrics"] = {
            "setup_s": (median(setup_scaled), "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "latency_p50_ms": (percentile(latencies, 50), "ms"),
            "latency_p90_ms": (percentile(latencies, 90), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        lat = [latency for latency, _key in samples]
        doc["detail"] = {
            "setup_s": setup_times,
            "setup_scaled_s": setup_scaled,
            "gauge_s": gauge.samples,
            "connections": workload.connections,
            "placement": workload.placement,
            "error_share": failed / attempted,
            "keys_seen": len({key for _latency, key in samples}),
            "samples": len(latencies),
            # Per segment: successful requests, wall seconds, scale
            # factor, raw p50 and p90 [ms].
            "segments": [
                [len(part.samples), part.elapsed_s, part.scale,
                 percentile(part.latencies_ms, 50) if part.samples else None,
                 percentile(part.latencies_ms, 90) if part.samples else None]
                for part in loop
            ],
            "raw": {
                "ops_per_s": len(lat) / sum(part.elapsed_s for part in loop),
                "latency_p50_ms": percentile(lat, 50),
                "latency_p90_ms": percentile(lat, 90),
                "latency_p99_ms": percentile(lat, 99),
            },
        }
        return doc

    # The connections took interleaved slices of the schedule, so the
    # keys sent are (up to the last few) its first ``position`` entries.
    prefix = [schedule[i % len(schedule)] for i in range(position)]
    doc["metrics"] = _traced_metrics(
        work, work / "store", workload, keys, prefix, seconds / 2.0,
        loop[0], _counter_deltas(before, after),
    )
    return doc


def _replay(store, workload: HttpWorkload, keys, prefix: Sequence[int],
            budget_s: float, spans: Spans) -> Tuple[float, List[int]]:
    """Single-threaded in-process replay of ``prefix``; returns the wall
    time and the keys whose reply needed a decode."""
    from urllib.parse import parse_qs, urlsplit

    from repro import AnalyzeRequest, QueryRequest
    from repro.store.server import canonical_json

    metrics = store.metrics
    parse, verb, encode = (
        spans.durations["store.parse"],
        spans.durations["store.verb"],
        spans.durations["server.encode"],
    )
    cold: List[int] = []
    clock = time.perf_counter
    start = clock()
    if workload.verb == "query":
        targets = ["/query?" + query_string(k) for k in keys]
        for key in prefix:
            decodes = metrics.counter("qserve.decodes")
            t0 = clock()
            request = QueryRequest.from_query(
                parse_qs(urlsplit(targets[key]).query, keep_blank_values=True)
            )
            t1 = clock()
            doc = store.query(request)
            t2 = clock()
            canonical_json(doc) + b"\n"
            t3 = clock()
            parse.append(t1 - t0)
            verb.append(t2 - t1)
            encode.append(t3 - t2)
            if metrics.counter("qserve.decodes") != decodes:
                cold.append(key)
            if t3 - start > budget_s:
                break
    else:
        bodies = [analyze_body(k) for k in keys]
        for key in prefix:
            t0 = clock()
            request = AnalyzeRequest.from_dict(json.loads(bodies[key].decode("utf-8")))
            t1 = clock()
            doc = store.analyze(request)
            t2 = clock()
            canonical_json(doc) + b"\n"
            t3 = clock()
            parse.append(t1 - t0)
            verb.append(t2 - t1)
            encode.append(t3 - t2)
            if t3 - start > budget_s:
                break
    return clock() - start, cold


def _traced_metrics(work, store_dir, workload, keys, prefix, budget_s,
                    loop: LoopResult, daemon_delta: Dict[str, int]) -> Dict:
    from repro import Session
    from repro.analysis import frequency
    from repro.compact.qserve import DEFAULT_CACHE_BYTES, QueryEngine
    from repro.ir import parser

    spans = Spans()
    budget = workload.cache_bytes if workload.cache_bytes is not None else DEFAULT_CACHE_BYTES
    with Session(cache_bytes=budget) as session:
        with session.store(store_dir, catalog_path=work / "replay.sqlite") as store:
            _warm_in_process(store, workload, keys)
            tasks_before = store.metrics.counter("analysis.session_tasks")
            with spans.wrapping(QueryEngine, "traces_many", "analysis.traces"), \
                    spans.wrapping(frequency, "fact_frequencies_many", "analysis.frequency"), \
                    spans.wrapping(parser, "parse_program", "ir.parse"):
                wall, cold = _replay(store, workload, keys, prefix, budget_s, spans)
            tasks = store.metrics.counter("analysis.session_tasks") - tasks_before

    for key in sorted(set(cold))[:MAX_COLD_REPLAYS]:
        trace, fn = keys[key]
        t0 = time.perf_counter()
        engine = QueryEngine(store_dir / f"{trace}.twpp", cache_bytes=0)
        t1 = time.perf_counter()
        fc = engine.extract(fn)
        t2 = time.perf_counter()
        [fc.expand_pair(p) for p in range(len(fc.pairs))]
        t3 = time.perf_counter()
        engine.close()
        spans.durations["qserve.open"].append(t1 - t0)
        spans.durations["qserve.extract"].append(t2 - t1)
        spans.durations["qserve.expand"].append(t3 - t2)

    covered = spans.total("store.parse") + spans.total("store.verb") + spans.total("server.encode")
    hits = daemon_delta.get("qserve.cache.hits", 0)
    misses = daemon_delta.get("qserve.cache.misses", 0)
    is_query = workload.verb == "query"
    parse_ms, verb_ms, encode_ms = (
        spans.p50_ms("store.parse"), spans.p50_ms("store.verb"), spans.p50_ms("server.encode")
    )
    layer = {
        "qserve.open_ms": (spans.p50_ms("qserve.open"), "ms"),
        "qserve.extract_ms": (spans.p50_ms("qserve.extract"), "ms"),
        "qserve.expand_ms": (spans.p50_ms("qserve.expand"), "ms"),
        "qserve.decodes": (daemon_delta.get("qserve.decodes", 0), "count"),
        "qserve.hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "store.parse_ms": (parse_ms, "ms"),
        "store.query_ms": (verb_ms if is_query else 0.0, "ms"),
        "store.query_p99_ms": (spans.p99_ms("store.verb") if is_query else 0.0, "ms"),
        "store.evictions": (daemon_delta.get("store.evictions", 0), "count"),
        "server.encode_ms": (encode_ms, "ms"),
        # Means add up where medians do not: the residual is framing,
        # reactor handoff, socket I/O and waiting behind the other
        # connection.
        "server.transport_ms": (
            mean(loop.latencies_ms) - 1000.0 * sum(
                mean(spans.durations[n]) for n in ("store.parse", "store.verb", "server.encode")
            ),
            "ms",
        ),
        "serve.connections": (daemon_delta.get("serve.connections", 0), "count"),
        "serve.keepalive_requests": (daemon_delta.get("serve.keepalive_requests", 0), "count"),
        "http.errors": (daemon_delta.get("http.errors", 0), "count"),
        "analysis.request_ms": (0.0 if is_query else verb_ms, "ms"),
        "analysis.traces_ms": (spans.p50_ms("analysis.traces"), "ms"),
        "analysis.frequency_ms": (spans.p50_ms("analysis.frequency"), "ms"),
        "ir.parse_ms": (spans.p50_ms("ir.parse"), "ms"),
        "analysis.tasks": (tasks, "count"),
        "span_coverage": (covered / wall if wall else 0.0, "ratio"),
    }
    return layer
