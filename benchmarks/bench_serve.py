"""Extension bench: the trace-serving daemon under zipf-shaped traffic.

A closed-loop load generator against a multi-file
:class:`~repro.store.store.TraceStore`: N concurrent clients issue
query requests whose (trace, function) popularity follows a zipf
distribution -- the traffic shape a profile server actually sees, a few
hot functions dominating a long tail.  Measurements:

* **cold** — per-request engine construction: open the ``.twpp``,
  parse the header, decode the section, throw everything away.  What a
  process that dies between requests pays, and the baseline the warm
  store must beat 50x (both p50s are medians over repeats; each
  repeat's ratio is recorded in ``speedup_repeats``).
* **store** — the same zipf request stream served in-process by a warm
  ``TraceStore`` (the session's one cache budget, coalescing),
  p50/p99/qps.
* **http open/close** — the stream through the daemon with one TCP
  connection per request (``urllib`` sends ``Connection: close``):
  what PR 6's thread-per-connection server was stuck with (358.5 qps).
* **http keep-alive** — the headline row: raw-socket HTTP/1.1 clients
  reusing one connection each for a 10x-longer stream.  This is the
  ``http_qps`` the schema ``/2`` gate holds at >= 10x the open/close
  baseline.
* **eviction sweep** — the store replayed under shrinking session cache
  budgets, recording hit rate and cache entry evictions per budget,
  through ``store.query_json`` (the JSON fragments ``GET /query``
  serves) and through ``store.query`` (trace tuples, the in-process
  path), each verb's budgets scaled from its own working set.

Plus a coalescing check (T barrier-released threads requesting one
cold key, its decode slowed so they overlap, must cost exactly one
decode and T-1 coalesced waits) and a per-endpoint identity
check: every route -- ``/traces``, ``/query``, ``/stats``,
``/healthz``, ``/analyze``, ``/corpus/stats|hot|diff`` -- must answer
byte-identically to ``canonical_json(store.verb(request)) + b"\\n"``
computed in-process (``/metrics`` is volatile by design and only
schema-checked).

Results land in ``BENCH_serve.json`` (schema ``repro.bench_serve/2``).

Runs two ways::

    pytest benchmarks/bench_serve.py            # bench suite
    python benchmarks/bench_serve.py --smoke    # CI smoke gate

``--smoke`` uses small workloads and asserts only direction (store
p50 < cold p50, keep-alive qps > open/close qps); the full bench
asserts the >= 50x speedup and the >= 10x keep-alive throughput gate.
"""

from __future__ import annotations

import argparse
import json
import random
import socket
import statistics
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from repro.api import Session
from repro.bench.workbench import bench_scale
from repro.compact.qserve import DEFAULT_CACHE_BYTES, QueryEngine
from repro.ir.printer import format_program
from repro.store import (
    AnalyzeRequest,
    CorpusDiffRequest,
    CorpusHotRequest,
    CorpusStatsRequest,
    QueryRequest,
    StatsRequest,
    TraceServer,
    canonical_json,
)
from repro.trace.partition import partition_wpp
from repro.trace.wpp import collect_wpp
from repro.workloads.specs import workload

BENCH_SCHEMA = "repro.bench_serve/2"
STORE_WORKLOADS = ("perl-like", "li-like", "ijpeg-like")
ZIPF_S = 1.1
SEED = 20010609  # PLDI 2001

#: PR 6's thread-per-connection daemon under the same zipf stream
#: (schema ``/1`` measurement, scale 1.0): the open/close floor the
#: keep-alive front end must beat 10x.
BASELINE_HTTP_QPS = 358.5
QPS_GATE_FACTOR = 10
#: ``cold_ms_p50`` and ``store_ms_p50`` are medians over this many
#: repeats of both measurements: one 40-sample cold p50 alone put the
#: speedup anywhere from 42x to 77x run to run.
SPEEDUP_REPEATS = 5
#: The keep-alive stream is this many times longer than the base
#: schedule so the fast row still measures a meaningful wall time.
KEEPALIVE_STREAM_FACTOR = 10


def _percentile(values, q):
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


def build_store(root: Path, scale: float):
    """Write one ``.twpp`` + ``.ir`` per workload into ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    session = Session()
    names = []
    for name in STORE_WORKLOADS:
        program, _spec = workload(name, scale=scale)
        wpp = collect_wpp(program)
        session.compact(partition_wpp(wpp)).save(root / f"{name}.twpp")
        (root / f"{name}.ir").write_text(format_program(program) + "\n")
        names.append(name)
    session.close()
    return names


def build_corpus(root: Path, names):
    """Ingest the store's runs into a corpus dir so the daemon's
    ``/corpus/*`` routes have something real to serve."""
    corpus_root = root / "corpus"
    with Session() as session:
        with session.corpus(corpus_root) as corpus:
            corpus.ingest_runs([root / f"{name}.twpp" for name in names])
    return corpus_root


def zipf_keys(store):
    """Every (trace, function) pair, hottest first, with zipf weights.

    Rank by dynamic call count so the popular keys are the functions a
    profile consumer would actually hammer."""
    keys = []
    for row in store.traces()["traces"]:
        trace = row["trace"]
        index = store.stats(StatsRequest(trace=trace))["function_index"]
        for fn in index:
            keys.append((fn["calls"], trace, fn["name"]))
    keys.sort(key=lambda k: (-k[0], k[1], k[2]))
    keys = [(trace, name) for _, trace, name in keys]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(keys))]
    return keys, weights


def make_schedule(keys, weights, n_requests, seed=SEED):
    rng = random.Random(seed)
    return rng.choices(keys, weights=weights, k=n_requests)


def measure_cold(schedule, store, rounds):
    """Per-request engine construction cost over the zipf schedule."""
    latencies = []
    for trace, fn in schedule[:rounds]:
        path = store.root / f"{trace}.twpp"
        t0 = time.perf_counter()
        with QueryEngine(path, cache_bytes=0) as engine:
            engine.traces(fn)
        latencies.append((time.perf_counter() - t0) * 1000.0)
    return latencies


def run_clients(n_clients, schedule, issue):
    """Closed loop: each client issues its slice of the schedule."""
    latencies = [[] for _ in range(n_clients)]
    errors = []

    def client(idx):
        try:
            for trace, fn in schedule[idx::n_clients]:
                t0 = time.perf_counter()
                issue(trace, fn)
                latencies[idx].append((time.perf_counter() - t0) * 1000.0)
        except Exception as exc:  # noqa: BLE001 - reported in the doc
            errors.append(f"client {idx}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(n_clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    flat = [ms for per in latencies for ms in per]
    return flat, wall, errors


class KeepAliveClient:
    """A minimal raw-socket HTTP/1.1 client pinned to one connection.

    ``http.client`` burns most of a small response's budget on header
    objects and readline buffering; a profile dashboard (or a load
    balancer health check) holding a connection open is closer to this:
    write the request line, read ``Content-Length`` body bytes, repeat
    on the same socket.
    """

    def __init__(self, host, port):
        self.host = host
        self.port = port
        self.sock = None
        self.buf = b""

    def connect(self):
        self.sock = socket.create_connection((self.host, self.port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def get(self, target):
        if self.sock is None:
            self.connect()
        self.sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode(
                "ascii"
            )
        )
        return self._read_response()

    def _read_response(self):
        while b"\r\n\r\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-response")
            self.buf += chunk
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            rest += chunk
        body, self.buf = rest[:length], rest[length:]
        return status, body

    def close(self):
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def measure_keepalive(server, n_clients, schedule):
    """The zipf stream over persistent connections, one per client."""
    latencies = [[] for _ in range(n_clients)]
    errors = []

    def client(idx):
        conn = KeepAliveClient(server.host, server.port)
        try:
            conn.connect()
            for trace, fn in schedule[idx::n_clients]:
                t0 = time.perf_counter()
                status, _body = conn.get(f"/query?trace={trace}&fn={fn}")
                if status != 200:
                    raise RuntimeError(f"status {status}")
                latencies[idx].append((time.perf_counter() - t0) * 1000.0)
        except Exception as exc:  # noqa: BLE001 - reported in the doc
            errors.append(f"client {idx}: {type(exc).__name__}: {exc}")
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(i,)) for i in range(n_clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    flat = [ms for per in latencies for ms in per]
    return flat, wall, errors


def check_identity(server, store, schedule, runs):
    """Byte-for-byte: every endpoint vs the in-process store verb.

    Returns {endpoint: bool}.  ``/metrics`` mutates on every read
    (timers, its own request counter) so byte-identity is meaningless
    there; it gets a schema check instead.
    """

    def http(path, body=None):
        req = urllib.request.Request(
            server.url + path,
            data=body,
            headers={"Content-Type": "application/json"} if body else {},
        )
        with urllib.request.urlopen(req) as resp:
            return resp.read()

    def same(path, doc, body=None):
        return http(path, body) == canonical_json(doc) + b"\n"

    trace, fn = schedule[0]
    analyze = {"trace": trace, "fact": "def:acc", "functions": [fn]}
    checks = {
        "query": all(
            same(
                f"/query?trace={t}&fn={f}",
                store.query(QueryRequest(trace=t, functions=(f,))),
            )
            for t, f in dict.fromkeys(schedule[:10])
        ),
        "traces": same("/traces", store.traces()),
        "stats": same("/stats", store.stats(StatsRequest())),
        "stats_trace": same(
            f"/stats?trace={trace}", store.stats(StatsRequest(trace=trace))
        ),
        "healthz": same("/healthz", store.healthz()),
        "analyze": same(
            "/analyze",
            store.analyze(AnalyzeRequest.from_dict(analyze)),
            body=json.dumps(analyze).encode("utf-8"),
        ),
        "corpus_stats": same(
            "/corpus/stats", store.corpus_stats(CorpusStatsRequest())
        ),
        "corpus_hot": same(
            "/corpus/hot?top=5", store.corpus_hot(CorpusHotRequest(top=5))
        ),
        "corpus_diff": same(
            f"/corpus/diff?a={runs[0]}&b={runs[1]}",
            store.corpus_diff(CorpusDiffRequest(run_a=runs[0], run_b=runs[1])),
        ),
        "metrics": json.loads(http("/metrics"))["schema"]
        == "repro.metrics/1",
    }
    return checks


def check_coalescing(root, hot_key, n_threads=8):
    """T threads, one barrier, one cold key -> exactly one decode.

    The decode is slowed by 50 ms so every thread arrives while the
    first one is still loading: the other T-1 must wait on that load
    (``coalesced``) rather than find a warm cache.
    """
    session = Session()
    store = session.store(root)
    engine = store.engine(hot_key[0])
    real_decode = engine._decode

    def slow_decode(entry):
        time.sleep(0.05)
        return real_decode(entry)

    engine._decode = slow_decode
    barrier = threading.Barrier(n_threads)
    request = QueryRequest(trace=hot_key[0], functions=(hot_key[1],))

    def worker():
        barrier.wait()
        store.query(request)

    threads = [threading.Thread(target=worker) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    doc = {
        "threads": n_threads,
        "decodes": session.metrics.counter("qserve.decodes"),
        "coalesced": session.metrics.counter("qserve.cache.coalesced"),
    }
    store.close()
    session.close()
    return doc


def _replay(root, schedule, verb, budget):
    """Replay the schedule through one store verb under one session
    cache budget; returns the cache stats and per-request latencies."""
    session = Session(cache_bytes=budget)
    store = session.store(root)
    serve = getattr(store, verb)
    latencies = []
    for trace, fn in schedule:
        t0 = time.perf_counter()
        serve(QueryRequest(trace=trace, functions=(fn,)))
        latencies.append((time.perf_counter() - t0) * 1000.0)
    cache = store.cache_stats()
    store.close()
    session.close()
    return cache, latencies


def eviction_sweep(root, schedule):
    """Replay the schedule under shrinking session cache budgets, once
    through each store verb that caches a different form: ``query_json``
    (the wire path) and ``query`` (tuples).  Each verb's budgets are 2x,
    0.5x and a fixed 4 KiB of the bytes its own forms take when the
    whole schedule fits (``working_set_bytes``)."""
    sweep = []
    for verb in ("query_json", "query"):
        cache, _ = _replay(root, schedule, verb, DEFAULT_CACHE_BYTES)
        needed = max(cache["bytes"], 1)
        for budget in (needed * 2, max(needed // 2, 1024), 4096):
            cache, latencies = _replay(root, schedule, verb, budget)
            sweep.append(
                {
                    "verb": verb,
                    "working_set_bytes": needed,
                    "budget_bytes": budget,
                    "hit_rate": round(cache["hit_rate"], 4),
                    "evictions": cache["evictions"],
                    "p50_ms": round(_percentile(latencies, 0.5), 4),
                }
            )
    return sweep


def run_bench(scale=1.0, smoke=False, out_dir=None, clients=8, requests=400):
    """Build the store, run every measurement; returns the JSON doc."""
    if smoke:
        scale, clients, requests = min(scale, 0.1), 4, 120
    root = Path(out_dir) if out_dir else Path(tempfile.mkdtemp(prefix="repro-serve-"))
    names = build_store(root, scale)
    corpus_root = build_corpus(root, names)

    session = Session()
    store = session.store(root, corpus=corpus_root)
    keys, weights = zipf_keys(store)
    schedule = make_schedule(keys, weights, requests)
    ka_schedule = make_schedule(
        keys, weights, requests * KEEPALIVE_STREAM_FACTOR, seed=SEED + 1
    )

    # Requests are built once up front: constructing (and validating)
    # the dataclass is client-side work, not serving cost.
    req_for = {
        key: QueryRequest(trace=key[0], functions=(key[1],))
        for key in dict.fromkeys(schedule)
    }

    # Warm every scheduled key once, then measure the serial warm
    # per-request cost -- the apples-to-apples partner of `cold_ms`
    # (the concurrent loop below measures throughput, where per-request
    # wall time also contains scheduler wait).  Each repeat measures
    # both sides; the gated p50s are medians over the repeats.
    for req in req_for.values():
        store.query(req)
    cold_ms, store_ms, repeat_p50s = [], [], []
    for _ in range(SPEEDUP_REPEATS):
        cold = measure_cold(schedule, store, rounds=min(len(schedule), 40))
        warm = []
        for key in schedule:
            t0 = time.perf_counter()
            store.query(req_for[key])
            warm.append((time.perf_counter() - t0) * 1000.0)
        cold_ms += cold
        store_ms += warm
        repeat_p50s.append((_percentile(cold, 0.5), _percentile(warm, 0.5)))

    _, store_wall, store_errors = run_clients(
        clients, schedule, lambda trace, fn: store.query(req_for[(trace, fn)])
    )
    store_qps = len(schedule) / store_wall if store_wall else None
    cache = store.cache_stats()

    # The same stream over HTTP: identity first, then the two
    # transport rows.  urllib opens one connection per request and
    # sends `Connection: close` -- the open/close row is a genuine
    # per-request-connection measurement.
    server = TraceServer(store).start()
    identity = check_identity(server, store, schedule, names)

    def http_get(trace, fn):
        url = f"{server.url}/query?trace={trace}&fn={fn}"
        with urllib.request.urlopen(url) as resp:
            return resp.read()

    oc_ms, oc_wall, oc_errors = run_clients(
        clients, schedule, lambda trace, fn: http_get(trace, fn) and None
    )
    ka_ms, ka_wall, ka_errors = measure_keepalive(
        server, clients, ka_schedule
    )
    serve_counters = {
        name: store.metrics.counter(name)
        for name in (
            "serve.connections",
            "serve.keepalive_requests",
            "serve.pipelined",
            "http.requests",
            "http.errors",
        )
    }
    server.stop()

    rows = store.traces()["traces"]
    store.close()
    session.close()

    coalesce = check_coalescing(root, schedule[0])
    sweep = eviction_sweep(root, schedule)

    cold_p50 = statistics.median(cold for cold, _ in repeat_p50s)
    store_p50 = statistics.median(warm for _, warm in repeat_p50s)
    return {
        "schema": BENCH_SCHEMA,
        "unix_time": round(time.time(), 3),
        "smoke": smoke,
        "scale": scale,
        "workloads": names,
        "traces": len(rows),
        "functions": sum(r["functions"] for r in rows),
        "store_bytes": sum(r["size"] for r in rows),
        "zipf_s": ZIPF_S,
        "seed": SEED,
        "clients": clients,
        "requests": requests,
        "keepalive_requests": len(ka_schedule),
        "cold_ms_p50": round(cold_p50, 4),
        "cold_ms_p99": round(_percentile(cold_ms, 0.99), 4),
        "store_ms_p50": round(store_p50, 4),
        "store_ms_p99": round(_percentile(store_ms, 0.99), 4),
        "store_qps": round(store_qps, 1) if store_qps else None,
        "http_openclose_ms_p50": round(_percentile(oc_ms, 0.5), 4),
        "http_openclose_ms_p99": round(_percentile(oc_ms, 0.99), 4),
        "http_openclose_qps": (
            round(len(oc_ms) / oc_wall, 1) if oc_wall else None
        ),
        "http_ms_p50": round(_percentile(ka_ms, 0.5), 4) if ka_ms else None,
        "http_ms_p99": round(_percentile(ka_ms, 0.99), 4) if ka_ms else None,
        "http_qps": (
            round(len(ka_ms) / ka_wall, 1) if ka_wall and ka_ms else None
        ),
        "baseline_http_qps": BASELINE_HTTP_QPS,
        "http_qps_gate": round(BASELINE_HTTP_QPS * QPS_GATE_FACTOR, 1),
        "speedup_p50": round(cold_p50 / store_p50, 1) if store_p50 else None,
        "speedup_repeats": [
            round(cold / warm, 1) if warm else None
            for cold, warm in repeat_p50s
        ],
        "cache_hit_rate": round(cache["hit_rate"], 4),
        "cache_bytes": cache["bytes"],
        "identity": identity,
        "identical_http_vs_store": all(identity.values()),
        "serve_counters": serve_counters,
        "coalesce": coalesce,
        "eviction_sweep": sweep,
        "errors": store_errors + oc_errors + ka_errors,
    }


def write_doc(doc, out_path):
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    return out_path


def check_doc(doc, smoke):
    """The gate both entry points share; returns a list of failures."""
    failures = []
    if doc["errors"]:
        failures.append(f"client errors: {doc['errors'][:3]}")
    if not doc["identical_http_vs_store"]:
        broken = sorted(k for k, ok in doc["identity"].items() if not ok)
        failures.append(
            "HTTP responses diverged from in-process store calls: "
            + ", ".join(broken)
        )
    coalesce = doc["coalesce"]
    if coalesce["decodes"] != 1 or coalesce["coalesced"] != (
        coalesce["threads"] - 1
    ):
        failures.append(
            f"coalescing broken: {coalesce['decodes']} decodes and "
            f"{coalesce['coalesced']} coalesced waits for one hot key "
            f"across {coalesce['threads']} threads"
        )
    if smoke:
        if doc["store_ms_p50"] >= doc["cold_ms_p50"]:
            failures.append("warm store p50 not below cold p50")
        if doc["http_qps"] <= doc["http_openclose_qps"]:
            failures.append(
                f"keep-alive {doc['http_qps']} qps not above open/close "
                f"{doc['http_openclose_qps']} qps"
            )
    else:
        if doc["speedup_p50"] < 50:
            failures.append(
                f"warm store speedup x{doc['speedup_p50']} below the 50x gate"
            )
        if doc["http_qps"] < doc["http_qps_gate"]:
            failures.append(
                f"keep-alive {doc['http_qps']} qps below the gate "
                f"({QPS_GATE_FACTOR}x {BASELINE_HTTP_QPS} = "
                f"{doc['http_qps_gate']})"
            )
    return failures


# ---------------------------------------------------------------------------
# pytest entry point (bench suite)


def test_serve_zipf_load(results_dir, tmp_path):
    """Warm store beats per-request engine construction >= 50x under the
    zipf workload; keep-alive HTTP beats the PR 6 open/close baseline
    10x; every endpoint is byte-identical; coalescing costs one decode."""
    doc = run_bench(scale=max(1.0, bench_scale()), out_dir=tmp_path)
    out = write_doc(doc, Path(results_dir) / "BENCH_serve.json")
    print(f"\nwrote {out}")
    print(
        f"cold p50 {doc['cold_ms_p50']}ms, store p50 {doc['store_ms_p50']}ms "
        f"=> x{doc['speedup_p50']}; http open/close "
        f"{doc['http_openclose_qps']} qps, keep-alive {doc['http_qps']} qps "
        f"(gate {doc['http_qps_gate']})"
    )
    failures = check_doc(doc, smoke=False)
    assert not failures, failures


# ---------------------------------------------------------------------------
# standalone entry point (CI smoke gate)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Zipf closed-loop load bench for the trace-serving stack"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small workloads, direction-only assertion")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (default: REPRO_BENCH_SCALE)")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests", type=int, default=400)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default results/BENCH_serve.json)")
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else max(1.0, bench_scale())
    doc = run_bench(
        scale=scale,
        smoke=args.smoke,
        clients=args.clients,
        requests=args.requests,
    )
    default_out = (
        Path(__file__).resolve().parent.parent / "results" / "BENCH_serve.json"
    )
    out = write_doc(doc, args.out or default_out)
    print(json.dumps(doc, indent=2))
    print(f"wrote {out}", file=sys.stderr)

    failures = check_doc(doc, smoke=args.smoke)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
