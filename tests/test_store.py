"""Tests for repro.store: the trace index, TraceStore, requests, the
session cache's budget, eviction, coalescing."""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.request import urlopen

import pytest

import repro
from repro.api import Session
from repro.compact.qserve import limit_traces_json
from repro.ir.printer import format_program
from repro.store import (
    AnalyzeRequest,
    CorpusHotRequest,
    QueryRequest,
    RequestError,
    StatsRequest,
    TraceNotFound,
    TraceServer,
    TraceStore,
)
from repro.store.server import canonical_json
from repro.trace import collect_wpp, partition_wpp
from repro.workloads.specs import workload

#: A trace stem that JSON must escape: a quote and non-ASCII letters.
ESCAPED_STEM = 'li "quoted" \u00e9\u00fc'


#: A well-formed program whose only function is ``main``: it lacks every
#: other function a workload trace holds.
MAIN_ONLY_IR = "func main() entry=B1 {\n  B1:\n    return 0\n}\n"


def write_trace(root, name, scale=0.05, with_ir=True):
    """One workload compacted into ``root/name.twpp`` (+ ``name.ir``)."""
    program, _spec = workload(name, scale=scale)
    session = Session()
    session.compact(partition_wpp(collect_wpp(program))).save(
        root / f"{name}.twpp"
    )
    session.close()
    if with_ir:
        (root / f"{name}.ir").write_text(format_program(program) + "\n")
    return program


@pytest.fixture(scope="module")
def store_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    write_trace(root, "li-like")
    write_trace(root, "ijpeg-like")
    return root


@pytest.fixture(scope="module")
def wire_root(tmp_path_factory):
    """Three traces, one of them under a stem JSON has to escape."""
    root = tmp_path_factory.mktemp("wire")
    write_trace(root, "li-like")
    write_trace(root, "perl-like", with_ir=False)
    shutil.copy(root / "li-like.twpp", root / f"{ESCAPED_STEM}.twpp")
    return root


def function_names(store, trace):
    """``trace``'s function names in storage (hottest-first) order."""
    index = store.stats(StatsRequest(trace=trace))["function_index"]
    return [row["name"] for row in index]


def cache_bytes_of(session, owner):
    """Bytes the session cache holds under keys that ``owner`` owns."""
    with session.cache._lock:
        return sum(
            cost
            for key, (_value, cost) in session.cache._entries.items()
            if key[0] is owner
        )


def query_matrix(store):
    """Every (trace, function) of ``store`` at limits {None, 0, 1,
    len-1, len, len+5}, plus per trace a repeated function, several
    functions out of order, and all functions."""
    for row in store.traces()["traces"]:
        trace = row["trace"]
        names = function_names(store, trace)
        for name in names:
            count = len(
                store.query(QueryRequest(trace=trace, functions=(name,)))[
                    "functions"
                ][name]
            )
            for limit in sorted({0, 1, max(count - 1, 0), count, count + 5}):
                yield QueryRequest(trace=trace, functions=(name,), limit=limit)
            yield QueryRequest(trace=trace, functions=(name,))
        yield QueryRequest(trace=trace, functions=(names[0], names[0]))
        yield QueryRequest(
            trace=trace, functions=tuple(reversed(names[:4])), limit=2
        )
        yield QueryRequest(trace=trace)
        yield QueryRequest(trace=trace, limit=1)


@pytest.fixture
def store(store_root):
    with TraceStore(store_root) as store:
        yield store


class TestRequests:
    def test_query_request_from_query_string_params(self):
        req = QueryRequest.from_query(
            {"trace": ["run"], "fn": ["a", "b"], "limit": ["3"]}
        )
        assert req == QueryRequest(trace="run", functions=("a", "b"), limit=3)

    def test_query_request_rejects_unknown_params(self):
        with pytest.raises(RequestError):
            QueryRequest.from_query({"trace": ["run"], "nope": ["1"]})
        with pytest.raises(RequestError):
            QueryRequest.from_dict({"trace": "run", "nope": 1})

    def test_query_request_validates_types(self):
        with pytest.raises(RequestError):
            QueryRequest(trace="")
        with pytest.raises(RequestError):
            QueryRequest(trace="run", limit=-1)
        with pytest.raises(RequestError):
            QueryRequest(trace="run", functions=(1,))

    def test_analyze_request_requires_fact(self):
        with pytest.raises(RequestError):
            AnalyzeRequest.from_dict({"trace": "run"})


def listing(store):
    return [row["trace"] for row in store.traces()["traces"]]


class TestCatalog:
    """:meth:`TraceStore.scan`'s reconcile rules for the trace index."""

    def test_scan_reports_added_then_unchanged(self, tmp_path):
        write_trace(tmp_path, "li-like")
        with TraceStore(tmp_path) as store:
            shutil.copy(tmp_path / "li-like.twpp", tmp_path / "copy.twpp")
            first = store.scan()
            assert (first.added, first.unchanged) == (1, 1)
            second = store.scan()
            assert (second.added, second.unchanged) == (0, 2)
            assert not second.changed
            assert listing(store) == ["copy", "li-like"]
            assert store.metrics.counter("store.scan.added") == 2

    def test_scan_sees_update_and_removal(self, tmp_path):
        write_trace(tmp_path, "li-like")
        with TraceStore(tmp_path) as store:
            twpp = tmp_path / "li-like.twpp"
            data = twpp.read_bytes()
            time.sleep(0.01)  # ensure a fresh mtime_ns
            twpp.write_bytes(data)
            assert store.scan().updated == 1
            twpp.unlink()
            result = store.scan()
            assert result.removed == 1
            assert len(store) == 0 and listing(store) == []

    def test_catalog_matches_header(self, store_root):
        with TraceStore(store_root) as store:
            row = store.stats(StatsRequest(trace="li-like"))
            assert row["has_program"]
            engine = store.engine("li-like")
            entries = engine.header.entries
            assert function_names(store, "li-like") == engine.function_names()
            assert row["function_index"] == [
                {
                    "name": e.name,
                    "calls": e.call_count,
                    "section_offset": e.offset,
                    "section_bytes": e.length,
                }
                for e in entries
            ]
            assert row["functions"] == len(entries)
            assert row["calls"] == sum(e.call_count for e in entries)
            assert row["size"] == (store_root / "li-like.twpp").stat().st_size

    def test_program_added_beside_unchanged_trace(self, tmp_path):
        write_trace(tmp_path, "li-like", with_ir=False)
        with TraceStore(tmp_path) as store:
            assert store.traces()["traces"][0]["has_program"] is False
            program, _spec = workload("li-like", scale=0.05)
            (tmp_path / "li-like.ir").write_text(
                format_program(program) + "\n"
            )
            listing = store.traces(refresh=True)["traces"]
            assert listing[0]["has_program"] is True
            assert store.stats(StatsRequest(trace="li-like"))["has_program"]
            (tmp_path / "li-like.ir").unlink()
            listing = store.traces(refresh=True)["traces"]
            assert listing[0]["has_program"] is False

    def test_unparsable_file_reported_not_fatal(self, tmp_path):
        write_trace(tmp_path, "li-like")
        (tmp_path / "junk.twpp").write_bytes(b"not a twpp file")
        with TraceStore(tmp_path) as store:
            assert "junk" not in store
            result = store.scan()
            assert result.unchanged == 1 and len(result.errors) == 1
            assert "junk" in result.errors[0] and not result.changed
            assert listing(store) == ["li-like"]

    def test_truncated_file_is_a_removal_not_an_error(self, tmp_path):
        write_trace(tmp_path, "li-like")
        with TraceStore(tmp_path) as store:
            (tmp_path / "li-like.twpp").write_bytes(b"")
            result = store.scan()
            assert result.removed == 1 and not result.errors
            assert "li-like" not in store

    def test_concurrent_scans_queries_and_rewrites(self, tmp_path):
        """Scans from 4 threads, queries and listings from 2 and one
        thread replacing a ``.twpp``, switching threads as often as the
        interpreter allows: no exception, and the final listing is a
        fresh store's."""
        write_trace(tmp_path, "li-like")
        write_trace(tmp_path, "ijpeg-like", with_ir=False)
        twpp = tmp_path / "li-like.twpp"
        data = twpp.read_bytes()
        with TraceStore(tmp_path) as store:
            requests = [
                QueryRequest(trace=trace, functions=(name,))
                for trace in ("li-like", "ijpeg-like")
                for name in function_names(store, trace)[:3]
            ]
            expected = [canonical_json(store.query(r)) for r in requests]
            stop = threading.Event()
            errors = []

            def run(body):
                try:
                    while not stop.is_set():
                        body()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(repr(exc))
                    stop.set()

            def scan():
                store.scan()
                store.traces(refresh=True)

            def query():
                for request, body in zip(requests, expected):
                    if store.query_json(request) != body:
                        raise AssertionError(f"wrong body for {request}")
                    if len(store.traces()["traces"]) != 2:
                        raise AssertionError("a trace left the listing")
                    store.stats()

            def rewrite():
                # Replace, never truncate in place: a live mapping of a
                # file truncated under it faults the process.
                tmp = tmp_path / "li-like.twpp.tmp"
                tmp.write_bytes(data)
                os.replace(tmp, twpp)

            threads = [
                threading.Thread(target=run, args=(body,))
                for body in [scan] * 4 + [query] * 2 + [rewrite]
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                time.sleep(1.0)
                stop.set()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            store.scan()
            with TraceStore(tmp_path) as fresh:
                assert store.traces() == fresh.traces()
                assert store.healthz() == fresh.healthz()


class TestNoSideEffects:
    def test_serving_does_not_import_sqlite(self):
        code = (
            "import sys, repro.store.server; "
            "assert 'sqlite3' not in sys.modules, 'sqlite3 imported'"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_store_and_server_write_nothing_into_the_store(self, tmp_path):
        write_trace(tmp_path, "li-like")
        before = sorted(os.listdir(tmp_path))
        with Session() as session:
            store = session.store(tmp_path)
            server = TraceServer(store).start()
            try:
                for path in (
                    "/healthz", "/traces", "/stats", "/query?trace=li-like"
                ):
                    with urlopen(server.url + path, timeout=30) as resp:
                        assert resp.status == 200
            finally:
                server.stop()
            store.analyze(AnalyzeRequest(trace="li-like", fact="def:acc"))
            store.close()
        assert sorted(os.listdir(tmp_path)) == before


class TestTraceStore:
    def test_query_matches_session(self, store, store_root):
        doc = store.query(QueryRequest(trace="li-like"))
        assert doc["trace"] == "li-like"
        with Session() as session:
            for name, traces in doc["functions"].items():
                expected = session.query(store_root / "li-like.twpp", name)
                assert [tuple(t) for t in traces] == expected

    def test_query_limit(self, store):
        full = store.query(QueryRequest(trace="li-like"))
        name = max(full["functions"], key=lambda n: len(full["functions"][n]))
        doc = store.query(QueryRequest(trace="li-like", functions=(name,), limit=1))
        assert doc["functions"][name] == full["functions"][name][:1]

    def test_unknown_trace_and_function_raise(self, store):
        with pytest.raises(TraceNotFound):
            store.query(QueryRequest(trace="nope"))
        with pytest.raises(TraceNotFound):
            store.query(QueryRequest(trace="li-like", functions=("nope",)))

    def test_query_rejects_untyped_args(self, store):
        with pytest.raises(RequestError):
            store.query("li-like")

    def test_analyze_matches_session(self, store, store_root):
        req = AnalyzeRequest(trace="li-like", fact="def:acc")
        doc = store.analyze(req)
        assert doc["trace"] == "li-like" and doc["fact"] == "def:acc"
        with Session() as session:
            reports = session.analyze(
                store_root / "li-like.twpp",
                store_root / "li-like.ir",
                "def:acc",
            )
        assert set(doc["functions"]) == set(reports)
        for name, func_reports in reports.items():
            got = doc["functions"][name]
            assert [r.total_queries for r in func_reports] == [
                g["total_queries"] for g in got
            ]

    def test_analyze_rejects_bad_fact_and_escaping_program(self, store):
        with pytest.raises(RequestError):
            store.analyze(AnalyzeRequest(trace="li-like", fact="not a fact"))
        with pytest.raises(RequestError):
            store.analyze(
                AnalyzeRequest(
                    trace="li-like", fact="def:acc", program="../outside.ir"
                )
            )

    @pytest.mark.parametrize("text, fault", [
        ("func main(\n  garbage\n", "line 1"),
        (MAIN_ONLY_IR, "no function named"),
    ], ids=["malformed", "main-only"])
    def test_analyze_rejects_a_program_that_does_not_fit(
        self, tmp_path, text, fault
    ):
        """Unparsable IR, or IR lacking a traced function, is the
        request's fault (400), not a server error."""
        write_trace(tmp_path, "li-like")
        (tmp_path / "wrong.ir").write_text(text)
        with TraceStore(tmp_path) as store:
            with pytest.raises(RequestError) as exc_info:
                store.analyze(
                    AnalyzeRequest(
                        trace="li-like", fact="def:acc", program="wrong.ir"
                    )
                )
            message = str(exc_info.value)
            assert "'wrong.ir'" in message and fault in message
            (tmp_path / "li-like.ir").write_text(text)
            with pytest.raises(RequestError, match="'li-like.ir'"):
                store.analyze(AnalyzeRequest(trace="li-like", fact="def:acc"))

    def test_stats_store_level(self, store):
        doc = store.stats()
        assert doc["traces"] == 2
        assert doc["functions"] > 0 and doc["calls"] > 0 and doc["bytes"] > 0
        assert doc["cache"]["budget_bytes"] == store.session.cache_bytes
        assert doc["cache"]["bytes"] <= doc["cache"]["budget_bytes"]
        assert "evictions" in doc["cache"]

    def test_stats_per_trace(self, store):
        store.query(QueryRequest(trace="li-like"))
        doc = store.stats(StatsRequest(trace="li-like"))
        assert doc["trace"] == "li-like" and doc["warm"]
        assert doc["function_index"]
        assert {"name", "calls", "section_offset", "section_bytes"} <= set(
            doc["function_index"][0]
        )

    def test_lazy_rescan_finds_new_file(self, tmp_path):
        write_trace(tmp_path, "li-like")
        with TraceStore(tmp_path) as store:
            assert len(store) == 1
            write_trace(tmp_path, "ijpeg-like", with_ir=False)
            doc = store.query(QueryRequest(trace="ijpeg-like"))
            assert doc["trace"] == "ijpeg-like"
            assert len(store) == 2

    def test_refresh_drops_removed_file(self, tmp_path):
        write_trace(tmp_path, "li-like")
        write_trace(tmp_path, "ijpeg-like", with_ir=False)
        with TraceStore(tmp_path) as store:
            store.query(QueryRequest(trace="ijpeg-like"))
            (tmp_path / "ijpeg-like.twpp").unlink()
            listing = store.traces(refresh=True)
            assert [t["trace"] for t in listing["traces"]] == ["li-like"]
            # the stale engine was evicted along with the file
            path = str(tmp_path / "ijpeg-like.twpp")
            assert path not in store.session._engines


class TestQueryJson:
    """``query_json`` is ``canonical_json(query(...))``, byte for byte."""

    @pytest.mark.parametrize(
        "cache_bytes", [None, 0, 8192], ids=["warm", "no-cache", "8KiB"]
    )
    def test_identity_matrix(self, wire_root, cache_bytes):
        kwargs = {} if cache_bytes is None else {"cache_bytes": cache_bytes}
        with Session(**kwargs) as session:
            store = session.store(wire_root)
            assert ESCAPED_STEM in store
            requests = list(query_matrix(store))
            for _pass in range(2):  # cold fill, then whatever stayed warm
                for request in requests:
                    assert store.query_json(request) == canonical_json(
                        store.query(request)
                    ), request
            store.close()

    def test_limit_slices_the_fragment(self):
        fragment = json.dumps([[1, 2], [3], [4, 5, 6]]).replace(" ", "")
        fragment = fragment.encode("ascii")
        for limit in range(6):
            assert limit_traces_json(fragment, limit) == json.dumps(
                [[1, 2], [3], [4, 5, 6]][:limit], separators=(",", ":")
            ).encode("ascii")
        assert limit_traces_json(b"[]", 1) == b"[]"
        assert limit_traces_json(b"[[]]", 1) == b"[[]]"

    def test_fragment_bytes_count_against_the_cache(self, store_root):
        with Session() as session:
            store = session.store(store_root)
            name = function_names(store, "li-like")[0]
            engine = store.engine("li-like")
            engine.extract(name)
            before = store.cache_stats()["bytes"]
            store.query_json(QueryRequest(trace="li-like", functions=(name,)))
            fragment = engine.cached_traces_json(name)
            assert fragment is not None
            assert store.cache_stats()["bytes"] - before >= len(fragment)
            # cached in place of the expanded tuples, not beside them
            assert engine.cached_traces(name) is None
            store.close()

    def test_warm_request_does_not_encode(self, store_root, monkeypatch):
        with Session() as session:
            store = session.store(store_root)
            name = function_names(store, "li-like")[0]
            request = QueryRequest(trace="li-like", functions=(name,), limit=1)
            calls = []
            real = json.dumps

            def counting_dumps(*args, **kwargs):
                calls.append(args[0])
                return real(*args, **kwargs)

            monkeypatch.setattr(json, "dumps", counting_dumps)
            first = store.query_json(request)
            assert calls  # the cold request did encode
            calls.clear()
            assert store.query_json(request) == first
            assert calls == []
            store.close()


class TestStaleFiles:
    """Files deleted or truncated *between* scans must surface as
    :class:`TraceNotFound`, never as a decode error (or worse, a fault
    from mapping a truncated file)."""

    def test_deleted_file_raises_not_found_on_cold_request(self, tmp_path):
        write_trace(tmp_path, "li-like", with_ir=False)
        with TraceStore(tmp_path) as store:
            names = function_names(store, "li-like")
            assert len(names) >= 2
            store.query(QueryRequest(trace="li-like", functions=(names[0],)))
            (tmp_path / "li-like.twpp").unlink()
            with pytest.raises(TraceNotFound):
                store.query(
                    QueryRequest(trace="li-like", functions=(names[1],))
                )
            assert store.metrics.counter("store.stale_detected") == 1
            assert len(store) == 0

    def test_truncated_file_raises_not_found_on_cold_request(self, tmp_path):
        write_trace(tmp_path, "li-like", with_ir=False)
        with TraceStore(tmp_path) as store:
            names = function_names(store, "li-like")
            store.query(QueryRequest(trace="li-like", functions=(names[0],)))
            (tmp_path / "li-like.twpp").write_bytes(b"")
            with pytest.raises(TraceNotFound):
                store.query(
                    QueryRequest(trace="li-like", functions=(names[1],))
                )
            assert store.metrics.counter("store.stale_detected") == 1

    def test_warm_cache_hits_survive_deletion(self, tmp_path):
        write_trace(tmp_path, "li-like", with_ir=False)
        with TraceStore(tmp_path) as store:
            name = function_names(store, "li-like")[0]
            request = QueryRequest(trace="li-like", functions=(name,))
            before = store.query(request)
            (tmp_path / "li-like.twpp").unlink()
            # Already-decoded keys are answered from the warm engine's
            # cache without touching the file at all.
            assert store.query(request) == before
            assert store.metrics.counter("store.stale_detected") == 0

    def test_analyze_on_deleted_file_raises_not_found(self, tmp_path):
        write_trace(tmp_path, "li-like")
        with TraceStore(tmp_path) as store:
            (tmp_path / "li-like.twpp").unlink()
            with pytest.raises(TraceNotFound):
                store.analyze(
                    AnalyzeRequest(trace="li-like", fact="def:acc")
                )


class TestEviction:
    def test_session_evict(self, store_root):
        with Session() as session:
            path = store_root / "li-like.twpp"
            assert session.evict(path) is False
            session.query(path, session.engine(path).function_names()[0])
            assert session.evict(path) is True
            assert session.metrics.counter("session.evictions") == 1
            # next use transparently reopens
            assert session.engine(path).function_names()

    def test_evict_leaves_none_of_the_engines_bytes(self, store_root):
        with Session() as session:
            store = session.store(store_root)
            store.query_json(QueryRequest(trace="li-like"))
            store.query(QueryRequest(trace="ijpeg-like"))
            path = str(store_root / "li-like.twpp")
            engine = session.engine(path)
            owned = cache_bytes_of(session, engine)
            others = session.cache.stats()["bytes"] - owned
            assert owned > 0 and others > 0
            assert session.evict(path)
            assert cache_bytes_of(session, engine) == 0
            assert session.cache.stats()["bytes"] == others
            store.close()
            assert session.cache.stats()["bytes"] == 0

    @pytest.mark.parametrize("verb", ["query", "query_json"])
    def test_stale_decode_never_answers_for_the_new_file(
        self, tmp_path, verb
    ):
        """A decode that rewrites its file and evicts its engine midway
        still answers the request that started it; the next request
        gets the new file's traces, not the old engine's result."""
        old_root, new_root = tmp_path / "old", tmp_path / "new"
        old_root.mkdir()
        new_root.mkdir()
        write_trace(old_root, "li-like", with_ir=False)
        write_trace(new_root, "li-like", scale=0.1, with_ir=False)
        path = old_root / "li-like.twpp"
        with Session() as session:
            name = next(
                n
                for n in session.engine(path).function_names()
                if session.query(path, n)
                != session.query(new_root / "li-like.twpp", n)
            )
            session.close()
            store = session.store(old_root)
            request = QueryRequest(trace="li-like", functions=(name,))
            with TraceStore(old_root) as fresh:
                old_doc = fresh.query(request)
            with TraceStore(new_root) as fresh:
                new_doc = fresh.query(request)
            engine = session.engine(path)
            real_decode = engine._decode

            def rewriting_decode(entry):
                time.sleep(0.01)  # a fresh mtime_ns
                tmp = old_root / "li-like.twpp.tmp"
                shutil.copy(new_root / "li-like.twpp", tmp)
                os.replace(tmp, path)
                assert session.evict(path)
                return real_decode(entry)

            engine._decode = rewriting_decode
            first = getattr(store, verb)(request)
            second = getattr(store, verb)(request)
            if verb == "query_json":
                old_doc, new_doc = map(canonical_json, (old_doc, new_doc))
            assert first == old_doc
            assert second == new_doc != old_doc
            assert cache_bytes_of(session, engine) == 0
            store.close()

    @pytest.mark.parametrize("verb", ["query", "query_json"])
    def test_evict_between_lookup_and_decode(self, store_root, verb):
        """An eviction racing a cold decode must not close the mapping
        under it: the decode finishes, then the last borrower closes."""
        with Session() as session:
            store = session.store(store_root)
            path = str(store_root / "li-like.twpp")
            name = function_names(store, "li-like")[0]
            engine = session.engine(path)
            real_decode = engine._decode

            def evicting_decode(entry):
                assert session.evict(path)
                assert not engine._source._mm.closed
                return real_decode(entry)

            engine._decode = evicting_decode
            request = QueryRequest(trace="li-like", functions=(name,))
            result = getattr(store, verb)(request)
            assert path not in session._engines
            assert engine._source._mm.closed
            expected = store.query(request)  # on a fresh engine
            if verb == "query_json":
                expected = canonical_json(expected)
            assert result == expected
            store.close()

    def test_generous_budget_keeps_both_warm(self, store):
        store.query(QueryRequest(trace="li-like"))
        store.query(QueryRequest(trace="ijpeg-like"))
        stats = store.cache_stats()
        assert stats["engines"] == 2 and stats["evictions"] == 0


class TestCoalescing:
    @staticmethod
    def _herd(store_root, verb):
        """8 barrier-released threads on one cold key; the results and
        the session's decode count."""
        with Session() as session:
            store = session.store(store_root)
            name = function_names(store, "li-like")[0]
            request = QueryRequest(trace="li-like", functions=(name,))
            path = store_root / "li-like.twpp"
            call = {
                "query": lambda: store.query(request),
                "query_json": lambda: store.query_json(request),
                "session": lambda: session.query(path, name),
            }[verb]
            n_threads = 8
            barrier = threading.Barrier(n_threads)
            results = []

            def worker():
                barrier.wait()
                results.append(call())

            threads = [
                threading.Thread(target=worker) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            store.close()
            return results, session.metrics.counter("qserve.decodes")

    def test_concurrent_cold_key_decodes_once(self, store_root):
        results, decodes = self._herd(store_root, "query")
        assert len(results) == 8
        assert all(r == results[0] for r in results)
        assert decodes == 1

    def test_concurrent_cold_wire_key_decodes_once(self, store_root):
        results, decodes = self._herd(store_root, "query_json")
        assert len(results) == 8
        assert all(r == results[0] for r in results)
        assert decodes == 1

    def test_concurrent_session_queries_decode_once(self, store_root):
        results, decodes = self._herd(store_root, "session")
        assert len(results) == 8
        assert all(r == results[0] for r in results)
        assert decodes == 1

    def test_waiters_share_the_owners_decode(self, store_root):
        """Force overlap: a slowed decode must be performed exactly once
        while every waiter blocks on the one load in progress."""
        with Session() as session:
            store = session.store(store_root)
            engine = store.engine("li-like")
            name = function_names(store, "li-like")[0]
            calls = []
            real = engine._decode

            def slow_decode(entry):
                calls.append(entry.name)
                time.sleep(0.05)
                return real(entry)

            engine._decode = slow_decode
            request = QueryRequest(trace="li-like", functions=(name,))
            n_threads = 6
            barrier = threading.Barrier(n_threads)

            def worker():
                barrier.wait()
                store.query(request)

            threads = [
                threading.Thread(target=worker) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert calls == [name]
            coalesced = session.metrics.counter("qserve.cache.coalesced")
            assert coalesced == n_threads - 1
            assert session.cache.stats()["coalesced"] == coalesced
            store.close()

    def test_a_failed_load_reaches_every_waiter(self, store_root):
        with Session() as session:
            store = session.store(store_root)
            engine = store.engine("li-like")
            name = function_names(store, "li-like")[0]

            def failing_decode(entry):
                time.sleep(0.05)
                raise OSError("disk went away")

            engine._decode = failing_decode
            request = QueryRequest(trace="li-like", functions=(name,))
            barrier = threading.Barrier(4)
            errors = []

            def worker():
                barrier.wait()
                try:
                    store.query(request)
                except OSError as exc:
                    errors.append(str(exc))

            threads = [threading.Thread(target=worker) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == ["disk went away"] * 4
            assert session.cache._loading == {}
            store.close()


class TestCacheHoldsServedForms:
    """The session cache holds what queries serve -- one entry per cold
    key -- and never a decoded record beside it."""

    def test_cold_query_json_caches_only_its_fragment(self, store_root):
        with Session() as session:
            store = session.store(store_root)
            name = function_names(store, "li-like")[0]
            body = store.query_json(
                QueryRequest(trace="li-like", functions=(name,))
            )
            engine = store.engine("li-like")
            assert list(session.cache._entries) == [(engine, "json", name)]
            assert engine.cached_traces_json(name) in body
            store.close()

    def test_cold_traces_cache_one_entry(self, store_root):
        with Session() as session:
            store = session.store(store_root)
            engine = store.engine("li-like")
            name = engine.function_names()[0]
            engine.traces(name)
            assert list(session.cache._entries) == [(engine, "traces", name)]
            store.close()

    def test_extract_leaves_the_cache_empty(self, store_root):
        with Session() as session:
            store = session.store(store_root)
            engine = store.engine("li-like")
            names = engine.function_names()
            for name in names:
                engine.extract(name)
            again = engine.extract(names[0])
            assert again.twpp_table == engine.extract(names[0]).twpp_table
            assert len(session.cache) == 0
            stats = session.cache.stats()
            assert stats["bytes"] == stats["hits"] == stats["misses"] == 0
            assert session.metrics.counter("qserve.decodes") == len(names) + 2
            store.close()

    def test_a_budget_for_the_fragments_keeps_every_key_warm(
        self, store_root
    ):
        """Size the budget to exactly the fragments of every function of
        one trace: a second pass over those keys is all hits, because
        no decoded record competes for the space."""
        with Session() as sizing:
            store = sizing.store(store_root)
            requests = [
                QueryRequest(trace="li-like", functions=(name,))
                for name in function_names(store, "li-like")
            ]
            for request in requests:
                store.query_json(request)
            with sizing.cache._lock:
                budget = sum(
                    cost
                    for key, (_value, cost) in sizing.cache._entries.items()
                    if key[1] == "json"
                )
            store.close()
        with Session(cache_bytes=budget) as session:
            store = session.store(store_root)
            bodies = [store.query_json(request) for request in requests]
            before = session.cache.stats()
            assert before["misses"] == len(requests)
            assert [store.query_json(request) for request in requests] == bodies
            after = session.cache.stats()
            assert after["hits"] - before["hits"] == len(requests)
            assert after["misses"] == before["misses"]
            assert after["entries"] == len(requests)
            assert after["evictions"] == 0
            store.close()


class TestSessionBudget:
    """One byte budget per session: every engine and the attached
    corpus cache into ``Session.cache``, which never holds more than
    ``cache_bytes``."""

    @pytest.mark.parametrize(
        "cache_bytes", [1, 8192, None], ids=["1B", "8KiB", "default"]
    )
    def test_bytes_never_exceed_the_budget(
        self, wire_root, tmp_path, cache_bytes
    ):
        kwargs = {} if cache_bytes is None else {"cache_bytes": cache_bytes}
        with Session(**kwargs) as session:
            budget = session.cache_bytes
            with session.corpus(tmp_path / "corpus") as corpus:
                corpus.ingest_runs(
                    [wire_root / "li-like.twpp", wire_root / "perl-like.twpp"]
                )
            store = session.store(wire_root, corpus=tmp_path / "corpus")

            def check(what):
                held = session.cache.stats()["bytes"]
                assert held <= budget, (what, held, budget)
                assert store.stats()["cache"]["bytes"] == held

            requests = list(query_matrix(store))
            assert len(requests) == 446
            for request in requests:
                store.query_json(request)
                check(request)
            corpus = store.corpus()
            for run in ("li-like", "perl-like"):
                for name in corpus.functions(run):
                    corpus.traces(run, name)
                    check((run, name))
            store.corpus_hot(CorpusHotRequest(top=5))
            check("hot")
            stats = session.cache.stats()
            if cache_bytes == 1:
                assert stats["entries"] == 0
                assert session.metrics.counter("qserve.cache.oversize") > 0
            elif cache_bytes == 8192:
                assert session.metrics.counter("qserve.cache.evictions") > 0
            else:
                assert stats["evictions"] == 0
            assert "corpus.cache.hits" not in session.metrics.to_dict()[
                "counters"
            ]
            store.close()


class TestEvictionStress:
    def test_decodes_survive_constant_eviction(self, store_root):
        """More threads than cores, engines evicted in a loop while they
        decode, and a short switch interval: every answer must still be
        right.  Under a 1-byte budget nothing stays cached, so every
        request decodes; under 8 KiB the cache evicts entries all the
        time."""
        for budget in (1, 8192):
            with Session(cache_bytes=budget) as session:
                store = session.store(store_root)
                requests = [
                    QueryRequest(trace=trace, functions=(name,))
                    for trace in ("li-like", "ijpeg-like")
                    for name in function_names(store, trace)[:4]
                ]
                expected = [canonical_json(store.query(r)) for r in requests]
                paths = [
                    str(store_root / f"{trace}.twpp")
                    for trace in ("li-like", "ijpeg-like")
                ]
                errors = []
                stop = threading.Event()

                def worker(offset):
                    try:
                        for i in range(60):
                            k = (offset + i) % len(requests)
                            if store.query_json(requests[k]) != expected[k]:
                                errors.append(f"wrong body for {requests[k]}")
                    except Exception as exc:  # noqa: BLE001 - reported below
                        errors.append(repr(exc))

                def evictor():
                    while not stop.is_set():
                        for path in paths:
                            session.evict(path)
                        time.sleep(0.001)

                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    threads = [
                        threading.Thread(target=worker, args=(n,))
                        for n in range(8)
                    ]
                    evicting = threading.Thread(target=evictor)
                    evicting.start()
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join(timeout=60)
                    stop.set()
                    evicting.join(timeout=60)
                finally:
                    sys.setswitchinterval(interval)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert session.metrics.counter("session.evictions") > 0
                if budget == 1:
                    assert session.cache.stats()["entries"] == 0
                else:
                    counter = session.metrics.counter("qserve.cache.evictions")
                    assert counter > 0
                assert session.cache.stats()["bytes"] <= budget
                store.close()


class TestSessionIntegration:
    def test_session_store_shares_metrics(self, store_root):
        with Session() as session:
            store = session.store(store_root)
            store.query(QueryRequest(trace="li-like"))
            snapshot = store.metrics_snapshot()
            assert snapshot["schema"] == "repro.metrics/1"
            assert snapshot["counters"]["store.requests.query"] == 1
            store.close()

    def test_store_root_must_exist(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            TraceStore(tmp_path / "missing")
