"""The cached, mmap-backed concurrent query engine (repro.compact.qserve)."""

import threading
import time

import pytest

from repro.compact import (
    LruByteCache,
    QueryEngine,
    compact_wpp,
    read_twpp,
    write_twpp,
)
from repro.compact.format import _serialize_section
from repro.compact.qserve import CorruptSection
from repro.compact.series import TimestampSet
from repro.compact.twpp import TwppPathTrace
from repro.obs import MetricsRegistry
from repro.trace import partition_wpp


@pytest.fixture
def files(tmp_path, small_workload):
    program, _spec, wpp = small_workload
    part = partition_wpp(wpp)
    compacted, _stats = compact_wpp(part)
    twpp_path = tmp_path / "w.twpp"
    write_twpp(compacted, twpp_path)
    return part, compacted, twpp_path


def load(value, cost):
    """A :meth:`LruByteCache.get_or_load` loader that records its calls."""

    def loader():
        loader.calls += 1
        return value, cost

    loader.calls = 0
    return loader


class TestLruByteCache:
    def test_hit_miss_counters(self):
        cache = LruByteCache(1000)
        assert cache.peek("a") is None
        assert cache.get_or_load("a", load("va", 10)) == "va"
        second = load("other", 10)
        assert cache.get_or_load("a", second) == "va"
        assert second.calls == 0
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = LruByteCache(25)
        cache.get_or_load("a", load(1, 10))
        cache.get_or_load("b", load(2, 10))
        assert cache.peek("a") == 1  # refresh a; b is now LRU
        cache.get_or_load("c", load(3, 10))
        assert cache.peek("b") is None
        assert cache.peek("a") == 1 and cache.peek("c") == 3
        assert cache.evictions == 1

    def test_byte_budget_enforced(self):
        cache = LruByteCache(100)
        for i in range(20):
            cache.get_or_load(i, load(i, 10))
        assert cache.bytes_cached <= 100
        assert len(cache) == 10

    def test_oversize_value_not_cached(self):
        cache = LruByteCache(50)
        assert cache.get_or_load("big", load("x", 60)) == "x"
        assert cache.peek("big") is None
        assert len(cache) == 0

    def test_zero_capacity_disables(self):
        cache = LruByteCache(0)
        again = load(1, 1)
        cache.get_or_load("a", again)
        cache.get_or_load("a", again)
        assert again.calls == 2 and cache.peek("a") is None

    def test_replacing_key_releases_old_cost(self):
        cache = LruByteCache(100)
        cache.get_or_load(("owner", "a"), load(1, 80))
        cache.get_or_load(("other", "b"), load(3, 10))
        cache.drop("owner")
        assert cache.bytes_cached == 10
        assert cache.get_or_load(("owner", "a"), load(2, 30)) == 2
        assert cache.bytes_cached == 40

    def test_stats_snapshot(self):
        cache = LruByteCache(100)
        cache.get_or_load("a", load(1, 10))
        cache.get_or_load("a", load(1, 10))
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["bytes"] == 10
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["coalesced"] == 0

    def test_metrics_registry_wiring(self):
        metrics = MetricsRegistry()
        cache = LruByteCache(20, metrics=metrics)
        cache.get_or_load("a", load(1, 10))
        cache.get_or_load("a", load(1, 10))
        cache.get_or_load("b", load(2, 15))  # evicts a
        cache.get_or_load("c", load(3, 25))  # oversize
        assert metrics.counter("qserve.cache.misses") == 3
        assert metrics.counter("qserve.cache.hits") == 1
        assert metrics.counter("qserve.cache.evictions") == 1
        assert metrics.counter("qserve.cache.oversize") == 1

    def test_concurrent_misses_load_once(self):
        metrics = MetricsRegistry()
        cache = LruByteCache(100, metrics=metrics)
        release = threading.Event()
        calls = []

        def slow():
            calls.append(1)
            release.wait(timeout=10)
            return "v", 10

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(cache.get_or_load("k", slow))
            )
            for _ in range(5)
        ]
        for t in threads:
            t.start()
        while cache.coalesced < 4:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join()
        assert results == ["v"] * 5 and calls == [1]
        assert metrics.counter("qserve.cache.coalesced") == 4
        assert cache._loading == {}

    def test_an_uncontended_load_builds_no_event(self, monkeypatch):
        made = []
        real = threading.Event

        def counting_event():
            made.append(1)
            return real()

        def failing():
            raise OSError("gone")

        cache = LruByteCache(100)
        monkeypatch.setattr(threading, "Event", counting_event)
        assert cache.get_or_load("a", load(1, 10)) == 1
        with pytest.raises(OSError):
            cache.get_or_load("b", failing)
        assert made == [] and cache._loading == {}


class TestQueryEngine:
    def test_extract_matches_reader(self, files):
        _part, compacted, twpp_path = files
        with QueryEngine(twpp_path) as engine, QueryEngine(
            twpp_path, cache_bytes=0
        ) as cold:
            for name in engine.function_names():
                fc = engine.extract(name)
                ref = cold.extract(name)
                assert fc.twpp_table == ref.twpp_table
                assert fc.dict_table == ref.dict_table
                assert fc.pairs == ref.pairs
                ref_fc = compacted.function(name)
                assert fc.twpp_table == ref_fc.twpp_table
                assert fc.pairs == ref_fc.pairs

    def test_traces_match_partitioned(self, files):
        part, _compacted, twpp_path = files
        with QueryEngine(twpp_path) as engine:
            for name in part.func_names:
                idx = part.func_index(name)
                assert engine.traces(name) == part.traces[idx]

    def test_warm_queries_hit_the_cache(self, files):
        _part, _compacted, twpp_path = files
        with QueryEngine(twpp_path) as engine:
            name = engine.function_names()[0]
            cold = engine.traces(name)
            warm = engine.traces(name)
            assert cold == warm
            stats = engine.cache_stats()
            assert stats["hits"] >= 1
            assert stats["entries"] >= 1

    def test_traces_returns_a_fresh_list(self, files):
        _part, _compacted, twpp_path = files
        with QueryEngine(twpp_path) as engine:
            name = engine.function_names()[0]
            first = engine.traces(name)
            first.append(("corrupted",))
            assert engine.traces(name) != first

    def test_extract_every_function(self, files):
        _part, _compacted, twpp_path = files
        with QueryEngine(twpp_path) as engine:
            for name in engine.function_names():
                assert engine.extract(name).name == name

    def test_traces_many_subset_and_order(self, files):
        part, _compacted, twpp_path = files
        subset = list(reversed(part.func_names[:3]))
        with QueryEngine(twpp_path) as engine:
            out = engine.traces_many(subset)
            assert list(out) == subset
            for name in subset:
                assert out[name] == part.traces[part.func_index(name)]

    def test_unknown_function_raises(self, files):
        _part, _compacted, twpp_path = files
        with QueryEngine(twpp_path) as engine:
            with pytest.raises(KeyError, match="ghost"):
                engine.extract("ghost")

    def test_body_with_a_gap_is_a_named_corrupt_section(
        self, files, tmp_path
    ):
        """A body can decode cleanly and still not invert (a timestamp
        left unassigned); serving its traces raises
        :class:`CorruptSection` naming the function, like a section that
        fails to decode."""
        _part, compacted, _twpp_path = files
        fc = compacted.functions[0]
        # Two blocks at timestamp 1 and none at 2.
        one = TimestampSet.single(1)
        fc.twpp_table[0] = TwppPathTrace(entries=((1, one), (2, one)))
        path = tmp_path / "gap.twpp"
        write_twpp(compacted, path)
        with QueryEngine(path) as engine:
            assert engine.extract(fc.name).twpp_table[0] == fc.twpp_table[0]
            for serve in (engine.traces, engine.traces_json):
                with pytest.raises(CorruptSection) as caught:
                    serve(fc.name)
                assert caught.value.function == fc.name
                assert "never assigned" in str(caught.value)

    def test_call_counts_and_len(self, files):
        part, _compacted, twpp_path = files
        with QueryEngine(twpp_path) as engine:
            assert len(engine) == len(part.func_names)
            counts = part.call_counts()
            for name in part.func_names:
                assert engine.call_count(name) == counts[name]
                assert name in engine
            assert "ghost" not in engine

    def test_dcg_matches_read_twpp(self, files):
        _part, _compacted, twpp_path = files
        full = read_twpp(twpp_path)
        with QueryEngine(twpp_path) as engine:
            dcg = engine.dcg()
            assert dcg.node_func == full.dcg.node_func
            assert dcg.node_trace == full.dcg.node_trace
            assert dcg == full.dcg
            assert engine.dcg() is dcg  # decoded once, kept

    def test_cache_disabled_still_correct(self, files):
        part, _compacted, twpp_path = files
        with QueryEngine(twpp_path, cache_bytes=0) as engine:
            name = part.func_names[0]
            idx = part.func_index(name)
            assert engine.traces(name) == part.traces[idx]
            assert engine.traces(name) == part.traces[idx]
            assert engine.cache_stats()["hits"] == 0

    def test_tiny_budget_evicts(self, files):
        _part, _compacted, twpp_path = files
        with QueryEngine(twpp_path, cache_bytes=16 << 10) as engine:
            for _ in range(2):
                for name in engine.function_names():
                    engine.extract(name)
            stats = engine.cache_stats()
            assert stats["bytes"] <= 16 << 10
            assert stats["evictions"] > 0 or stats["entries"] < len(engine)

    def test_metrics_wired_into_registry(self, files):
        _part, _compacted, twpp_path = files
        metrics = MetricsRegistry()
        with QueryEngine(twpp_path, metrics=metrics) as engine:
            name = engine.function_names()[0]
            engine.traces(name)
            engine.traces(name)
            engine.traces_many()
        doc = metrics.to_dict()
        assert doc["counters"]["qserve.decodes"] >= 2
        assert doc["counters"]["qserve.cache.hits"] >= 1
        assert doc["counters"]["qserve.cache.misses"] >= 1
        assert doc["counters"]["qserve.batches"] == 1
        assert "qserve.decode" in doc["timers_ms"]


class TestConcurrentReads:
    """N threads hammering one engine agree byte-for-byte with serial."""

    N_THREADS = 8
    ROUNDS = 3

    def test_concurrent_equals_serial_and_cache_warms(self, files):
        part, _compacted, twpp_path = files
        names = part.func_names

        # Serial reference: section bytes re-serialized per function.
        with QueryEngine(twpp_path) as engine:
            serial_records = {
                name: _serialize_section(engine.extract(name))
                for name in names
            }
            serial_traces = {name: engine.traces(name) for name in names}

        metrics = MetricsRegistry()
        engine = QueryEngine(twpp_path, metrics=metrics)
        failures = []
        barrier = threading.Barrier(self.N_THREADS)

        def hammer():
            try:
                barrier.wait()
                for _ in range(self.ROUNDS):
                    for name in names:
                        if _serialize_section(
                            engine.extract(name)
                        ) != serial_records[name]:
                            failures.append(f"record {name}")
                        if engine.traces(name) != serial_traces[name]:
                            failures.append(f"traces {name}")
            except Exception as exc:
                failures.append(repr(exc))

        threads = [
            threading.Thread(target=hammer) for _ in range(self.N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not failures
        stats = engine.cache_stats()
        assert stats["hit_rate"] > 0
        assert metrics.counter("qserve.cache.hits") > 0
        engine.close()

    def test_batch_equals_single_queries(self, files):
        _part, _compacted, twpp_path = files
        with QueryEngine(twpp_path) as engine:
            single = {
                name: engine.traces(name) for name in engine.function_names()
            }
            assert engine.traces_many() == single
