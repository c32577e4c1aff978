"""The cached, mmap-backed concurrent query engine (repro.compact.qserve)."""

import threading

import pytest

from repro.compact import (
    LruByteCache,
    QueryEngine,
    compact_wpp,
    read_twpp,
    write_twpp,
)
from repro.compact.format import _serialize_section
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


class TestLruByteCache:
    def test_hit_miss_counters(self):
        cache = LruByteCache(1000)
        assert cache.get("a") is None
        cache.put("a", "va", 10)
        assert cache.get("a") == "va"
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = LruByteCache(25)
        cache.put("a", 1, 10)
        cache.put("b", 2, 10)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3, 10)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_byte_budget_enforced(self):
        cache = LruByteCache(100)
        for i in range(20):
            cache.put(i, i, 10)
        assert cache.bytes_cached <= 100
        assert len(cache) == 10

    def test_oversize_value_not_cached(self):
        cache = LruByteCache(50)
        cache.put("big", "x", 60)
        assert cache.get("big") is None
        assert len(cache) == 0

    def test_zero_capacity_disables(self):
        cache = LruByteCache(0)
        cache.put("a", 1, 1)
        assert cache.get("a") is None

    def test_replacing_key_releases_old_cost(self):
        cache = LruByteCache(100)
        cache.put("a", 1, 80)
        cache.put("a", 2, 30)
        assert cache.bytes_cached == 30
        assert cache.get("a") == 2

    def test_stats_snapshot(self):
        cache = LruByteCache(100)
        cache.put("a", 1, 10)
        cache.get("a")
        cache.get("nope")
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["bytes"] == 10
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_metrics_registry_wiring(self):
        metrics = MetricsRegistry()
        cache = LruByteCache(20, metrics=metrics, prefix="qserve.cache")
        cache.get("a")
        cache.put("a", 1, 10)
        cache.get("a")
        cache.put("b", 2, 15)  # evicts a
        assert metrics.counter("qserve.cache.misses") == 1
        assert metrics.counter("qserve.cache.hits") == 1
        assert metrics.counter("qserve.cache.evictions") == 1


class TestQueryEngine:
    def test_extract_matches_reader(self, files):
        _part, compacted, twpp_path = files
        with QueryEngine(twpp_path) as engine, QueryEngine(
            twpp_path, cache_bytes=0
        ) as cold:
            for name in engine.function_names():
                fc = engine.extract(name)
                ref = cold.extract(name)
                assert fc.trace_table == ref.trace_table
                assert fc.dict_table == ref.dict_table
                assert fc.pairs == ref.pairs
                ref_fc = compacted.function(name)
                assert fc.trace_table == ref_fc.trace_table
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

    def test_extract_many_default_is_all_functions(self, files):
        _part, _compacted, twpp_path = files
        with QueryEngine(twpp_path) as engine:
            out = engine.extract_many()
            assert list(out) == engine.function_names()
            for name, fc in out.items():
                assert fc.name == name

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
            assert dcg.node_parent == full.dcg.node_parent
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
            engine.extract_many()
        doc = metrics.to_dict()
        assert doc["counters"]["qserve.queries"] >= 2
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
