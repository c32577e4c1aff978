"""Unit tests for the repro.obs metrics registry."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import METRICS_SCHEMA, ByteHistogram, MetricsRegistry


class TestCounters:
    def test_inc_and_read(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a") == 5
        assert reg.counter("missing") == 0

    def test_export_sorted(self):
        reg = MetricsRegistry()
        reg.inc("z")
        reg.inc("a")
        assert list(reg.to_dict()["counters"]) == ["a", "z"]


class TestTimers:
    def test_timer_accumulates(self):
        reg = MetricsRegistry()
        with reg.timer("stage"):
            pass
        first = reg.timers_ms["stage"]
        with reg.timer("stage"):
            pass
        assert reg.timers_ms["stage"] >= first >= 0.0

    def test_add_ms(self):
        reg = MetricsRegistry()
        reg.add_ms("stage", 1.5)
        reg.add_ms("stage", 2.5)
        assert reg.timers_ms["stage"] == pytest.approx(4.0)

    def test_timer_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with reg.timer("stage"):
                raise RuntimeError("boom")
        assert "stage" in reg.timers_ms


class TestHistograms:
    def test_power_of_two_buckets(self):
        reg = MetricsRegistry()
        for v in (0, 1, 2, 3, 4, 5, 1000):
            reg.observe("h", v)
        hist = reg.histograms["h"]
        assert hist.count == 7
        assert hist.total == 1015
        assert hist.min == 0 and hist.max == 1000
        assert hist.buckets == {1: 2, 2: 1, 4: 2, 8: 1, 1024: 1}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ByteHistogram().observe(-1)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1))
    def test_every_value_lands_in_a_covering_bucket(self, values):
        hist = ByteHistogram()
        for v in values:
            hist.observe(v)
        assert hist.count == len(values)
        assert hist.total == sum(values)
        assert sum(hist.buckets.values()) == len(values)
        for bound in hist.buckets:
            assert bound == 1 or bound & (bound - 1) == 0  # power of two


class TestMergeAndExport:
    def test_merge_folds_everything(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 1)
        b.inc("c", 2)
        b.inc("d", 3)
        a.add_ms("t", 1.0)
        b.add_ms("t", 2.0)
        a.observe("h", 10)
        b.observe("h", 100)
        a.merge(b)
        assert a.counter("c") == 3 and a.counter("d") == 3
        assert a.timers_ms["t"] == pytest.approx(3.0)
        assert a.histograms["h"].count == 2
        assert a.histograms["h"].min == 10 and a.histograms["h"].max == 100

    def test_json_round_trip(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("events", 42)
        reg.add_ms("stage", 1.234)
        reg.observe("bytes", 300)
        doc = json.loads(reg.to_json())
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["counters"]["events"] == 42
        assert doc["histograms"]["bytes"]["buckets"] == {"512": 1}
        path = tmp_path / "m.json"
        reg.write_json(path)
        assert json.loads(path.read_text()) == doc


class TestSharedRegistryHammer:
    """One registry shared by a store, its session and an engine.

    Eight threads drive every layer that writes the registry at once,
    with the interpreter switching threads as often as it can.  Each
    counter must come out exact, and exporting while they run must
    never trip over a dict that changes size mid-copy.
    """

    THREADS = 8
    ROUNDS = 400
    DIRECT = 20

    def test_totals_exact_and_export_never_raises(self, tmp_path):
        import sys
        import threading

        from repro.api import Session
        from repro.store import QueryRequest
        from repro.trace import collect_wpp, partition_wpp
        from repro.workloads.specs import workload

        program, _spec = workload("li-like", scale=0.05)
        with Session() as writer:
            writer.compact(partition_wpp(collect_wpp(program))).save(
                tmp_path / "run.twpp"
            )
        with Session() as session:
            store = session.store(tmp_path)
            engine = store.engine("run")
            fn = engine.function_names()[0]
            request = QueryRequest(trace="run", functions=(fn,))
            # Warm every path, so each round below is cache hits only.
            store.query(request)
            session.query(engine.path, fn)
            engine.extract(fn)
            metrics = session.metrics
            watched = (
                "store.requests.query",
                "query.calls",
                "qserve.queries",
                "qserve.cache.hits",
            )
            before = {name: metrics.counter(name) for name in watched}

            start = threading.Barrier(self.THREADS + 1, timeout=60)
            done = threading.Event()
            errors = []

            def hammer(index):
                try:
                    start.wait()
                    for i in range(self.ROUNDS):
                        store.query(request)
                        session.query(engine.path, fn)
                        engine.extract(fn)
                        metrics.inc(f"hammer.{index}.{i % 16}")
                        for _ in range(self.DIRECT):
                            metrics.inc("hammer.shared")
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            def export():
                start.wait()
                while not done.wait(0.0005):
                    try:
                        metrics.to_dict()
                    except Exception as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

            workers = [
                threading.Thread(target=hammer, args=(i,))
                for i in range(self.THREADS)
            ]
            exporter = threading.Thread(target=export)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in workers + [exporter]:
                    thread.start()
                for thread in workers:
                    thread.join(timeout=60)
            finally:
                done.set()
                exporter.join(timeout=60)
                sys.setswitchinterval(interval)
            store.close()

        assert not any(t.is_alive() for t in workers + [exporter])
        assert not errors, errors
        n = self.THREADS * self.ROUNDS
        delta = {name: metrics.counter(name) - before[name] for name in watched}
        assert delta == {
            "store.requests.query": n,
            "query.calls": n,
            "qserve.queries": n,
            # store warm peek + session traces lookup + engine extract
            "qserve.cache.hits": 3 * n,
        }
        assert metrics.counter("hammer.shared") == n * self.DIRECT
        for index in range(self.THREADS):
            assert sum(
                metrics.counter(f"hammer.{index}.{k}") for k in range(16)
            ) == self.ROUNDS
