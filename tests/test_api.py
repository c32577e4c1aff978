"""Tests for the repro.api facade (Session + top-level verbs)."""

import warnings

import pytest

import repro
from repro.api import CompactResult, Session
from repro.compact import CompactedWpp, CompactionStats
from repro.ir.printer import format_program
from repro.trace import WppTrace, write_wpp
from repro.workloads import figure1_program


@pytest.fixture(scope="module")
def program():
    return figure1_program()


@pytest.fixture(scope="module")
def session_and_artifacts(program, tmp_path_factory):
    base = tmp_path_factory.mktemp("api")
    session = Session(jobs=2)
    wpp = session.trace(program)
    result = session.compact(wpp)
    twpp_path = base / "run.twpp"
    result.save(twpp_path)
    wpp_path = base / "run.wpp"
    write_wpp(wpp, wpp_path)
    return session, wpp, result, wpp_path, twpp_path


class TestSessionVerbs:
    def test_trace_returns_wpp(self, session_and_artifacts):
        _s, wpp, _r, _wp, _tp = session_and_artifacts
        assert isinstance(wpp, WppTrace)
        assert len(wpp) > 0

    def test_trace_accepts_ir_path(self, tmp_path):
        from repro.workloads.specs import workload

        generated, _spec = workload("li-like", scale=0.1)
        path = tmp_path / "prog.ir"
        path.write_text(format_program(generated) + "\n")
        wpp = Session().trace(path)
        assert wpp.to_tuples() == repro.trace(generated).to_tuples()

    def test_compact_result_unpacks_like_tuple(self, session_and_artifacts):
        _s, _w, result, _wp, _tp = session_and_artifacts
        compacted, stats = result
        assert isinstance(compacted, CompactedWpp)
        assert isinstance(stats, CompactionStats)
        assert result.compacted is compacted and result.stats is stats

    def test_compact_accepts_wpp_partitioned_and_path(
        self, session_and_artifacts
    ):
        session, wpp, result, wpp_path, _tp = session_and_artifacts
        from_path = session.compact(wpp_path)
        from_part = session.compact(session.partition(wpp))
        baseline = result.stats
        assert from_path.stats == baseline
        assert from_part.stats == baseline

    def test_query_file_and_memory_agree(self, session_and_artifacts):
        session, _w, result, wpp_path, twpp_path = session_and_artifacts
        fc = result.compacted.function("f")
        expected = [fc.expand_pair(p) for p in range(len(fc.pairs))]
        assert session.query(result.compacted, "f") == expected
        assert session.query(twpp_path, "f") == expected
        # the raw .wpp scan returns one trace per activation instead
        per_activation = session.query(wpp_path, "f")
        assert len(per_activation) == fc.call_count
        assert set(per_activation) == set(expected)

    def test_stats_matches_compact(self, session_and_artifacts):
        session, wpp, result, _wp, _tp = session_and_artifacts
        assert session.stats(wpp) == result.stats

    def test_load_round_trips(self, session_and_artifacts):
        session, _w, result, _wp, twpp_path = session_and_artifacts
        loaded = session.load(twpp_path)
        assert loaded.func_names == result.compacted.func_names

    def test_session_metrics_accumulate(self, session_and_artifacts):
        session, _w, _r, _wp, _tp = session_and_artifacts
        assert session.metrics.counter("trace.events") > 0
        assert "partition" in session.metrics.timers_ms
        assert "compact.total" in session.metrics.timers_ms
        doc = session.metrics.to_dict()
        assert doc["schema"] == "repro.metrics/1"


class TestSessionQueryEngine:
    def test_engine_is_reused_per_path(self, session_and_artifacts):
        session, _w, _r, _wp, twpp_path = session_and_artifacts
        assert session.engine(twpp_path) is session.engine(twpp_path)

    def test_repeat_queries_hit_the_cache(self, session_and_artifacts):
        _s, _w, result, _wp, twpp_path = session_and_artifacts
        session = Session()
        first = session.query(twpp_path, "f")
        second = session.query(twpp_path, "f")
        assert first == second
        assert session.metrics.counter("qserve.cache.hits") >= 1
        session.close()

    def test_batch_query_names(self, session_and_artifacts):
        session, _w, result, _wp, twpp_path = session_and_artifacts
        names = [fc.name for fc in result.compacted.functions]
        out = session.query(twpp_path, names=names)
        assert list(out) == names
        for name in names:
            assert out[name] == session.query(twpp_path, name)
        # A list positional works the same way.
        assert session.query(twpp_path, names) == out
        # And agrees with the in-memory batch.
        assert session.query(result.compacted, names=names) == out

    def test_batch_query_on_raw_wpp(self, session_and_artifacts):
        session, _w, result, wpp_path, _tp = session_and_artifacts
        out = session.query(wpp_path, names=["f"])
        assert set(out["f"]) == set(session.query(result.compacted, "f"))

    def test_func_and_names_conflict(self, session_and_artifacts):
        session, _w, _r, _wp, twpp_path = session_and_artifacts
        with pytest.raises(TypeError):
            session.query(twpp_path, "f", names=["f"])
        with pytest.raises(TypeError):
            session.query(twpp_path)

    def test_close_releases_engines(self, session_and_artifacts):
        _s, _w, _r, _wp, twpp_path = session_and_artifacts
        with Session() as session:
            engine = session.engine(twpp_path)
            assert session.query(twpp_path, "f")
        assert session._engines == {}
        # Re-querying after close opens a fresh engine transparently.
        assert session.engine(twpp_path) is not engine
        session.close()

    def test_cache_bytes_zero_disables_caching(self, session_and_artifacts):
        _s, _w, _r, _wp, twpp_path = session_and_artifacts
        with Session(cache_bytes=0) as session:
            session.query(twpp_path, "f")
            session.query(twpp_path, "f")
            assert session.metrics.counter("qserve.cache.hits") == 0


class TestTopLevelVerbs:
    def test_pipeline_via_module_functions(self, program, tmp_path):
        wpp = repro.trace(program)
        result = repro.compact(wpp)
        assert isinstance(result, CompactResult)
        path = tmp_path / "run.twpp"
        assert result.save(path) == path.stat().st_size
        assert repro.query(path, "f")
        assert repro.query(path, names=["f"])["f"] == repro.query(path, "f")
        assert repro.stats(wpp) == result.stats

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestRemovedAliases:
    def test_deprecated_aliases_are_gone(self):
        assert not hasattr(repro, "run_program")
        assert not hasattr(repro, "collect_wpp")

    def test_home_modules_still_export_them(self, program):
        from repro.interp import run_program
        from repro.trace import collect_wpp

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("error", DeprecationWarning)
            assert run_program(program).calls_made >= 1
            wpp = collect_wpp(program)
        assert not caught
        assert wpp.to_tuples() == repro.trace(program).to_tuples()


class TestSessionEvict:
    def test_evict_cold_path_is_false(self, session_and_artifacts):
        session, _w, _r, _wp, twpp_path = session_and_artifacts
        assert session.evict(twpp_path.with_name("never-opened.twpp")) is False

    def test_evict_releases_then_reopens(self, program, tmp_path):
        session = Session()
        twpp_path = tmp_path / "run.twpp"
        session.compact(session.trace(program)).save(twpp_path)
        before = session.query(twpp_path, "f")
        assert str(twpp_path) in session._engines
        assert session.evict(twpp_path) is True
        assert str(twpp_path) not in session._engines
        assert session.metrics.counter("session.evictions") == 1
        # the next query transparently reopens a cold engine
        assert session.query(twpp_path, "f") == before
        assert str(twpp_path) in session._engines
        session.close()

    def test_session_store_round_trip(self, program, tmp_path):
        session = Session()
        session.compact(session.trace(program)).save(tmp_path / "run.twpp")
        store = session.store(tmp_path)
        doc = store.query(repro.QueryRequest(trace="run", functions=("f",)))
        assert [tuple(t) for t in doc["functions"]["f"]] == session.query(
            tmp_path / "run.twpp", "f"
        )
        store.close()
        session.close()


class TestSessionAnalyze:
    def test_fact_frequencies_from_twpp(self, session_and_artifacts):
        session, _wpp, _r, _wp, twpp_path = session_and_artifacts
        reports = session.analyze(twpp_path, figure1_program(), "def:i")
        assert set(reports) == {"f", "main"}
        main_report = reports["main"][0]
        # i is assigned in block 1, so it holds at every later block.
        assert main_report.entries[4].frequency == 1.0
        assert main_report.entries[1].holds == 0

    def test_fact_object_and_spec_agree(self, session_and_artifacts):
        from repro.analysis import VarHasDefinition

        session, _wpp, _r, _wp, twpp_path = session_and_artifacts
        program = figure1_program()
        by_spec = session.analyze(twpp_path, program, "def:j", functions=["f"])
        by_fact = session.analyze(
            twpp_path, program, VarHasDefinition("j"), functions=["f"]
        )
        assert list(by_spec) == ["f"]
        for a, b in zip(by_spec["f"], by_fact["f"]):
            assert a.entries == b.entries

    def test_jobs_override_matches_serial(self, session_and_artifacts):
        session, _wpp, _r, _wp, twpp_path = session_and_artifacts
        program = figure1_program()
        serial = session.analyze(twpp_path, program, "def:i", jobs=1)
        fanned = session.analyze(twpp_path, program, "def:i", jobs=2)
        assert list(serial) == list(fanned)
        for name in serial:
            got = [
                {
                    b: (e.executions, e.holds, e.fails, e.unresolved)
                    for b, e in rep.entries.items()
                }
                for rep in fanned[name]
            ]
            ref = [
                {
                    b: (e.executions, e.holds, e.fails, e.unresolved)
                    for b, e in rep.entries.items()
                }
                for rep in serial[name]
            ]
            assert got == ref

    def test_in_memory_compacted_input(self, session_and_artifacts):
        session, _wpp, result, _wp, twpp_path = session_and_artifacts
        program = figure1_program()
        from_path = session.analyze(twpp_path, program, "def:i")
        from_memory = session.analyze(result.compacted, program, "def:i")
        # Default function order follows the source (file sections are
        # hottest-first; the in-memory table is index order) -- the
        # per-function reports must agree regardless.
        assert sorted(from_path) == sorted(from_memory)
        for name in from_path:
            assert [r.entries for r in from_path[name]] == [
                r.entries for r in from_memory[name]
            ]

    def test_top_level_verb(self, session_and_artifacts, program):
        _s, _wpp, _r, _wp, twpp_path = session_and_artifacts
        reports = repro.analyze(twpp_path, program, "def:i")
        assert reports["main"][0].entries[4].frequency == 1.0
