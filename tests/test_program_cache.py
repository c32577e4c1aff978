"""Tests for the analyze-path program cache and the slimmed IR it holds."""

import os
import pickle
import sys
import threading
from dataclasses import fields, is_dataclass

import pytest

from repro import api
from repro.api import PROGRAM_CACHE_SIZE, Session
from repro.ir import ProgramBuilder, binop, parse_program
from repro.ir.expr import Const, Var
from repro.ir.printer import format_program
from repro.store import AnalyzeRequest, StatsRequest, TraceStore
from repro.store.server import canonical_json
from repro.trace import collect_wpp, partition_wpp
from repro.workloads.specs import workload


@pytest.fixture(scope="module")
def li_like(tmp_path_factory):
    """li-like's compacted trace bytes and its textual IR."""
    root = tmp_path_factory.mktemp("li")
    program, _spec = workload("li-like", scale=0.05)
    with Session() as session:
        session.compact(partition_wpp(collect_wpp(program))).save(
            root / "li-like.twpp"
        )
    return (root / "li-like.twpp").read_bytes(), format_program(program) + "\n"


@pytest.fixture
def store_dir(tmp_path, li_like):
    twpp, text = li_like
    (tmp_path / "li-like.twpp").write_bytes(twpp)
    (tmp_path / "li-like.ir").write_text(text)
    return tmp_path


def counters(session):
    return (
        session.metrics.counter("analysis.program_parses"),
        session.metrics.counter("analysis.program_hits"),
    )


def rewrite(path, text, mtime_ns):
    path.write_text(text)
    os.utime(path, ns=(mtime_ns, mtime_ns))


def analyze_doc(store, fact="def:acc"):
    return canonical_json(store.analyze(AnalyzeRequest(trace="li-like", fact=fact)))


class TestProgramCache:
    def test_repeated_analyze_parses_once(self, store_dir):
        twpp, ir = store_dir / "li-like.twpp", store_dir / "li-like.ir"
        with Session() as session:
            first = session.analyze(twpp, ir, "def:acc")
            for _ in range(4):
                assert session.analyze(twpp, ir, "def:acc") == first
            assert counters(session) == (1, 4)
            uncached = session.analyze(twpp, parse_program(ir.read_text()), "def:acc")
        assert uncached == first

    def test_store_requests_parse_once(self, store_dir):
        with TraceStore(store_dir) as store:
            docs = {analyze_doc(store) for _ in range(3)}
            assert len(docs) == 1
            assert counters(store.session) == (1, 2)

    def test_rewritten_program_is_parsed_again(self, store_dir):
        ir = store_dir / "li-like.ir"
        text = ir.read_text()
        assert "acc = " in text
        with TraceStore(store_dir) as store:
            before = analyze_doc(store)
            rewrite(ir, text.replace("acc = ", "acx = "), ir.stat().st_mtime_ns + 10**9)
            after = analyze_doc(store)
            assert after != before
            assert counters(store.session) == (2, 0)
            assert len(store.session._programs) == 1
        with TraceStore(store_dir) as fresh:
            assert analyze_doc(fresh) == after

    def test_cache_stays_at_its_bound(self, store_dir):
        twpp = store_dir / "li-like.twpp"
        text = (store_dir / "li-like.ir").read_text()
        paths = []
        for i in range(PROGRAM_CACHE_SIZE + 3):
            path = store_dir / f"copy{i}.ir"
            path.write_text(text)
            paths.append(path)
        with Session() as session:
            for path in paths:
                session.analyze(twpp, path, "def:acc", functions=["main"])
            assert len(session._programs) == PROGRAM_CACHE_SIZE
            session.analyze(twpp, paths[-1], "def:acc", functions=["main"])
            assert counters(session) == (len(paths), 1)
            session.analyze(twpp, paths[0], "def:acc", functions=["main"])
            assert counters(session) == (len(paths) + 1, 1)
            assert len(session._programs) == PROGRAM_CACHE_SIZE

    @pytest.mark.parametrize("when", ["after_first_stat", "before_second_stat"])
    def test_file_changed_mid_read_is_not_kept(self, store_dir, monkeypatch, when):
        """A rewrite racing the read must not leave a program cached
        under a key that describes other bytes."""
        twpp, ir = store_dir / "li-like.twpp", store_dir / "li-like.ir"
        original = ir.read_text()
        mtime_a = ir.stat().st_mtime_ns
        # Same program, different bytes: analyses agree, keys differ.
        edited = original + "// edited\n"
        real_stat_key = api._stat_key
        calls = []

        def racy_stat_key(path):
            calls.append(path)
            if when == "before_second_stat" and len(calls) == 2:
                rewrite(ir, edited, mtime_a + 10**9)
            key = real_stat_key(path)
            if when == "after_first_stat" and len(calls) == 1:
                rewrite(ir, edited, mtime_a + 10**9)
            return key

        with Session() as session:
            monkeypatch.setattr(api, "_stat_key", racy_stat_key)
            first = session.analyze(twpp, ir, "def:acc")
            monkeypatch.setattr(api, "_stat_key", real_stat_key)
            assert len(calls) == 2
            assert len(session._programs) == 0
            if when == "after_first_stat":
                # Put the first bytes back under their first key: a
                # wrongly kept entry would now be served as a hit.
                rewrite(ir, original, mtime_a)
            assert session.analyze(twpp, ir, "def:acc") == first
            assert counters(session) == (2, 0)

    def test_concurrent_analyze_matches_serial(self, store_dir):
        with TraceStore(store_dir) as store:
            index = store.stats(StatsRequest(trace="li-like"))
            names = [row["name"] for row in index["function_index"]]
            requests = [
                AnalyzeRequest(trace="li-like", fact="def:acc", functions=(name,))
                for name in names
            ]
            serial = [canonical_json(store.analyze(r)) for r in requests]
        n_threads = 4
        results = [None] * n_threads
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with TraceStore(store_dir) as store:
                barrier = threading.Barrier(n_threads)

                def worker(slot):
                    try:
                        barrier.wait(timeout=60)
                        results[slot] = [
                            canonical_json(store.analyze(r)) for r in requests
                        ]
                    except Exception as exc:  # pragma: no cover - reported below
                        errors.append(exc)

                threads = [
                    threading.Thread(target=worker, args=(i,))
                    for i in range(n_threads)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                parses, hits = counters(store.session)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert all(r == serial for r in results)
        assert 1 <= parses <= n_threads
        # One count per request: a lost counter update breaks this.
        assert parses + hits == n_threads * len(requests)

    def test_trace_verbs_do_not_use_the_cache(self, store_dir, tmp_path):
        ir = store_dir / "li-like.ir"
        with Session() as session:
            session.trace(ir)
            session.trace(ir, stream=True, output=tmp_path / "s.twpp")
            assert counters(session) == (0, 0)
            assert len(session._programs) == 0

    def test_trace_verbs_time_the_parse(self, store_dir, tmp_path, monkeypatch):
        from collections import OrderedDict

        from repro.ir import parser

        monkeypatch.setattr(parser, "_parse_cache", OrderedDict())
        ir = store_dir / "li-like.ir"
        n_functions = ir.read_text().count("\nfunc ") + 1
        with Session() as session:
            session.trace(ir)
            metrics = session.metrics
            assert metrics.counter("ir.parse.misses") == n_functions
            assert metrics.counter("ir.parse.hits") == 0
            assert "ir.parse" in metrics.timers_ms
            session.trace(ir, stream=True, output=tmp_path / "s.twpp")
            assert metrics.counter("ir.parse.misses") == n_functions
            assert metrics.counter("ir.parse.hits") == n_functions


def _leaves(program):
    out = []

    def walk(node):
        if isinstance(node, (Var, Const)):
            out.append(node)
        elif isinstance(node, tuple):
            for item in node:
                walk(item)
        elif is_dataclass(node):
            for f in fields(node):
                walk(getattr(node, f.name))

    for func in program:
        for block in func.blocks.values():
            walk(tuple(block.statements))
            walk(block.terminator)
    return out


def _twice_incremented():
    pb = ProgramBuilder()
    main = pb.function("main")
    b1, b2 = main.block(), main.block()
    b1.assign("x", 0).assign("x", binop("+", "x", 1)).jump(b2)
    b2.assign("x", binop("+", "x", 1)).ret("x")
    return pb.build()


class TestSlimIR:
    def test_nodes_have_no_instance_dict(self, li_like):
        program = parse_program(li_like[1])
        block = program.function(program.main).blocks[program.function(program.main).entry]
        nodes = [block, block.terminator, *block.statements, *_leaves(program)]
        assert nodes and all(not hasattr(n, "__dict__") for n in nodes)

    def test_leaves_are_shared_within_one_parse(self, li_like):
        program = parse_program(li_like[1])
        by_value = {}
        for leaf in _leaves(program):
            assert by_value.setdefault((type(leaf), leaf), leaf) is leaf
        assert len(by_value) < len(_leaves(program))
        # The parser's leaf table spans every parse, so a second parse
        # of the same text holds the very same leaves.
        other = parse_program(li_like[1])
        assert _leaves(other)[0] is _leaves(program)[0]

    def test_equal_statements_stay_distinct(self):
        program = parse_program(format_program(_twice_incremented()))
        b1, b2 = (program.function("main").blocks[b] for b in (1, 2))
        assert b1.statements[1] == b2.statements[0]
        assert b1.statements[1] is not b2.statements[0]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_parsed_program_survives_pickle(self, li_like, protocol):
        # Block labels are comments the parser drops, so start from the
        # printer's form of a parsed program.
        text = format_program(parse_program(li_like[1]))
        program = parse_program(text)
        assert format_program(program) == text
        clone = pickle.loads(pickle.dumps(program, protocol=protocol))
        assert format_program(clone) == text
        assert clone == program
        leaves = _leaves(clone)
        by_value = {}
        for leaf in leaves:
            assert by_value.setdefault((type(leaf), leaf), leaf) is leaf
        twice = pickle.loads(pickle.dumps(_twice_incremented(), protocol=protocol))
        b1, b2 = (twice.function("main").blocks[b] for b in (1, 2))
        assert b1.statements[1] == b2.statements[0]
        assert b1.statements[1] is not b2.statements[0]

    def test_frozen_nodes_stay_frozen(self):
        from dataclasses import FrozenInstanceError

        with pytest.raises(FrozenInstanceError):
            Const(1).value = 2
        assert hash(Var("i")) == hash(Var("i"))
