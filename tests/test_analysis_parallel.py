"""The analysis process fan-out: shard planning, serial identity,
crash fallback, and the rule that it is the only process fan-out.

:func:`repro.analysis.parallel.analyze_tasks_parallel` promises that
``jobs`` is a pure throughput knob: every report -- entries, per-block
``queries_issued`` and the memo-dependent ``total_queries`` -- equals
the serial loop's, whether the executor ran, fell back to serial after
a worker died, or was skipped because a fact cannot leave the process.
"""

import ast
import os
from pathlib import Path

import pytest

import repro
from repro.analysis import parallel
from repro.analysis.facts import (
    ExpressionAvailable,
    Fact,
    LoadAvailable,
    VarHasDefinition,
    fact_to_spec,
    parse_fact,
)
from repro.analysis.frequency import fact_frequencies_many
from repro.analysis.parallel import plan_shards, resolve_jobs
from repro.api import Session
from repro.compact import compact_wpp, write_twpp
from repro.compact.qserve import QueryEngine
from repro.obs import MetricsRegistry
from repro.trace import collect_wpp, partition_wpp
from repro.workloads.specs import workload

SRC = Path(repro.__file__).resolve().parent

ANALYSIS_FACTS = (
    VarHasDefinition("i"),
    LoadAvailable(0x1000),
    ExpressionAvailable(("a", "b")),
)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    """(program, twpp path, serial {name: traces} reference)."""
    program, _spec = workload("perl-like", scale=0.1)
    compacted, _stats = compact_wpp(partition_wpp(collect_wpp(program)))
    path = tmp_path_factory.mktemp("analysis-parallel") / "w.twpp"
    write_twpp(compacted, path)
    with QueryEngine(path) as engine:
        reference = engine.traces_many()
    return program, path, reference


def analysis_tasks(program, reference, limit=24):
    tasks = []
    for name, traces in reference.items():
        func = program.function(name)
        for trace in traces[:2]:
            for fact in ANALYSIS_FACTS:
                tasks.append((func, trace, fact))
    return tasks[:limit]


def canon(report):
    return (
        report.fact,
        report.total_queries,
        {
            bid: (e.executions, e.holds, e.fails, e.unresolved, e.queries_issued)
            for bid, e in report.entries.items()
        },
    )


class LocalFact(Fact):
    """A caller's own fact: it has no spec spelling, so a batch holding
    it stays in the process."""

    def __init__(self, name):
        self.name = name

    def gens(self, stmt):
        return self.name in stmt.defs()

    def kills(self, stmt):
        return False


def unspelled_tasks(reference, program):
    name = next(iter(reference))
    func = program.function(name)
    fact = LocalFact("i")
    return name, fact, [(func, trace, fact) for trace in reference[name][:2]]


# A picklable stand-in for the shard worker: it kills any process but
# the one that imported this module, so the executor breaks while the
# in-process fallback still analyzes.
_PARENT_PID = os.getpid()
_REAL_SHARD = parallel._analyze_shard


def _exit_in_child(payload):
    if os.getpid() != _PARENT_PID:
        os._exit(1)
    return _REAL_SHARD(payload)


class TestShardPlanning:
    def test_every_index_exactly_once(self):
        costs = [5, 1, 9, 2, 2, 7, 1, 1]
        shards = plan_shards(costs, 3)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(len(costs)))
        assert len(shards) <= 3

    def test_balanced_loads(self):
        costs = [10, 10, 10, 10, 1, 1, 1, 1]
        shards = plan_shards(costs, 4)
        loads = [sum(costs[i] for i in shard) for shard in shards]
        assert max(loads) <= 2 * min(loads)

    def test_more_shards_than_items(self):
        shards = plan_shards([3, 1], 16)
        assert sorted(i for s in shards for i in s) == [0, 1]
        assert all(shard for shard in shards)

    def test_deterministic(self):
        costs = [4, 4, 4, 2, 2, 8]
        assert plan_shards(costs, 3) == plan_shards(costs, 3)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            plan_shards([1, 2], 0)


class TestResolveJobs:
    def test_defaults_to_cpu_count(self):
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestFactSpecs:
    @pytest.mark.parametrize("fact", ANALYSIS_FACTS)
    def test_round_trip(self, fact):
        spec = fact_to_spec(fact)
        assert spec is not None
        assert parse_fact(spec) == fact

    def test_custom_fact_has_no_spec(self):
        assert fact_to_spec(LocalFact("i")) is None


class TestExecutorMatchesSerial:
    def test_fact_frequencies_many_identical(self, artifact):
        program, _path, reference = artifact
        tasks = analysis_tasks(program, reference)
        serial = fact_frequencies_many(tasks)
        metrics = MetricsRegistry()
        fanned = fact_frequencies_many(tasks, jobs=2, metrics=metrics)
        assert [canon(r) for r in fanned] == [canon(r) for r in serial]
        assert metrics.counter("analysis.parallel_runs") == 1
        assert metrics.counter("analysis.tasks") == len(tasks)

    def test_blocks_subset_identical(self, artifact):
        program, _path, reference = artifact
        name = next(iter(reference))
        func = program.function(name)
        trace = reference[name][0]
        blocks = sorted(set(trace))[:2]
        tasks = [
            (func, trace, VarHasDefinition("i"), blocks),
            (func, trace, LoadAvailable(0x1000), blocks),
        ]
        serial = fact_frequencies_many(tasks)
        fanned = fact_frequencies_many(tasks, jobs=2)
        assert [canon(r) for r in fanned] == [canon(r) for r in serial]

    @pytest.mark.parametrize("spec", ["def:i", "load:0x1000", "expr:a,b"])
    def test_session_analyze_identical(self, artifact, spec):
        program, path, _reference = artifact
        with Session(jobs=1) as session:
            serial = session.analyze(path, program, spec)
        with Session(jobs=2) as session:
            fanned = session.analyze(path, program, spec)
            runs = session.metrics.counter("analysis.parallel_runs")
        assert list(fanned) == list(serial)
        for name in serial:
            assert [canon(r) for r in fanned[name]] == [
                canon(r) for r in serial[name]
            ]
        assert runs == 1

    def test_unspelled_fact_runs_serially(self, artifact):
        program, path, reference = artifact
        name, fact, tasks = unspelled_tasks(reference, program)
        serial = fact_frequencies_many(tasks)
        metrics = MetricsRegistry()
        got = fact_frequencies_many(tasks, jobs=2, metrics=metrics)
        assert [canon(r) for r in got] == [canon(r) for r in serial]
        assert metrics.counter("analysis.parallel_runs") == 0
        with Session(jobs=2) as session:
            reports = session.analyze(path, program, fact, functions=[name])
            assert session.metrics.counter("analysis.parallel_runs") == 0
        with Session(jobs=1) as session:
            expected = session.analyze(path, program, fact, functions=[name])
        assert [canon(r) for r in reports[name]] == [
            canon(r) for r in expected[name]
        ]


class TestCrashFallback:
    def test_killed_worker_falls_back_to_serial(self, artifact, monkeypatch):
        program, _path, reference = artifact
        tasks = analysis_tasks(program, reference, limit=12)
        serial = fact_frequencies_many(tasks)
        monkeypatch.setattr(parallel, "_analyze_shard", _exit_in_child)
        metrics = MetricsRegistry()
        got = fact_frequencies_many(tasks, jobs=2, metrics=metrics)
        assert [canon(r) for r in got] == [canon(r) for r in serial]
        assert metrics.counter("analysis.parallel_runs") == 1
        assert metrics.counter("analysis.parallel_fallback") == 1


class TestSingleFanOut:
    def test_only_analysis_parallel_starts_processes(self):
        """No module but analysis/parallel.py imports multiprocessing or
        anything of concurrent.futures beyond ThreadPoolExecutor, and
        only the HTTP daemon imports that thread pool."""
        banned = ("concurrent", "multiprocessing")
        thread_pool = ("concurrent.futures", "ThreadPoolExecutor")
        offenders, thread_pool_users = [], []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported = [(alias.name, None) for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported = [
                        (node.module or "", alias.name) for alias in node.names
                    ]
                else:
                    continue
                for module, name in imported:
                    if module.split(".")[0] not in banned:
                        continue
                    users = (
                        thread_pool_users
                        if (module, name) == thread_pool
                        else offenders
                    )
                    users.append(str(path.relative_to(SRC)))
        assert sorted(set(offenders)) == [os.path.join("analysis", "parallel.py")]
        assert sorted(set(thread_pool_users)) == [
            os.path.join("store", "server.py")
        ]
