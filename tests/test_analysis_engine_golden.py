"""Golden engine accounting: what the ``/analyze`` golden cannot see.

``tests/test_analysis_golden.py`` pins the wire bodies and every block's
``queries_issued``.  This file pins the rest of the engine's observable
behaviour over the same two traces and three facts: for every query of
each path trace's all-blocks sweep, memoized and stateless, its
``memo_hits`` and ``queries_issued``, the engine's ``memo_stats()``
after the sweep, and a SHA-1 over every ``log=`` vector (the
propagated ``(node, timestamp series)`` pairs, entry by entry).

Regenerate ``tests/data/engine_golden.json.gz`` (only when one of these
is *meant* to change) with::

    PYTHONPATH=src python -m tests.test_analysis_engine_golden
"""

import gzip
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.analysis import DemandDrivenEngine, parse_fact
from repro.api import Session
from repro.ir.parser import parse_program

from .test_analysis_golden import FACTS, RUNS, build_store

GOLDEN = Path(__file__).parent / "data" / "engine_golden.json.gz"


def sweep_record(func, trace, fact, memoize):
    """One all-blocks sweep, each query logged, in ``cfg.nodes()`` order."""
    engine = DemandDrivenEngine.for_function_trace(
        func, trace, fact, memoize=memoize
    )
    digest = hashlib.sha1()
    memo_hits, queries_issued = [], []
    for node in engine.cfg.nodes():
        log = []
        result = engine.query(node, log=log)
        memo_hits.append(result.memo_hits)
        queries_issued.append(result.queries_issued)
        for m, ts in log:
            digest.update(repr((node, m, ts.entries)).encode("ascii"))
    return {
        "memo_hits": memo_hits,
        "queries_issued": queries_issued,
        "memo_stats": engine.memo_stats(),
        "log_sha1": digest.hexdigest(),
    }


def golden_records(root: Path):
    """One record per (trace, fact, function, path trace, memoize)."""
    with Session() as session:
        for name, _family, _scale in RUNS:
            program = parse_program((root / f"{name}.ir").read_text())
            engine = session.engine(root / f"{name}.twpp")
            for fact_spec in FACTS:
                fact = parse_fact(fact_spec)
                for fn in sorted(engine.function_names()):
                    func = program.function(fn)
                    for index, trace in enumerate(engine.traces(fn)):
                        for memoize in (True, False):
                            record = sweep_record(func, trace, fact, memoize)
                            record.update(
                                trace=name, fact=fact_spec, function=fn,
                                index=index, memoize=memoize,
                            )
                            yield record


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    root = tmp_path_factory.mktemp("engine_golden_store")
    build_store(root)
    return list(golden_records(root))


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _key(record):
    return tuple(
        record[k] for k in ("trace", "fact", "function", "index", "memoize")
    )


def test_golden_covers_every_sweep(computed, golden):
    assert [_key(r) for r in computed] == [_key(r) for r in golden]
    assert {r["memoize"] for r in golden} == {True, False}


@pytest.mark.parametrize(
    "field", ["memo_hits", "queries_issued", "memo_stats", "log_sha1"]
)
def test_sweep_field_unchanged(computed, golden, field):
    for got, want in zip(computed, golden):
        assert got[field] == want[field], _key(want)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_store(root)
        records = list(golden_records(root))
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the compressed file byte-stable across regenerations.
    GOLDEN.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    print(f"wrote {len(records)} records to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
