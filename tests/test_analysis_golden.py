"""Golden ``/analyze`` bodies: the frequency engine's exact output.

The brute-force property tests check verdicts only.  This file pins the
whole wire body of ``TraceStore.analyze`` -- every block's counts and
each report's ``total_queries`` -- plus every block's
``queries_issued``, for every function of two small workload analogues
at three facts.  Any change to how the engine walks the trace, peels
memo hits or folds verdicts back into its memo shows up here as a byte
difference, even when the verdicts stay right.

Regenerate ``tests/data/analyze_golden.jsonl.gz`` (only when a count is
*meant* to change) with::

    PYTHONPATH=src python tests/test_analysis_golden.py
"""

import gzip
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.api import Session
from repro.ir.printer import format_program
from repro.store import AnalyzeRequest
from repro.store.server import canonical_json
from repro.workloads import generate_program, spec_for

GOLDEN = Path(__file__).parent / "data" / "analyze_golden.jsonl.gz"
#: (trace name, workload family, scale): small, deterministic analogues.
RUNS = (("li", "li-like", 0.3), ("perl", "perl-like", 0.3))
FACTS = ("def:i", "def:acc", "expr:x")


def build_store(root: Path) -> None:
    """Trace each analogue into ``root/<name>.twpp`` beside its ``.ir``."""
    with Session() as session:
        for name, family, scale in RUNS:
            ir = root / f"{name}.ir"
            ir.write_text(format_program(generate_program(spec_for(family, scale))))
            session.trace(ir, stream=True, output=root / f"{name}.twpp")


def golden_records(root: Path):
    """One record per (trace, fact, function): the canonical body and
    each block's ``queries_issued``, in a fixed order."""
    with Session() as session, session.store(root) as store:
        for name, _family, _scale in RUNS:
            twpp = root / f"{name}.twpp"
            functions = session.engine(twpp).function_names()
            for fact in FACTS:
                for fn in sorted(functions):
                    body = canonical_json(store.analyze(
                        AnalyzeRequest(trace=name, fact=fact, functions=(fn,))
                    ))
                    reports = session.analyze(
                        twpp, root / f"{name}.ir", fact, functions=(fn,)
                    )[fn]
                    yield {
                        "trace": name,
                        "fact": fact,
                        "function": fn,
                        "body": body.decode("utf-8"),
                        "queries_issued": [
                            [[e.block_id, e.queries_issued]
                             for _, e in sorted(r.entries.items())]
                            for r in reports
                        ],
                    }


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_store")
    build_store(root)
    return list(golden_records(root))


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _key(record):
    return (record["trace"], record["fact"], record["function"])


def test_golden_covers_every_request(computed, golden):
    assert [_key(r) for r in computed] == [_key(r) for r in golden]
    assert {r["fact"] for r in golden} == set(FACTS)


def test_bodies_byte_equal(computed, golden):
    for got, want in zip(computed, golden):
        assert got["body"] == want["body"], _key(want)


def test_per_block_queries_issued(computed, golden):
    for got, want in zip(computed, golden):
        assert got["queries_issued"] == want["queries_issued"], _key(want)


def main() -> int:
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        build_store(root)
        lines = [
            json.dumps(r, sort_keys=True, separators=(",", ":"))
            for r in golden_records(root)
        ]
    text = "\n".join(lines) + "\n"
    # mtime=0 keeps the compressed file byte-stable across regenerations.
    GOLDEN.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))
    print(f"wrote {len(lines)} records to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
