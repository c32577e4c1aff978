"""The request parse surface, pinned per route and per request class.

Every route of the daemon is driven with a valid form and with each
kind of malformed input (an unknown parameter or field, a repeated
singleton, a missing required field, a wrong type, an out-of-range
value, a blank value, a non-object JSON body).  The HTTP status is
pinned by the table; the ``error`` text must equal what the in-process
parser (``from_query`` / ``from_dict``) raises for the same input, so
the two transports cannot drift apart.
"""

import json
import socket
from urllib.parse import parse_qs

import pytest

from repro.store import (
    AnalyzeRequest,
    CorpusDiffRequest,
    CorpusHotRequest,
    CorpusStatsRequest,
    QueryRequest,
    RequestError,
    StatsRequest,
)

from .test_store_server import corpus_served  # noqa: F401

ROUTE_CLASSES = {
    "/query": QueryRequest,
    "/stats": StatsRequest,
    "/corpus/stats": CorpusStatsRequest,
    "/corpus/hot": CorpusHotRequest,
    "/corpus/diff": CorpusDiffRequest,
    "/analyze": AnalyzeRequest,
}

#: (path, query string, status).  The routes without a request class
#: (``/traces``, ``/metrics``, ``/healthz``) pin their status only.
GET_CASES = [
    ("/traces", "", 200),
    ("/traces", "refresh=1", 200),
    ("/traces", "nope=1", 400),
    ("/metrics", "", 200),
    ("/metrics", "nope=1", 400),
    ("/healthz", "", 200),
    ("/healthz", "nope=", 400),
    ("/query", "trace=li-like", 200),
    ("/query", "trace=li-like&fn=main&fn=main&limit=1", 200),
    ("/query", "trace=li-like&limit=0", 200),
    ("/query", "trace=nosuch", 404),
    ("/query", "trace=li-like&nope=1", 400),
    ("/query", "trace=li-like&trace=li-like", 400),
    ("/query", "trace=li-like&limit=1&limit=2", 400),
    ("/query", "", 400),
    ("/query", "fn=main", 400),
    ("/query", "trace=li-like&limit=banana", 400),
    ("/query", "trace=li-like&limit=1.5", 400),
    ("/query", "trace=li-like&limit=-1", 400),
    ("/query", "trace=", 400),
    ("/query", "trace=li-like&limit=", 400),
    ("/query", "trace=li-like&fn=", 400),
    ("/stats", "", 200),
    ("/stats", "trace=li-like", 200),
    ("/stats", "trace=nosuch", 404),
    ("/stats", "nope=1", 400),
    ("/stats", "trace=li-like&trace=perl-like", 400),
    ("/stats", "trace=", 400),
    ("/corpus/stats", "", 200),
    ("/corpus/stats", "top=3", 400),
    ("/corpus/stats", "nope=", 400),
    ("/corpus/hot", "", 200),
    ("/corpus/hot", "top=3&coverage=0.8", 200),
    ("/corpus/hot", "run=li-like&run=perl-like&fn=main&top=0&coverage=1", 200),
    ("/corpus/hot", "run=nosuch", 404),
    ("/corpus/hot", "nope=1", 400),
    ("/corpus/hot", "top=1&top=2", 400),
    ("/corpus/hot", "coverage=0.5&coverage=0.6", 400),
    ("/corpus/hot", "top=banana", 400),
    ("/corpus/hot", "coverage=banana", 400),
    ("/corpus/hot", "top=-1", 400),
    ("/corpus/hot", "coverage=0", 400),
    ("/corpus/hot", "coverage=1.5", 400),
    ("/corpus/hot", "top=", 400),
    ("/corpus/hot", "coverage=", 400),
    ("/corpus/hot", "run=", 400),
    ("/corpus/hot", "fn=", 400),
    ("/corpus/diff", "a=li-like&b=perl-like", 200),
    ("/corpus/diff", "a=li-like&b=perl-like&limit=0", 200),
    ("/corpus/diff", "a=li-like&b=nosuch", 404),
    ("/corpus/diff", "a=li-like&b=perl-like&nope=1", 400),
    ("/corpus/diff", "a=li-like&a=perl-like&b=perl-like", 400),
    ("/corpus/diff", "a=li-like&b=perl-like&limit=1&limit=2", 400),
    ("/corpus/diff", "", 400),
    ("/corpus/diff", "a=li-like", 400),
    ("/corpus/diff", "b=perl-like", 400),
    ("/corpus/diff", "a=li-like&b=perl-like&limit=banana", 400),
    ("/corpus/diff", "a=li-like&b=perl-like&limit=-1", 400),
    ("/corpus/diff", "a=&b=perl-like", 400),
    ("/corpus/diff", "a=li-like&b=perl-like&limit=", 400),
]

ANALYZE = {"trace": "li-like", "fact": "def:acc", "functions": ["main"]}

#: (raw POST /analyze body, status).
POST_CASES = [
    (json.dumps(ANALYZE), 200),
    (json.dumps({**ANALYZE, "program": "li-like.ir"}), 200),
    (json.dumps({**ANALYZE, "nope": 1}), 400),
    (json.dumps({"trace": "li-like"}), 400),
    (json.dumps({"fact": "def:acc"}), 400),
    (json.dumps({}), 400),
    (json.dumps({**ANALYZE, "trace": 1}), 400),
    (json.dumps({**ANALYZE, "functions": [1]}), 400),
    (json.dumps({**ANALYZE, "functions": {"main": 1}}), 400),
    (json.dumps({**ANALYZE, "program": 3}), 400),
    (json.dumps({**ANALYZE, "trace": ""}), 400),
    (json.dumps({**ANALYZE, "fact": ""}), 400),
    (json.dumps({**ANALYZE, "functions": [""]}), 400),
    (json.dumps([ANALYZE]), 400),
    (json.dumps("li-like"), 400),
    (json.dumps(None), 400),
    ("{not json", 400),
    ("", 400),
]


def fetch(server, method, target, body=b""):
    """One request on a fresh connection: ``(status, parsed JSON body)``."""
    address = (server.host, server.port)
    with socket.create_connection(address, timeout=30) as sock:
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        )
        sock.sendall(head.encode("ascii") + body)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, payload = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


def parse_error(parse):
    """The message ``parse()`` raises, or None when it accepts."""
    try:
        parse()
    except RequestError as exc:
        return str(exc)
    return None


def _case_id(case):
    return f"{case[0]}?{case[1]}"


class TestHttpMatchesInProcess:
    @pytest.mark.parametrize(
        "path,query,status", GET_CASES, ids=[_case_id(c) for c in GET_CASES]
    )
    def test_get(self, corpus_served, path, query, status):
        server, _store = corpus_served
        code, doc = fetch(server, "GET", f"{path}?{query}" if query else path)
        assert code == status, doc
        cls = ROUTE_CLASSES.get(path)
        if cls is None:
            return
        error = parse_error(
            lambda: cls.from_query(parse_qs(query, keep_blank_values=True))
        )
        if error is None:
            assert code != 400
        else:
            assert code == 400 and doc == {"error": error}

    @pytest.mark.parametrize(
        "body,status", POST_CASES, ids=[c[0] or "empty" for c in POST_CASES]
    )
    def test_post_analyze(self, corpus_served, body, status):
        server, _store = corpus_served
        code, doc = fetch(server, "POST", "/analyze", body.encode("utf-8"))
        assert code == status, doc
        try:
            data = json.loads(body)
        except json.JSONDecodeError:
            return  # a transport error: no in-process twin
        error = parse_error(lambda: AnalyzeRequest.from_dict(data))
        if error is None:
            assert code != 400
        else:
            assert code == 400 and doc == {"error": error}


#: (class, dict, accepted?) for ``from_dict`` on every class.
DICT_CASES = [
    (QueryRequest, {"trace": "t", "functions": ["f"], "limit": 2}, True),
    (QueryRequest, {"trace": "t", "functions": "f", "limit": None}, True),
    (QueryRequest, {"trace": "t", "nope": 1}, False),
    (QueryRequest, {"functions": ["f"]}, False),
    (QueryRequest, {"trace": 1}, False),
    (QueryRequest, {"trace": "t", "limit": "banana"}, False),
    (QueryRequest, {"trace": "t", "limit": -1}, False),
    (QueryRequest, {"trace": ""}, False),
    (AnalyzeRequest, {"trace": "t", "fact": "def:x", "program": "p.ir"}, True),
    (AnalyzeRequest, {"trace": "t", "fact": "def:x", "nope": 1}, False),
    (AnalyzeRequest, {"trace": "t"}, False),
    (AnalyzeRequest, {"trace": "t", "fact": 1}, False),
    (AnalyzeRequest, {"trace": "t", "fact": "def:x", "program": ""}, False),
    (StatsRequest, {}, True),
    (StatsRequest, {"trace": "t"}, True),
    (StatsRequest, {"trace": None}, True),
    (StatsRequest, {"nope": 1}, False),
    (StatsRequest, {"trace": 1}, False),
    (StatsRequest, {"trace": ""}, False),
    (CorpusStatsRequest, {}, True),
    (CorpusStatsRequest, {"nope": 1}, False),
    (CorpusHotRequest, {"runs": ["a"], "functions": ["f"], "top": 0}, True),
    (CorpusHotRequest, {"top": None, "coverage": None}, True),
    (CorpusHotRequest, {"coverage": 1}, True),
    (CorpusHotRequest, {"nope": 1}, False),
    (CorpusHotRequest, {"runs": [1]}, False),
    (CorpusHotRequest, {"top": "banana"}, False),
    (CorpusHotRequest, {"coverage": "banana"}, False),
    (CorpusHotRequest, {"top": -1}, False),
    (CorpusHotRequest, {"coverage": 0}, False),
    (CorpusHotRequest, {"coverage": 1.5}, False),
    (CorpusHotRequest, {"runs": [""]}, False),
    (CorpusDiffRequest, {"run_a": "a", "run_b": "b", "limit": 0}, True),
    (CorpusDiffRequest, {"run_a": "a", "run_b": "b", "limit": None}, True),
    (CorpusDiffRequest, {"run_a": "a", "run_b": "b", "nope": 1}, False),
    (CorpusDiffRequest, {"run_a": "a"}, False),
    (CorpusDiffRequest, {"run_b": "b"}, False),
    (CorpusDiffRequest, {"run_a": "a", "run_b": 2}, False),
    (CorpusDiffRequest, {"run_a": "a", "run_b": "b", "limit": "x"}, False),
    (CorpusDiffRequest, {"run_a": "a", "run_b": "b", "limit": -1}, False),
    (CorpusDiffRequest, {"run_a": "", "run_b": "b"}, False),
]

ALL_CLASSES = [
    QueryRequest,
    AnalyzeRequest,
    StatsRequest,
    CorpusStatsRequest,
    CorpusHotRequest,
    CorpusDiffRequest,
]


class TestInProcess:
    @pytest.mark.parametrize(
        "cls,data,accepted",
        DICT_CASES,
        ids=[f"{c.__name__}-{json.dumps(d)}" for c, d, _ in DICT_CASES],
    )
    def test_from_dict(self, cls, data, accepted):
        if accepted:
            cls.from_dict(data)
        else:
            with pytest.raises(RequestError):
                cls.from_dict(data)

    @pytest.mark.parametrize("cls", ALL_CLASSES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("body", [[], "x", 3, None], ids=repr)
    def test_non_object_body(self, cls, body):
        with pytest.raises(RequestError, match="JSON object"):
            cls.from_dict(body)

    @pytest.mark.parametrize(
        "request_",
        [
            QueryRequest(trace="run", functions=("a", "b"), limit=3),
            AnalyzeRequest(
                trace="run", fact="def:x", functions=("f",), program="p.ir"
            ),
            StatsRequest(trace="run"),
            CorpusStatsRequest(),
            CorpusHotRequest(runs=("a", "b"), functions=("f",), top=0,
                             coverage=0.5),
            CorpusDiffRequest(run_a="a", run_b="b", limit=0),
        ]
        + [
            pytest.param(request_, id=f"{type(request_).__name__}-defaults")
            for request_ in (
                QueryRequest(trace="run"),
                AnalyzeRequest(trace="run", fact="load:100"),
                StatsRequest(),
                CorpusHotRequest(),
                CorpusDiffRequest(run_a="a", run_b="b"),
            )
        ],
        ids=lambda r: type(r).__name__,
    )
    def test_round_trip(self, request_):
        assert type(request_).from_dict(request_.to_dict()) == request_
        assert json.loads(json.dumps(request_.to_dict())) == request_.to_dict()

    def test_every_class_is_covered(self):
        covered = {cls for cls, _data, _ok in DICT_CASES}
        assert covered == set(ALL_CLASSES) == set(ROUTE_CLASSES.values())


def test_formats_doc_lists_exactly_the_routes():
    """docs/FORMATS.md's endpoint table names every ``(method, path)``
    of the daemon's route table, and nothing else."""
    import re
    from pathlib import Path

    from repro.store.server import ROUTES

    doc = Path(__file__).resolve().parents[1] / "docs" / "FORMATS.md"
    rows = re.findall(r"^\| `(GET|POST) (/[^?\[`]*)", doc.read_text(), re.M)
    assert sorted(rows) == sorted(ROUTES)
    assert len(rows) == len(set(rows))
