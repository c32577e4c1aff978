"""The typed request model of the TraceStore verbs.

One frozen dataclass per store verb: :class:`QueryRequest`,
:class:`AnalyzeRequest`, :class:`StatsRequest`,
:class:`CorpusStatsRequest`, :class:`CorpusHotRequest` and
:class:`CorpusDiffRequest`.  Each field is declared once, with its
check (non-empty text, a list of names, a non-negative count, a
fraction in (0, 1]), its default (none = required) and, where it
differs from the field name, its URL parameter name.  The shared base
derives validation on construction, :meth:`~_Request.from_dict`,
:meth:`~_Request.from_query` and :meth:`~_Request.to_dict` from that
declaration, so every transport parses a verb the same way:
in-process :class:`~repro.store.store.TraceStore` calls, the HTTP
daemon (``GET`` parameters and the ``POST /analyze`` body) and the
CLI's ``corpus stats|hot|diff``.  Every malformed input raises
:class:`RequestError`, which the HTTP layer maps to a 400 and the CLI
to exit code 2.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "AnalyzeRequest",
    "CorpusDiffRequest",
    "CorpusHotRequest",
    "CorpusStatsRequest",
    "QueryRequest",
    "RequestError",
    "StatsRequest",
]


class RequestError(ValueError):
    """A malformed store request (HTTP 400 / CLI exit 2)."""


# ---- field checks: (value, field name) -> the normalized value --------


def _text(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise RequestError(f"{name} must be a non-empty string")
    return value


def _names(value, name: str) -> Tuple[str, ...]:
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, str) and v for v in value
    ):
        raise RequestError(f"{name} must be a list of non-empty strings")
    return tuple(value)


def _count(value, name: str) -> int:
    try:
        count = int(value)
    except (TypeError, ValueError):
        raise RequestError(f"{name} must be an integer") from None
    if count < 0:
        raise RequestError(f"{name} must be >= 0")
    return count


def _fraction(value, name: str) -> float:
    try:
        fraction = float(value)
    except (TypeError, ValueError):
        raise RequestError(f"{name} must be a number") from None
    if not 0.0 < fraction <= 1.0:
        raise RequestError(f"{name} must be in (0, 1]")
    return fraction


def _field(check, default=MISSING, param: Optional[str] = None):
    """Declare one request field; no ``default`` makes it required."""
    return field(default=default, metadata={"check": check, "param": param})


class _Request:
    """Validation and the dict/query codecs, derived from the fields.

    Each subclass becomes a frozen dataclass whose :func:`_field`
    declarations drive everything below.  ``None`` for a field with a
    default means "the default".  In a URL a name-list field may
    repeat; any other parameter appears at most once.
    """

    # (name, check, default or MISSING, URL parameter, is a name list)
    _specs: Tuple[Tuple, ...] = ()
    _field_names: frozenset = frozenset()
    _params: frozenset = frozenset()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        dataclass(frozen=True)(cls)
        cls._specs = tuple(
            (f.name, f.metadata["check"], f.default,
             f.metadata["param"] or f.name, f.metadata["check"] is _names)
            for f in fields(cls)
        )
        cls._field_names = frozenset(spec[0] for spec in cls._specs)
        cls._params = frozenset(spec[3] for spec in cls._specs)

    def __post_init__(self):
        for name, check, default, _param, _many in self._specs:
            value = getattr(self, name)
            if value is None and default is not MISSING:
                value = default
            if value is not None or default is MISSING:
                object.__setattr__(self, name, check(value, name))

    @classmethod
    def _reject_unknown(cls, given, known, what: str) -> None:
        if not known.issuperset(given):
            raise RequestError(
                f"unknown {cls.__name__} {what}(s): "
                + ", ".join(sorted(map(str, set(given) - known)))
            )

    @classmethod
    def from_dict(cls, data: Mapping):
        """Build from a JSON object (unknown fields are rejected)."""
        if not isinstance(data, Mapping):
            raise RequestError(f"{cls.__name__} body must be a JSON object")
        cls._reject_unknown(data, cls._field_names, "field")
        for name, _check, default, _param, _many in cls._specs:
            if default is MISSING and name not in data:
                raise RequestError(f"{cls.__name__} needs a {name}")
        return cls(**data)

    @classmethod
    def from_query(cls, params: Mapping[str, List[str]]):
        """Build from parsed URL query parameters (``parse_qs`` shape)."""
        cls._reject_unknown(params, cls._params, "parameter")
        values = {}
        for name, _check, default, param, many in cls._specs:
            given = params.get(param)
            if not given:
                if default is MISSING:
                    raise RequestError(
                        f"{cls.__name__} needs a {param} parameter"
                    )
            elif many:
                values[name] = given
            elif len(given) > 1:
                raise RequestError(f"at most one {param} parameter")
            else:
                values[name] = given[0]
        return cls(**values)

    def to_dict(self) -> Dict:
        """The JSON-ready form :meth:`from_dict` reads back; fields
        left at ``None`` or ``()`` are omitted."""
        doc: Dict = {}
        for name, *_rest in self._specs:
            value = getattr(self, name)
            if value is not None and value != ():
                doc[name] = list(value) if isinstance(value, tuple) else value
        return doc


class QueryRequest(_Request):
    """Path traces for one trace's functions (``GET /query``).

    ``trace`` names an indexed trace (the ``.twpp`` file's stem);
    ``functions`` restricts the batch (empty = every function, in
    storage order); ``limit`` caps the traces returned per function
    (None = all).
    """

    trace: str = _field(_text)
    functions: Tuple[str, ...] = _field(_names, (), param="fn")
    limit: Optional[int] = _field(_count, None)


class AnalyzeRequest(_Request):
    """Data-flow fact frequencies over one trace's path traces
    (``POST /analyze``).

    ``fact`` is a spec string (``load:ADDR``, ``expr:a,b``, ``def:x``);
    ``program`` is the textual-IR file, resolved *relative to the store
    root* (default: ``<trace>.ir`` beside the ``.twpp``); ``functions``
    restricts the sweep (empty = every traced function).
    """

    trace: str = _field(_text)
    fact: str = _field(_text)
    functions: Tuple[str, ...] = _field(_names, ())
    program: Optional[str] = _field(_text, None)


class StatsRequest(_Request):
    """Store- or trace-level serving stats (``GET /stats``; no trace =
    whole store)."""

    trace: Optional[str] = _field(_text, None)


class CorpusStatsRequest(_Request):
    """Corpus-level compaction accounting (``GET /corpus/stats``)."""


class CorpusHotRequest(_Request):
    """Hot acyclic paths across ingested runs (``GET /corpus/hot``).

    ``runs``/``functions`` restrict the aggregation (empty = all);
    ``top`` caps the ranked entries; ``coverage`` is the fraction for
    the "N paths cover X%" statistic.
    """

    runs: Tuple[str, ...] = _field(_names, (), param="run")
    functions: Tuple[str, ...] = _field(_names, (), param="fn")
    top: int = _field(_count, 10)
    coverage: float = _field(_fraction, 0.9)


class CorpusDiffRequest(_Request):
    """Compare two ingested runs (``GET /corpus/diff``); ``limit`` caps
    the changed functions listed."""

    run_a: str = _field(_text, param="a")
    run_b: str = _field(_text, param="b")
    limit: int = _field(_count, 20)
