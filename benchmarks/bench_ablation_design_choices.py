"""Ablations for the design choices DESIGN.md calls out.

Four paper design decisions, each compared against the obvious
alternative on the real workload data:

1. sign-encoded series boundaries vs explicit per-entry length tags;
2. DBB dictionaries before TWPP conversion vs TWPP on raw traces;
3. LZW-compressed DCG vs raw varint DCG;
4. hottest-first section ordering vs name ordering (index locality).
"""

from conftest import emit

from repro.bench.tables import Table, fmt_factor, fmt_kb
from repro.compact import lzw_compress, trace_to_twpp
from repro.compact.format import encode_body, encode_series
from repro.compact.pipeline import _trace_bytes  # serialized trace size
from repro.trace.encoding import svarint_size, uvarint_size


def _sign_encoded_bytes(twpp) -> int:
    """Bytes of the timestamp streams under the paper's sign encoding."""
    return sum(
        sum(svarint_size(v) for v in encode_series(ts))
        for _b, ts in twpp.entries
    )


def _length_prefixed_bytes(twpp) -> int:
    """Bytes under the alternative: per-entry shape tag, unsigned values."""
    total = 0
    for _block, ts in twpp.entries:
        for lo, hi, step in ts.entries:
            if lo == hi:
                total += uvarint_size(0) + uvarint_size(lo)
            elif step == 1:
                total += uvarint_size(1) + uvarint_size(lo) + uvarint_size(hi)
            else:
                total += (
                    uvarint_size(2)
                    + uvarint_size(lo)
                    + uvarint_size(hi)
                    + uvarint_size(step)
                )
    return total


def test_ablation_series_encoding(benchmark, artifacts, results_dir):
    """Sign-encoded boundaries beat explicit length tags on every workload."""
    table = Table(
        title="Ablation: series boundary encoding (timestamp stream bytes)",
        headers=["Program", "sign-encoded", "length-prefixed", "saving"],
    )

    def measure():
        rows = []
        for art in artifacts:
            signed = tagged = 0
            for fc in art.compacted.functions:
                for twpp in fc.twpp_table:
                    signed += _sign_encoded_bytes(twpp)
                    tagged += _length_prefixed_bytes(twpp)
            rows.append((art.name, signed, tagged))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for name, signed, tagged in rows:
        table.add_row(
            [name, fmt_kb(signed), fmt_kb(tagged), fmt_factor(tagged / signed)],
            {"name": name, "signed": signed, "tagged": tagged},
        )
        assert signed <= tagged, (name, signed, tagged)
    emit(results_dir, "ablation_series_encoding", table)


def test_ablation_dbb_before_twpp(benchmark, artifacts, results_dir):
    """TWPP after DBB collapse vs TWPP straight on deduplicated traces.

    Skipping the dictionary stage leaves loop bodies as multi-block
    sequences, scattering timestamps over more nodes; the combined
    (twpp + dictionaries) size should not lose to the no-dictionary
    variant on the loop-regular workloads.
    """
    table = Table(
        title="Ablation: DBB dictionaries before TWPP (bytes)",
        headers=["Program", "with dicts (twpp+dict)", "without dicts", "ratio"],
    )

    def measure():
        rows = []
        for art in artifacts:
            with_dicts = (
                art.stats.ctwpp_trace_bytes + art.stats.dictionary_bytes
            )
            without = 0
            for table_traces in art.partitioned.traces:
                for raw in table_traces:
                    without += len(encode_body(trace_to_twpp(raw)))
            rows.append((art.name, with_dicts, without))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for name, with_dicts, without in rows:
        table.add_row(
            [name, fmt_kb(with_dicts), fmt_kb(without),
             fmt_factor(without / with_dicts)],
            {"name": name, "with": with_dicts, "without": without},
        )
    emit(results_dir, "ablation_dbb_before_twpp", table)
    # Loop-heavy workloads must benefit from the dictionary stage.
    by_name = {r[0]: r for r in rows}
    for name in ("ijpeg-like", "perl-like"):
        _n, with_dicts, without = by_name[name]
        assert without > with_dicts, (name, with_dicts, without)


def test_ablation_lzw_dcg(benchmark, artifacts, results_dir):
    """LZW compresses every workload's DCG (repetitive call patterns)."""
    table = Table(
        title="Ablation: DCG compression (bytes)",
        headers=["Program", "raw DCG", "LZW DCG", "factor"],
    )

    def measure():
        rows = []
        for art in artifacts:
            raw = art.compacted.dcg.serialize()
            comp = lzw_compress(raw)
            rows.append((art.name, len(raw), len(comp)))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for name, raw, comp in rows:
        table.add_row(
            [name, fmt_kb(raw), fmt_kb(comp), fmt_factor(raw / comp)],
            {"name": name, "raw": raw, "lzw": comp},
        )
        assert comp < raw, (name, raw, comp)
    emit(results_dir, "ablation_lzw_dcg", table)


def test_ablation_storage_order(benchmark, artifacts, results_dir):
    """Hottest-first ordering puts frequent queries near the header.

    Measured as the call-weighted mean byte offset of function sections
    under the paper's ordering vs alphabetical ordering.
    """
    from repro.compact.format import read_header

    table = Table(
        title="Ablation: section ordering (call-weighted mean section offset, KB)",
        headers=["Program", "hottest-first", "name-order", "ratio"],
    )

    def measure():
        rows = []
        for art in artifacts:
            with open(art.twpp_path, "rb") as fh:
                header = read_header(fh)
            weights = {e.name: e.call_count for e in header.entries}
            total_calls = sum(weights.values())
            hot = sum(e.offset * weights[e.name] for e in header.entries)
            hot /= total_calls
            # Re-layout the same sections alphabetically.
            by_name = sorted(header.entries, key=lambda e: e.name)
            cursor = 0
            alpha = 0.0
            for e in by_name:
                alpha += cursor * weights[e.name]
                cursor += e.length
            alpha /= total_calls
            rows.append((art.name, hot, alpha))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    for name, hot, alpha in rows:
        ratio = alpha / hot if hot else float("inf")
        table.add_row(
            [name, fmt_kb(int(hot)), fmt_kb(int(alpha)), f"{ratio:.1f}"],
            {"name": name, "hot": hot, "alpha": alpha},
        )
        assert hot <= alpha * 1.05, (name, hot, alpha)
    emit(results_dir, "ablation_storage_order", table)
