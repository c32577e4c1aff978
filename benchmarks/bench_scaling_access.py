"""Extension bench: scaling of indexed access with trace size.

The paper's Table 4 mechanism: the raw scan (U) grows linearly with the
trace while the indexed read (C) stays flat.
"""

import time

from conftest import emit

from repro.bench.tables import Table, fmt_ms
from repro.bench.workbench import build_artifacts
from repro.compact import extract_function_traces
from repro.trace import scan_function_traces

SCALES = (0.5, 1.0, 2.0, 4.0)


def _measure(art):
    hot = art.traced_function_names()[0]
    t0 = time.perf_counter()
    scan_function_traces(art.wpp_path, hot)
    u = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    extract_function_traces(art.twpp_path, hot)
    c = (time.perf_counter() - t0) * 1000
    return u, c


def test_speedup_grows_with_trace_size(benchmark, results_dir, tmp_path):
    rows = []
    for scale in SCALES:
        art = build_artifacts(
            "perl-like", scale=scale, out_dir=tmp_path, with_sequitur=False
        )
        u, c = _measure(art)
        rows.append((scale, len(art.wpp), u, c))

    # Benchmark the flat side at the largest scale.
    art = build_artifacts(
        "perl-like", scale=SCALES[-1], out_dir=tmp_path, with_sequitur=False
    )
    hot = art.traced_function_names()[0]
    benchmark.pedantic(
        lambda: extract_function_traces(art.twpp_path, hot),
        rounds=5,
        iterations=1,
    )

    table = Table(
        title="Extension: access speedup vs trace size (perl-like)",
        headers=["scale", "events", "U scan (ms)", "C indexed (ms)", "speedup"],
        note=(
            "U grows with the trace; C reads header + one section and "
            "stays flat, so the speedup approaches the paper's 3 orders "
            "of magnitude as traces approach paper-like sizes."
        ),
    )
    for scale, events, u, c in rows:
        table.add_row(
            [scale, events, fmt_ms(u), fmt_ms(c), f"{u / c:.0f}"],
            {"scale": scale, "events": events, "u_ms": u, "c_ms": c},
        )
    emit(results_dir, "extension_scaling_access", table)

    # U must grow substantially across the sweep; C must not.
    first, last = table.data[0], table.data[-1]
    assert last["events"] > 4 * first["events"]
    assert last["u_ms"] > 3 * first["u_ms"]
    assert last["c_ms"] < 10 * first["c_ms"]
    # And the speedup must improve with scale.
    assert last["u_ms"] / last["c_ms"] > first["u_ms"] / first["c_ms"]

