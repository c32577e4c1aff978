#!/usr/bin/env python3
"""Quickstart: collect a WPP, compact it to a TWPP, query it.

Builds the paper's Figure 1 program (a main loop calling a two-path
function f), then walks the full pipeline:

    run + trace  ->  partition  ->  compact  ->  .twpp file  ->  query

and prints each intermediate form so you can follow the paper's
Figures 1-7 on real output.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.compact import (
    compact_wpp,
    extract_function_traces,
    twpp_to_trace,
    write_twpp,
)
from repro.compact.format import encode_series
from repro.trace import collect_wpp, partition_wpp, reconstruct_wpp, write_wpp
from repro.workloads import figure1_program


def main() -> None:
    program = figure1_program()
    print("=== The program (paper, Figure 1) ===")
    from repro.ir import format_program

    print(format_program(program))

    # 1. Execute and collect the whole program path.
    wpp = collect_wpp(program)
    print(f"\n=== WPP: {len(wpp)} events ===")
    rendered = []
    for kind, arg in list(wpp.iter_events())[:18]:
        if kind == 0:
            rendered.append(f"enter {wpp.func_names[arg]}")
        elif kind == 1:
            rendered.append(f"B{arg}")
        else:
            rendered.append("leave")
    print(" ".join(rendered), "...")

    # 2. Partition into per-call path traces linked by the DCG (Fig 2-3).
    part = partition_wpp(wpp)
    print("\n=== Partitioned (redundant traces eliminated) ===")
    for name in part.func_names:
        traces = part.unique_traces(name)
        print(
            f"{name}: {part.call_counts()[name]} calls, "
            f"{len(traces)} unique path trace(s)"
        )
        for t in traces:
            print("   ", ".".join(map(str, t)))

    # 3. Compact: DBB dictionaries + TWPP conversion (Fig 4-7).
    compacted, stats = compact_wpp(part)
    print("\n=== Compacted TWPP ===")
    for fc in compacted.functions:
        print(f"{fc.name}:")
        for twpp in fc.twpp_table:
            body = twpp_to_trace(twpp)
            print("    trace body:", ".".join(map(str, body)))
            # On disk each block's timestamp set is a signed entry
            # stream: a negative integer closes an entry (Figure 7).
            print(
                "    TWPP      :",
                {block: encode_series(ts) for block, ts in twpp.entries},
            )
        for d in fc.dict_table:
            print("    dictionary:", dict(d.as_map()))

    # 4. Write both representations and compare sizes.
    tmp = Path(tempfile.mkdtemp(prefix="twpp-quickstart-"))
    raw_bytes = write_wpp(wpp, tmp / "fig1.wpp")
    twpp_bytes = write_twpp(compacted, tmp / "fig1.twpp")
    print(
        f"\n.wpp  (uncompacted): {raw_bytes} bytes\n"
        f".twpp (compacted)  : {twpp_bytes} bytes"
    )
    print(f"stage sizes: {stats}")

    # 5. Query one function's traces straight from the file: this reads
    # the header plus f's section only.
    traces = extract_function_traces(tmp / "fig1.twpp", "f")
    print("\n=== Extracted f's unique path traces from the .twpp file ===")
    for t in traces:
        print("   ", ".".join(map(str, t)))

    # 6. Losslessness: the original WPP reconstructs exactly.
    back = reconstruct_wpp(compacted.to_partitioned(), program)
    assert back.to_tuples() == wpp.to_tuples()
    print("\nWPP reconstructed from the compacted form: identical. ✓")


if __name__ == "__main__":
    main()
