"""Integrity checking for compacted WPPs (an "fsck" for .twpp data).

The compacted representation carries several cross-referencing tables;
this module validates all of their invariants so corrupted or
hand-edited files fail loudly instead of producing silently wrong
analyses:

* every DCG node references a valid function and pair;
* every pair references a valid trace body and dictionary;
* every dictionary is sound for its paired body (chains disjoint,
  heads unique, expansion well-defined);
* every TWPP body inverts to a positional trace (no gap, no
  timestamp out of range);
* per-function call counts equal the DCG's activation counts;
* with a program available: block ids exist, every call the traces
  execute matches one DCG node in preorder (:func:`dcg_children`), and
  the root is the main function.
"""

from __future__ import annotations

from typing import List, Optional

from ..ir.module import Program
from ..trace.dcg import dcg_children
from ..trace.reconstruct import pair_call_counts
from .dbb import expand_trace
from .pipeline import CompactedWpp
from .twpp import PathTrace, twpp_to_trace


class IntegrityError(Exception):
    """Raised when a compacted WPP violates a structural invariant."""


def verify_compacted(
    compacted: CompactedWpp, program: Optional[Program] = None
) -> List[str]:
    """Validate all invariants; returns human-readable check summaries.

    Raises :class:`IntegrityError` on the first violation.
    """
    notes: List[str] = []
    dcg = compacted.dcg

    if len(compacted.functions) != len(compacted.func_names):
        raise IntegrityError("function table and name table disagree")
    for idx, fc in enumerate(compacted.functions):
        if fc.name != compacted.func_names[idx]:
            raise IntegrityError(
                f"function {idx}: name {fc.name!r} != table entry "
                f"{compacted.func_names[idx]!r}"
            )

    # DCG references.
    activation_counts = [0] * len(compacted.functions)
    for node in range(len(dcg)):
        func_idx = dcg.node_func[node]
        if func_idx >= len(compacted.functions):
            raise IntegrityError(f"DCG node {node}: bad function {func_idx}")
        fc = compacted.functions[func_idx]
        pair_id = dcg.node_trace[node]
        if pair_id >= len(fc.pairs):
            raise IntegrityError(
                f"DCG node {node}: pair {pair_id} out of range for "
                f"{fc.name} ({len(fc.pairs)} pairs)"
            )
        activation_counts[func_idx] += 1
    notes.append(f"DCG: {len(dcg)} activations reference valid pairs")

    # Per-function tables; ``traces[f][p]`` is pair p's expanded trace.
    total_pairs = 0
    traces: List[List[PathTrace]] = []
    for func_idx, fc in enumerate(compacted.functions):
        if fc.call_count != activation_counts[func_idx]:
            raise IntegrityError(
                f"{fc.name}: call_count {fc.call_count} != "
                f"{activation_counts[func_idx]} DCG activations"
            )
        bodies = []
        for body_id, twpp in enumerate(fc.twpp_table):
            try:
                bodies.append(twpp_to_trace(twpp))
            except ValueError as exc:
                raise IntegrityError(
                    f"{fc.name} body {body_id}: TWPP malformed: {exc}"
                ) from exc
        seen_pairs = set()
        traces.append([])
        for pair_id, (body_id, dict_id) in enumerate(fc.pairs):
            if body_id >= len(bodies):
                raise IntegrityError(
                    f"{fc.name} pair {pair_id}: bad body id {body_id}"
                )
            if dict_id >= len(fc.dict_table):
                raise IntegrityError(
                    f"{fc.name} pair {pair_id}: bad dict id {dict_id}"
                )
            if (body_id, dict_id) in seen_pairs:
                raise IntegrityError(
                    f"{fc.name}: duplicate pair ({body_id}, {dict_id})"
                )
            seen_pairs.add((body_id, dict_id))
            # The pair must expand (chains sound for this body).
            try:
                traces[-1].append(
                    expand_trace(bodies[body_id], fc.dict_table[dict_id])
                )
            except Exception as exc:  # noqa: BLE001 - reported as integrity
                raise IntegrityError(
                    f"{fc.name} pair {pair_id}: expansion failed: {exc}"
                ) from exc
        total_pairs += len(fc.pairs)
    notes.append(
        f"tables: {total_pairs} pairs, all bodies/dictionaries/TWPPs "
        "consistent"
    )

    if program is not None:
        _verify_against_program(compacted, program, traces, notes)
    return notes


def _verify_against_program(
    compacted: CompactedWpp,
    program: Program,
    traces: List[List[PathTrace]],
    notes: List[str],
) -> None:
    for fc, fc_traces in zip(compacted.functions, traces):
        if fc.name not in program.functions:
            raise IntegrityError(f"{fc.name}: not defined in the program")
        missing = set().union(*fc_traces).difference(
            program.function(fc.name).blocks
        )
        if missing:
            raise IntegrityError(
                f"{fc.name}: trace references missing block B{min(missing)}"
            )

    # Tree shape: the traces' calls must match the DCG's nodes.
    dcg = compacted.dcg
    try:
        dcg_children(
            dcg, pair_call_counts(compacted.func_names, traces, program)
        )
    except ValueError as exc:
        raise IntegrityError(f"DCG shape: {exc}") from exc
    root_name = compacted.functions[dcg.node_func[0]].name if len(dcg) else None
    if root_name is not None and root_name != program.main:
        raise IntegrityError(
            f"root activation is {root_name!r}, program main is "
            f"{program.main!r}"
        )
    notes.append("program: block ids, call counts and root all consistent")
