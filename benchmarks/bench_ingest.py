"""Ingest bench: the streaming batched+bulk-codec pipeline vs the seed path.

Measures how fast trace events move from the interpreter to an indexed
``.twpp`` on the perl-like workload, three ways:

* **pipeline replay** — the headline number.  One recorded event
  stream (run boundaries come free from the interpreter) is replayed
  through both ingest shapes:

  - *seed per-event*: one tracer call per event into
    :class:`_SeedWppBuilder` (the seed's per-event WPP builder),
    scalar-varint raw-WPP encode, scalar decode, partitioning,
    compact, write -- the seed's staged ``trace -> .wpp -> partition
    -> compact`` route with its one-value-at-a-time codecs;
  - *batched + bulk*: ``block_run`` batches straight into the
    :class:`~repro.trace.partition.OnlinePartitioner` (no raw WPP is
    ever materialized), compact, write -- the shape
    :func:`~repro.compact.stream.stream_compact` executes.

  Both produce byte-identical ``.twpp`` bytes; the full bench asserts
  the batched path ingests >= 3x more events/sec.

* **stage components** — tracer dispatch (per-event vs ``block_run``)
  and raw-event codec (scalar loop vs ``encode_uvarints`` /
  ``decode_uvarints``) timed in isolation.

* **interpreter sweep** — traced *execution* (not replay): the
  tree-walking reference (``Interpreter(program).run``) vs the
  compiled engine (``compiled_for(program).run``), each into a
  :class:`~repro.trace.wpp.WppBuilder`, plus an end-to-end
  trace -> compact -> serialize run per engine with byte-identity
  checked.  This is the headline for the compiled-interpreter work: the
  full bench gates compiled >= 5x tree end-to-end, the smoke gate >= 2x.

* **end-to-end stream** — wall clock of ``repro-wpp trace --stream``'s
  engine (:func:`stream_compact`) vs the two-phase route from the same
  program, files ``cmp``-identical; the row reports the run's
  ``interp_ms`` (the ``ingest.execute`` timer: interpreter and
  partitioner) and ``compact_ms`` (the ``ingest.finalize`` timer:
  compaction once the run ends).

Results land in ``BENCH_ingest.json`` (schema ``repro.bench_ingest/4``).

Runs two ways::

    pytest benchmarks/bench_ingest.py            # bench suite
    python benchmarks/bench_ingest.py --smoke    # CI smoke gate

``--smoke`` uses a small workload and asserts direction, byte identity,
and compiled >= 2x tree; the full bench asserts >= 3x replay ingest and
>= 5x compiled end-to-end execution.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from array import array
from pathlib import Path

from repro.bench.workbench import bench_scale
from repro.compact.format import serialize_twpp
from repro.compact.pipeline import compact_wpp
from repro.compact.stream import stream_compact
from repro.interp import Interpreter, compiled_for, run_program
from repro.obs import MetricsRegistry
from repro.trace.encoding import (
    decode_uvarints,
    encode_uvarints,
    read_uvarint,
    write_uvarint,
)
from repro.trace.partition import OnlinePartitioner, partition_wpp
from repro.trace.wpp import BLOCK, ENTER, LEAVE, WppBuilder, WppTrace, pack_event
from repro.workloads.specs import workload

BENCH_SCHEMA = "repro.bench_ingest/4"
WORKLOAD = "perl-like"


class _SegmentRecorder:
    """Capture one run's event stream as enter/run/leave segments.

    The interpreter hands straight-line block runs to ``block_run`` for
    free, so recording segments (rather than single events) costs the
    replay nothing it would not have in production.
    """

    def __init__(self) -> None:
        self.segments = []

    def enter(self, func_name: str) -> None:
        self.segments.append(("e", func_name))

    def block_run(self, ids) -> None:
        self.segments.append(("r", ids))

    def leave(self) -> None:
        self.segments.append(("l",))


class _SeedWppBuilder:
    """The seed's per-event WPP builder: one packed event per call."""

    def __init__(self) -> None:
        self._func_index = {}
        self._events = array("Q")

    def enter(self, func_name: str) -> None:
        idx = self._func_index.setdefault(func_name, len(self._func_index))
        self._events.append(pack_event(ENTER, idx))

    def block(self, block_id: int) -> None:
        self._events.append(pack_event(BLOCK, block_id))

    def leave(self) -> None:
        self._events.append(pack_event(LEAVE))

    def finish(self) -> WppTrace:
        return WppTrace(func_names=list(self._func_index), events=self._events)


def _flatten(segments):
    """Per-event view of a segment stream (the seed tracer's diet)."""
    flat = []
    for seg in segments:
        if seg[0] == "r":
            flat.extend(("b", b) for b in seg[1])
        else:
            flat.append(seg)
    return flat


def _time_best(fn, rounds):
    best = float("inf")
    out = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


# ---------------------------------------------------------------------------
# the two replayed ingest pipelines


def _seed_pipeline(flat, n_events):
    """Seed shape: per-event dispatch, scalar codecs, staged phases."""
    builder = _SeedWppBuilder()
    enter, block, leave = builder.enter, builder.block, builder.leave
    for seg in flat:
        kind = seg[0]
        if kind == "b":
            block(seg[1])
        elif kind == "e":
            enter(seg[1])
        else:
            leave()
    wpp = builder.finish()
    # Seed write_wpp/read_wpp event sections: one varint at a time.
    buf = bytearray()
    for value in wpp.events:
        write_uvarint(buf, value)
    raw = bytes(buf)
    values = array("Q")
    offset = 0
    for _ in range(n_events):
        value, offset = read_uvarint(raw, offset)
        values.append(value)
    decoded = WppTrace(func_names=list(wpp.func_names), events=values)
    compacted, _ = compact_wpp(partition_wpp(decoded))
    return serialize_twpp(compacted)


def _batched_pipeline(segments):
    """New shape: block_run batches into the online partitioner."""
    part = OnlinePartitioner()
    enter, run, leave = part.enter, part.block_run, part.leave
    for seg in segments:
        kind = seg[0]
        if kind == "r":
            run(seg[1])
        elif kind == "e":
            enter(seg[1])
        else:
            leave()
    compacted, _ = compact_wpp(part.finish())
    return serialize_twpp(compacted)


# ---------------------------------------------------------------------------
# stage components


def _component_times(segments, flat, rounds):
    def build_per_event():
        builder = _SeedWppBuilder()
        enter, block, leave = builder.enter, builder.block, builder.leave
        for seg in flat:
            kind = seg[0]
            if kind == "b":
                block(seg[1])
            elif kind == "e":
                enter(seg[1])
            else:
                leave()
        return builder.finish()

    def build_batched():
        builder = WppBuilder()
        enter, run, leave = builder.enter, builder.block_run, builder.leave
        for seg in segments:
            kind = seg[0]
            if kind == "r":
                run(seg[1])
            elif kind == "e":
                enter(seg[1])
            else:
                leave()
        return builder.finish()

    t_build_pe, wpp = _time_best(build_per_event, rounds)
    t_build_b, wpp_b = _time_best(build_batched, rounds)
    assert wpp.events == wpp_b.events, "batched build diverged"

    def enc_scalar():
        buf = bytearray()
        for value in wpp.events:
            write_uvarint(buf, value)
        return bytes(buf)

    def enc_bulk():
        return encode_uvarints(wpp.events)

    t_enc_s, raw = _time_best(enc_scalar, rounds)
    t_enc_b, raw_b = _time_best(enc_bulk, rounds)
    assert raw == raw_b, "bulk encode diverged"

    n = len(wpp.events)

    def dec_scalar():
        values = array("Q")
        offset = 0
        for _ in range(n):
            value, offset = read_uvarint(raw, offset)
            values.append(value)
        return values

    def dec_bulk():
        values, _ = decode_uvarints(raw, 0, n)
        return array("Q", values)

    t_dec_s, vals = _time_best(dec_scalar, rounds)
    t_dec_b, vals_b = _time_best(dec_bulk, rounds)
    assert vals == vals_b, "bulk decode diverged"

    def ratio(a, b):
        return round(a / b, 2) if b else None

    return {
        "tracer_per_event_ms": round(t_build_pe * 1e3, 3),
        "tracer_batched_ms": round(t_build_b * 1e3, 3),
        "tracer_speedup": ratio(t_build_pe, t_build_b),
        "encode_scalar_ms": round(t_enc_s * 1e3, 3),
        "encode_bulk_ms": round(t_enc_b * 1e3, 3),
        "encode_speedup": ratio(t_enc_s, t_enc_b),
        "decode_scalar_ms": round(t_dec_s * 1e3, 3),
        "decode_bulk_ms": round(t_dec_b * 1e3, 3),
        "decode_speedup": ratio(t_dec_s, t_dec_b),
    }


# ---------------------------------------------------------------------------
# interpreter sweep (tree vs compiled)


def _interp_sweep(program, n_events, rounds):
    compile_metrics = MetricsRegistry()
    compiled_for(program, metrics=compile_metrics)  # warm the compile cache
    # The compiled leg is run_program's route: translate (code-cache
    # hits), then run.
    engines = {
        "tree": lambda tracer: Interpreter(program).run(tracer=tracer),
        "compiled": lambda tracer: run_program(program, tracer=tracer),
    }

    modes = {}
    reference_events = None
    for engine, run in engines.items():

        def traced(run=run):
            builder = WppBuilder()
            run(tracer=builder)
            return builder.finish()

        elapsed, wpp = _time_best(traced, rounds)
        if reference_events is None:
            reference_events = wpp.events
        else:
            assert wpp.events == reference_events, (
                f"{engine} event stream diverged"
            )
        modes[engine] = {
            "ms": round(elapsed * 1e3, 3),
            "events_per_sec": round(n_events / elapsed) if elapsed else None,
        }

    # End-to-end traced execution: program -> partition -> compact ->
    # serialized .twpp, once per engine, byte-compared.
    e2e = {}
    blobs = {}
    for engine, run in engines.items():

        def full(run=run):
            part = OnlinePartitioner()
            run(tracer=part)
            compacted, _ = compact_wpp(part.finish())
            return serialize_twpp(compacted)

        elapsed, blob = _time_best(full, rounds)
        blobs[engine] = blob
        e2e[engine] = {
            "ms": round(elapsed * 1e3, 3),
            "events_per_sec": round(n_events / elapsed) if elapsed else None,
        }

    tree_ms = e2e["tree"]["ms"]
    compiled_ms = e2e["compiled"]["ms"]
    return {
        "compile_ms": round(
            compile_metrics.timers_ms.get("interp.compile", 0.0), 3
        ),
        "modes": modes,
        "e2e": e2e,
        "e2e_identical": blobs["tree"] == blobs["compiled"],
        "e2e_speedup": round(tree_ms / compiled_ms, 2) if compiled_ms else None,
        "interp_speedup": round(
            modes["tree"]["ms"] / modes["compiled"]["ms"], 2
        )
        if modes["compiled"]["ms"]
        else None,
    }


# ---------------------------------------------------------------------------
# end-to-end stream (stream_compact vs two-phase, from the program)


def _stream_vs_two_phase(program, tmp_dir, rounds):
    out_path = Path(tmp_dir) / "stream.twpp"

    def two_phase():
        recorder = WppBuilder()
        run_program(program, tracer=recorder)
        compacted, _ = compact_wpp(partition_wpp(recorder.finish()))
        return serialize_twpp(compacted)

    last_metrics = {}

    def streamed():
        metrics = MetricsRegistry()
        result = stream_compact(program, out_path, metrics=metrics)
        last_metrics["m"] = metrics
        return result

    t_two, ref = _time_best(two_phase, rounds)
    t_stream, res = _time_best(streamed, rounds)
    timers = last_metrics["m"].timers_ms
    return {
        "two_phase_ms": round(t_two * 1e3, 3),
        "twpp_bytes": len(ref),
        "stream_ms": round(t_stream * 1e3, 3),
        "stream_events_per_sec": round(res.events / t_stream),
        # The run (interpreter and partitioner) and the compaction
        # after it, from the ingest.* stage timers.
        "interp_ms": round(timers["ingest.execute"], 3),
        "compact_ms": round(timers["ingest.finalize"], 3),
        "identical_to_two_phase": out_path.read_bytes() == ref,
    }


def run_bench(scale=1.0, smoke=False, tmp_dir=None):
    """Run the replay + component + stream benches; returns the doc."""
    if smoke:
        scale = min(scale, 0.2)
    program, spec = workload(WORKLOAD, scale=scale)
    rounds = 2 if smoke else 5

    recorder = _SegmentRecorder()
    run_program(program, tracer=recorder)
    segments = recorder.segments
    flat = _flatten(segments)
    n_events = len(flat)
    runs = [len(seg[1]) for seg in segments if seg[0] == "r"]

    t_seed, out_seed = _time_best(
        lambda: _seed_pipeline(flat, n_events), rounds
    )
    t_new, out_new = _time_best(lambda: _batched_pipeline(segments), rounds)
    identical = out_seed == out_new

    components = _component_times(segments, flat, rounds)
    interp = _interp_sweep(program, n_events, rounds)
    stream = (
        _stream_vs_two_phase(program, tmp_dir, rounds)
        if tmp_dir is not None
        else None
    )

    seed_eps = n_events / t_seed if t_seed else 0.0
    new_eps = n_events / t_new if t_new else 0.0
    return {
        "schema": BENCH_SCHEMA,
        "unix_time": round(time.time(), 3),
        "smoke": smoke,
        "workload": WORKLOAD,
        "scale": spec.scale,
        "events": n_events,
        "runs": len(runs),
        "mean_run_len": round(sum(runs) / len(runs), 1) if runs else 0,
        "cpus": os.cpu_count(),
        "rounds": rounds,
        "seed_per_event_ms": round(t_seed * 1e3, 3),
        "seed_events_per_sec": round(seed_eps),
        "batched_bulk_ms": round(t_new * 1e3, 3),
        "batched_events_per_sec": round(new_eps),
        "ingest_speedup": round(new_eps / seed_eps, 2) if seed_eps else None,
        "twpp_identical": identical,
        "components": components,
        "interp": interp,
        "stream": stream,
    }


def write_doc(doc, out_path):
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# pytest entry point (bench suite)


def test_ingest_batched_vs_per_event(results_dir, tmp_path):
    """Batched+bulk ingest moves >= 3x more events/sec than the seed
    per-event path on perl-like (byte-identical .twpp), and the compiled
    interpreter executes >= 5x faster than the tree-walker end-to-end."""
    doc = run_bench(scale=max(1.0, bench_scale()), tmp_dir=tmp_path)
    out = write_doc(doc, Path(results_dir) / "BENCH_ingest.json")
    print(f"\nwrote {out}")
    print(
        f"seed {doc['seed_events_per_sec']:,} ev/s, batched+bulk "
        f"{doc['batched_events_per_sec']:,} ev/s => "
        f"x{doc['ingest_speedup']} ({doc['events']} events)"
    )
    interp = doc["interp"]
    print(
        f"tree e2e {interp['e2e']['tree']['events_per_sec']:,} ev/s, "
        f"compiled e2e {interp['e2e']['compiled']['events_per_sec']:,} ev/s "
        f"=> x{interp['e2e_speedup']}"
    )
    assert doc["twpp_identical"]
    assert doc["stream"]["identical_to_two_phase"]
    assert doc["ingest_speedup"] >= 3, doc
    assert interp["e2e_identical"], interp
    assert interp["e2e_speedup"] >= 5, interp


# ---------------------------------------------------------------------------
# standalone entry point (CI smoke gate)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Streaming batched+bulk-codec ingest vs the seed path"
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small workload, direction-only assertion")
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale (default: REPRO_BENCH_SCALE)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default results/BENCH_ingest.json)")
    args = parser.parse_args(argv)

    import tempfile

    scale = args.scale if args.scale is not None else max(1.0, bench_scale())
    with tempfile.TemporaryDirectory() as tmp_dir:
        doc = run_bench(scale=scale, smoke=args.smoke, tmp_dir=tmp_dir)
    default_out = (
        Path(__file__).resolve().parent.parent / "results" / "BENCH_ingest.json"
    )
    out = write_doc(doc, args.out or default_out)
    print(json.dumps(doc, indent=2))
    print(f"wrote {out}", file=sys.stderr)

    if not doc["twpp_identical"]:
        print("FAIL: batched pipeline diverged from seed bytes", file=sys.stderr)
        return 1
    if doc["stream"] and not doc["stream"]["identical_to_two_phase"]:
        print("FAIL: stream_compact diverged from two-phase", file=sys.stderr)
        return 1
    interp = doc["interp"]
    if not interp["e2e_identical"]:
        print("FAIL: compiled engine .twpp diverged from tree-walker",
              file=sys.stderr)
        return 1
    if args.smoke:
        if doc["batched_events_per_sec"] <= doc["seed_events_per_sec"]:
            print("FAIL: batched ingest not faster than per-event",
                  file=sys.stderr)
            return 1
        if interp["e2e_speedup"] < 2:
            print("FAIL: compiled interpreter below 2x tree end-to-end",
                  file=sys.stderr)
            return 1
    else:
        if doc["ingest_speedup"] < 3:
            print("FAIL: ingest speedup below 3x", file=sys.stderr)
            return 1
        if interp["e2e_speedup"] < 5:
            print("FAIL: compiled interpreter below 5x tree end-to-end",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
