"""Command-line interface: the pipeline as composable file commands.

Usage (also via ``python -m repro``)::

    repro-wpp generate perl-like -o prog.ir          # textual IR out
    repro-wpp trace prog.ir -o run.wpp --arg 0       # run + collect WPP
    repro-wpp compact run.wpp -o run.twpp --metrics-out m.json
    repro-wpp sequitur run.wpp -o run.sqwp           # Larus baseline
    repro-wpp info run.twpp                          # header/summary
    repro-wpp query run.twpp some_function           # per-function traces
    repro-wpp query run.twpp f g h                   # cached batch query
    repro-wpp stats run.wpp                          # stage size report
    repro-wpp check run.twpp --program prog.ir       # integrity fsck
    repro-wpp analyze run.twpp --program prog.ir --fact load:100 -j 4
    repro-wpp diff good.twpp bad.twpp                # behavioural run diff
    repro-wpp hotpaths run.twpp                      # hot acyclic paths
    repro-wpp scan traces/                           # list a store's traces
    repro-wpp serve traces/ --port 8080              # trace-serving daemon
    repro-wpp corpus ingest corpus/ run*.twpp        # shared multi-run corpus
    repro-wpp corpus diff corpus/ run1 run8          # cross-run diff
    repro-wpp corpus hot corpus/ --top 10            # corpus-wide hot paths
    repro-wpp corpus stats corpus/                   # sharing/compaction report
    repro-wpp corpus check corpus/                   # refs, shas, pack tail
    repro-wpp experiments --scale 1.0                # all tables+figures

Every command reads/writes the documented on-disk formats, so the CLI
composes with the library and with itself.  The pipeline commands share
two parent parsers: ``--metrics-out`` (write the ``repro.metrics/1``
JSON the run accumulated) and ``-j/--jobs`` (worker count, 0 = one per
CPU).  Only ``analyze`` fans work out (analysis worker processes), so
only it takes ``-j``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from .interp.errors import InterpError
from .ir import IRError, ParseError
from .util import read_magic


def _cmd_generate(args: argparse.Namespace) -> int:
    from .ir.printer import format_program
    from .workloads.specs import WORKLOAD_NAMES, workload

    if args.name not in WORKLOAD_NAMES:
        print(
            f"unknown workload {args.name!r}; choose from "
            f"{', '.join(WORKLOAD_NAMES)}",
            file=sys.stderr,
        )
        return 2
    program, spec = workload(args.name, scale=args.scale)
    text = format_program(program)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output} ({len(program.functions)} functions)")
    else:
        print(text)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .api import Session
    from .trace.format import write_wpp

    if args.verify and not args.stream:
        print("error: --verify requires --stream", file=sys.stderr)
        return 2
    with Session() as session:
        traced = session.trace(
            args.program,
            args=tuple(args.arg),
            inputs=tuple(args.input),
            max_events=args.max_events,
            stream=args.stream,
            # The .wpp route writes the file itself, below.
            output=args.output if args.stream else None,
            verify=args.verify,
        )
        run = traced.run
        if args.stream:
            if args.verify:
                print(f"verified {args.output} reads back identically")
            print(
                f"streamed {traced.events} events ({run.calls_made} calls) "
                f"at {traced.events_per_sec:,.0f} events/s, wrote {args.output} "
                f"({traced.bytes_written} bytes, "
                f"overall x{traced.stats.overall_factor:.1f})"
            )
        else:
            size = write_wpp(traced, args.output)
            session.metrics.inc("trace.bytes_written", size)
            print(
                f"traced {len(traced)} events ({run.calls_made} calls), "
                f"wrote {args.output} ({size} bytes)"
            )
        if run.output:
            print("program output:", " ".join(map(str, run.output)))
        if args.metrics_out:
            session.metrics.write_json(args.metrics_out)
            print(f"wrote {args.metrics_out}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from .api import Session

    with Session() as session:
        result = session.compact(args.wpp)
        size = result.save(args.output)
        stats = result.stats
        print(f"wrote {args.output} ({size} bytes)")
        print(
            f"stages: dedup x{stats.dedup_factor:.2f}, "
            f"dictionaries x{stats.dictionary_factor:.2f}, "
            f"twpp x{stats.twpp_factor:.2f}  =>  "
            f"overall x{stats.overall_factor:.1f}"
        )
        if args.metrics_out:
            session.metrics.write_json(args.metrics_out)
            print(f"wrote {args.metrics_out}")
    return 0


def _cmd_sequitur(args: argparse.Namespace) -> int:
    from .sequitur.wpp_codec import write_compressed_wpp
    from .trace.format import read_wpp

    wpp = read_wpp(args.wpp)
    size = write_compressed_wpp(wpp, args.output)
    print(f"wrote {args.output} ({size} bytes, {len(wpp)} events)")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    path = Path(args.file)
    magic = read_magic(path)
    if magic == b"WPP1":
        from .trace.format import read_wpp

        wpp = read_wpp(path)
        counts = wpp.call_counts()
        print(f"{path}: uncompacted WPP, {len(wpp)} events")
        print(f"functions ({len(wpp.func_names)}):")
        for name in sorted(counts, key=lambda n: -counts[n]):
            print(f"  {name}: {counts[name]} activation(s)")
    elif magic == b"TWPP":
        from .compact.format import read_header

        with open(path, "rb") as fh:
            header = read_header(fh)
        print(
            f"{path}: compacted TWPP, {len(header.entries)} functions, "
            f"DCG {header.dcg_comp_len} bytes compressed "
            f"({header.dcg_raw_len} raw)"
        )
        print("sections (hottest first):")
        for e in header.entries:
            print(
                f"  {e.name}: {e.call_count} calls, section "
                f"{e.length} bytes @ +{e.offset}"
            )
    elif magic == b"SQWP":
        from .sequitur.wpp_codec import read_step

        names, grammar = read_step(path)
        print(
            f"{path}: Sequitur-compressed WPP, {len(names)} functions, "
            f"{grammar.rule_count()} rules, "
            f"{grammar.total_symbols()} symbols, expands to "
            f"{grammar.expanded_length()} events"
        )
    else:
        print(f"{path}: unknown format (magic {magic!r})", file=sys.stderr)
        return 2
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .api import Session

    path = Path(args.file)
    magic = read_magic(path)
    if magic == b"TWPP":
        label = "unique path traces"
    elif magic in (b"WPP1", b"SQWP"):
        label = "path traces (one per activation)"
    else:
        print(f"{path}: unknown format", file=sys.stderr)
        return 2

    with Session(cache_bytes=args.cache_bytes) as s:
        results = s.query(path, names=args.functions)
        metrics = s.metrics
    for name, traces in results.items():
        print(f"{name}: {len(traces)} {label}")
        limit = args.limit if args.limit > 0 else len(traces)
        for trace in traces[:limit]:
            print("  " + ".".join(map(str, trace)))
        if len(traces) > limit:
            print(f"  ... ({len(traces) - limit} more)")
    if args.metrics_out:
        metrics.write_json(args.metrics_out)
        print(f"wrote {args.metrics_out}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .obs import MetricsRegistry
    from .store.store import scan_index

    root = Path(args.store)
    if not root.is_dir():
        print(f"{args.store}: not a directory", file=sys.stderr)
        return 2
    metrics = MetricsRegistry()
    index, result = scan_index(root, {}, metrics)
    print(
        f"{args.store}: {len(index)} trace(s) catalogued "
        f"(+{result.added} added, ~{result.updated} updated, "
        f"-{result.removed} removed, {result.unchanged} unchanged)"
    )
    for row in index.values():
        print(
            f"  {row.trace}: {len(row.entries)} function(s), "
            f"{row.calls} call(s), {row.size} bytes"
            + ("" if row.has_program else "  [no .ir]")
        )
    for error in result.errors:
        print(f"error: {error}", file=sys.stderr)
    if args.metrics_out:
        metrics.write_json(args.metrics_out)
        print(f"wrote {args.metrics_out}")
    return 1 if result.errors else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .api import Session
    from .store.server import TraceServer

    session = Session(cache_bytes=args.cache_bytes)
    store = session.store(args.store, corpus=args.corpus)
    server = TraceServer(
        store,
        host=args.host,
        port=args.port,
        verbose=args.verbose,
    )

    def _request_stop(signum, frame):
        print(
            f"{signal.Signals(signum).name}: draining and shutting down",
            file=sys.stderr,
            flush=True,
        )
        server.request_stop()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    print(
        f"serving {args.store} ({len(store)} trace(s)) at {server.url}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if args.metrics_out:
            store.metrics.write_json(args.metrics_out)
            print(f"wrote {args.metrics_out}", file=sys.stderr)
        store.close()
        session.close()
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .api import Session

    with Session(jobs=args.jobs) as s:
        reports = s.analyze(
            args.twpp,
            args.program,
            args.fact,
            functions=args.functions or None,
        )
        metrics = s.metrics
    for name, func_reports in reports.items():
        for idx, report in enumerate(func_reports):
            hot = report.hot_facts(args.threshold)
            total = sum(e.executions for e in report.entries.values())
            held = sum(e.holds for e in report.entries.values())
            print(
                f"{name}[trace {idx}]: {held}/{total} instances hold, "
                f"{len(hot)} hot block(s) at >= {args.threshold:.0%}"
            )
            for e in hot[: args.limit]:
                print(
                    f"  block {e.block_id}: {e.holds}/{e.executions} "
                    f"({e.frequency:.0%})"
                )
    if args.metrics_out:
        metrics.write_json(args.metrics_out)
        print(f"wrote {args.metrics_out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .api import Session
    from .trace.format import read_wpp

    session = Session()
    metrics = session.metrics
    wpp = read_wpp(args.wpp)
    part = session.partition(wpp)
    stats = session.stats(part)
    kb = 1024
    print(f"events            : {len(wpp)}")
    print(f"activations       : {sum(part.call_counts().values())}")
    print(f"functions         : {len(part.func_names)}")
    print(f"DCG               : {stats.dcg_raw_bytes / kb:.1f} KB "
          f"(LZW {stats.dcg_lzw_bytes / kb:.1f} KB)")
    print(f"OWPP traces       : {stats.owpp_trace_bytes / kb:.1f} KB")
    print(f"after dedup       : {stats.dedup_trace_bytes / kb:.1f} KB "
          f"(x{stats.dedup_factor:.2f})")
    print(f"after dictionaries: {stats.dict_stage_trace_bytes / kb:.1f} KB "
          f"(x{stats.dictionary_factor:.2f}) + "
          f"{stats.dictionary_bytes / kb:.1f} KB dicts")
    print(f"compacted TWPP    : {stats.ctwpp_trace_bytes / kb:.1f} KB "
          f"(x{stats.twpp_factor:.2f})")
    print(f"total compacted   : {stats.compacted_total_bytes / kb:.1f} KB "
          f"(overall x{stats.overall_factor:.1f})")
    if args.metrics_out:
        metrics.write_json(args.metrics_out)
        print(f"wrote {args.metrics_out}")
    return 0


def _cmd_coverage(args: argparse.Namespace) -> int:
    from .analysis.coverage import coverage_report
    from .ir.parser import parse_program
    from .trace.format import read_wpp
    from .trace.partition import partition_wpp

    program = parse_program(Path(args.program).read_text())
    part = partition_wpp(read_wpp(args.wpp))
    print(coverage_report(part, program).render())
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    if args.corpus:
        from .api import Session

        with Session() as session:
            with session.corpus(args.corpus) as corpus:
                delta = corpus.diff(args.twpp_a, args.twpp_b)
    else:
        from .compact.delta import diff_twpp_files

        delta = diff_twpp_files(args.twpp_a, args.twpp_b)
    print(delta.render(limit=args.limit))
    return 0 if delta.identical else 1


def _cmd_corpus_ingest(args: argparse.Namespace) -> int:
    from .api import Session
    from .obs import MetricsRegistry

    metrics = MetricsRegistry()
    with Session(metrics=metrics) as session:
        with session.corpus(args.root) as corpus:
            results = corpus.ingest_runs(args.twpp, runs=args.run or None)
            for r in results:
                print(
                    f"{r.run}: {r.twpp_bytes} bytes -> "
                    f"{r.manifest_bytes + r.bytes_added} marginal "
                    f"({r.blobs_added} new blob(s), {r.blobs_shared} "
                    f"shared, x{r.compaction_factor:.1f})"
                )
            report = corpus.stats()
    print(
        f"corpus: {len(report['runs'])} run(s), "
        f"{report['twpp_bytes']} .twpp bytes held in "
        f"{report['corpus_bytes']} (x{report['compaction_factor']:.1f})"
    )
    if args.metrics_out:
        metrics.write_json(args.metrics_out)
        print(f"wrote {args.metrics_out}")
    return 0


def _corpus_request(cls, **params):
    """Parse a corpus verb's flags, under their ``GET /corpus/*``
    parameter names, with the daemon's parser: the same inputs fail with
    the same message (a ``RequestError``, exit 2 in :func:`main`)."""
    return cls.from_query({name: v for name, v in params.items() if v})


def _print_json(doc) -> None:
    import json

    print(json.dumps(doc, indent=2, sort_keys=True))


def _cmd_corpus_diff(args: argparse.Namespace) -> int:
    from .api import Session
    from .store.requests import CorpusDiffRequest
    from .store.store import corpus_doc

    request = _corpus_request(
        CorpusDiffRequest, a=[args.run_a], b=[args.run_b], limit=args.limit
    )
    with Session() as session:
        with session.corpus(args.root) as corpus:
            if args.json:
                doc = corpus_doc(corpus, request)
                _print_json(doc)
                return 0 if doc["identical"] else 1
            delta = corpus.diff(request.run_a, request.run_b)
    print(delta.render(limit=request.limit))
    return 0 if delta.identical else 1


def _cmd_corpus_hot(args: argparse.Namespace) -> int:
    from .api import Session
    from .store.requests import CorpusHotRequest
    from .store.store import corpus_doc

    request = _corpus_request(
        CorpusHotRequest, run=args.run, fn=args.function, top=args.top,
        coverage=args.coverage,
    )
    with Session() as session:
        with session.corpus(args.root) as corpus:
            if args.json:
                _print_json(corpus_doc(corpus, request))
                return 0
            profile = corpus.hot_paths(
                runs=list(request.runs) or None,
                functions=list(request.functions) or None,
            )
    scope = ", ".join(request.runs) if request.runs else "all runs"
    print(
        f"{profile.distinct_paths()} distinct acyclic paths over {scope}, "
        f"{profile.total_executions} executions; "
        f"{profile.coverage(request.coverage)} path(s) cover "
        f"{request.coverage:.0%}"
    )
    for hot in profile.hot_paths(request.top):
        print(" ", hot)
    return 0


def _cmd_corpus_check(args: argparse.Namespace) -> int:
    from .api import Session

    with Session() as session:
        with session.corpus(args.root) as corpus:
            problems = corpus.check()
            runs = len(corpus.runs())
            recovered = corpus.recovered_bytes
    if args.json:
        _print_json({"ok": not problems, "problems": problems,
                     "recovered_bytes": recovered})
    else:
        if recovered:
            print(f"recovered: opening dropped {recovered} pack byte(s)"
                  f" an interrupted ingest left")
        for problem in problems:
            print(problem)
        print(f"corpus: {runs} run(s), {len(problems)} problem(s)")
    return 1 if problems else 0


def _cmd_corpus_stats(args: argparse.Namespace) -> int:
    from .api import Session
    from .store.requests import CorpusStatsRequest
    from .store.store import corpus_doc

    request = _corpus_request(CorpusStatsRequest)
    with Session() as session:
        with session.corpus(args.root) as corpus:
            report = corpus_doc(corpus, request)
    if args.json:
        _print_json(report)
        return 0
    for run in report["runs"]:
        print(
            f"{run['run']}: {run['twpp_bytes']} bytes, "
            f"{run['functions']} function(s), {run['pairs']} pair(s), "
            f"{run['blobs_added']} new / {run['blobs_shared']} shared "
            f"blob(s), x{run['compaction_factor']:.1f}"
        )
    for kind, info in report["blobs"].items():
        print(f"blobs[{kind}]: {info['count']} ({info['bytes']} bytes)")
    print(
        f"total: {report['twpp_bytes']} .twpp bytes held in "
        f"{report['corpus_bytes']} corpus bytes "
        f"(pack {report['pack_bytes']} + manifests "
        f"{report['manifest_bytes']}; catalog {report['catalog_bytes']}), "
        f"x{report['compaction_factor']:.1f}"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .compact.query import read_twpp
    from .compact.verify import IntegrityError, verify_compacted
    from .ir.parser import parse_program

    compacted = read_twpp(args.twpp)
    program = None
    if args.program:
        program = parse_program(Path(args.program).read_text())
    try:
        notes = verify_compacted(compacted, program)
    except IntegrityError as exc:
        print(f"INTEGRITY FAILURE: {exc}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"ok: {note}")
    return 0


def _cmd_hotpaths(args: argparse.Namespace) -> int:
    from .analysis.hotpaths import path_profile, path_profile_compacted
    from .trace.format import read_wpp
    from .trace.partition import partition_wpp

    if read_magic(args.trace) == b"TWPP":
        profile = path_profile_compacted(args.trace)
    else:
        profile = path_profile(partition_wpp(read_wpp(args.trace)))
    print(
        f"{profile.distinct_paths()} distinct acyclic paths, "
        f"{profile.total_executions} executions; "
        f"{profile.coverage(args.coverage)} path(s) cover "
        f"{args.coverage:.0%}"
    )
    for hot in profile.hot_paths(args.top):
        print(" ", hot)
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .bench.experiments import run_all_experiments
    from .bench.workbench import build_all_artifacts

    artifacts = build_all_artifacts(scale=args.scale, out_dir=args.workdir)
    text = run_all_experiments(artifacts, sample=args.sample)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"\n(wrote {args.output})", file=sys.stderr)
    return 0


def _count(text: str) -> int:
    """argparse ``type=`` for ``--top``/``--limit``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (exposed for tests and docs).

    The pipeline subcommands share two argparse *parent* parsers
    instead of per-command copies, so ``--metrics-out`` and
    ``-j/--jobs`` spell and behave identically everywhere they appear;
    ``-j`` appears only on ``analyze``, the one command that fans work
    out.
    """
    from .compact.qserve import DEFAULT_CACHE_BYTES
    from .store.requests import CorpusDiffRequest, CorpusHotRequest

    metrics_parent = argparse.ArgumentParser(add_help=False)
    metrics_parent.add_argument(
        "--metrics-out",
        help="write the run's repro.metrics/1 JSON to this path",
    )
    jobs_parent = argparse.ArgumentParser(add_help=False)
    jobs_parent.add_argument(
        "-j", "--jobs", type=int, default=1,
        help="analysis worker processes (0 = one per CPU, 1 = serial)",
    )

    parser = argparse.ArgumentParser(
        prog="repro-wpp",
        description="Timestamped Whole Program Path toolkit (PLDI 2001 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic workload as textual IR")
    p.add_argument("name", help="workload name (e.g. gcc-like)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("trace", help="run a textual-IR program, collect its WPP",
                       parents=[metrics_parent])
    p.add_argument("program", help="textual IR file")
    p.add_argument("-o", "--output", required=True,
                   help=".wpp output path (.twpp with --stream)")
    p.add_argument("--arg", type=int, action="append", default=[],
                   help="argument passed to main (repeatable)")
    p.add_argument("--input", type=int, action="append", default=[],
                   help="value for the read() input stream (repeatable)")
    p.add_argument("--max-events", type=int, default=50_000_000)
    p.add_argument("--stream", action="store_true",
                   help="partition while executing and write a .twpp "
                        "directly (no raw .wpp is built)")
    p.add_argument("--verify", action="store_true",
                   help="with --stream: read the written .twpp back and "
                        "check every function's traces")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("compact", help="compact a .wpp into an indexed .twpp",
                       parents=[metrics_parent])
    p.add_argument("wpp", help=".wpp input path")
    p.add_argument("-o", "--output", required=True, help=".twpp output path")
    p.set_defaults(func=_cmd_compact)

    p = sub.add_parser("sequitur", help="compress a .wpp with the Larus baseline")
    p.add_argument("wpp", help=".wpp input path")
    p.add_argument("-o", "--output", required=True, help=".sqwp output path")
    p.set_defaults(func=_cmd_sequitur)

    p = sub.add_parser("info", help="describe any .wpp/.twpp/.sqwp file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser(
        "query", help="extract one or more functions' path traces",
        parents=[metrics_parent],
    )
    p.add_argument("file", help=".wpp, .twpp or .sqwp file")
    p.add_argument("functions", nargs="+", metavar="function",
                   help="function name(s); several fan out as one batch")
    p.add_argument("--limit", type=_count, default=10,
                   help="max traces to print per function (0 = all)")
    p.add_argument("--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES,
                   help="query LRU cache budget in bytes for "
                        ".twpp serving (0 disables caching; default 64 MiB)")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "analyze",
        help="data-flow fact frequencies over a .twpp's path traces",
        parents=[metrics_parent, jobs_parent],
    )
    p.add_argument("twpp", help=".twpp input path")
    p.add_argument("--program", required=True, help="textual IR file")
    p.add_argument("--fact", required=True,
                   help="fact spec: load:ADDR, expr:a,b or def:x")
    p.add_argument("--function", dest="functions", action="append",
                   default=[], metavar="NAME",
                   help="restrict to this function (repeatable; "
                        "default: every function)")
    p.add_argument("--threshold", type=float, default=0.9,
                   help="hot-fact frequency threshold (default 0.9)")
    p.add_argument("--limit", type=_count, default=10,
                   help="max hot blocks to print per trace")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("stats", help="compaction stage report for a .wpp",
                       parents=[metrics_parent])
    p.add_argument("wpp")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "scan",
        help="list a trace store's .twpp files from their headers",
        parents=[metrics_parent],
    )
    p.add_argument("store", help="directory of .twpp files")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser(
        "serve",
        help="HTTP daemon serving a directory of .twpp traces",
        parents=[metrics_parent],
    )
    p.add_argument("store", help="directory of .twpp files")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port (0 = ephemeral; the chosen port is "
                        "printed at startup)")
    p.add_argument("--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES,
                   help="decoded-bytes budget for everything the daemon "
                        "caches, every file and the corpus together "
                        "(LRU; default 64 MiB)")
    p.add_argument("--corpus", metavar="ROOT", default=None,
                   help="also serve /corpus/* endpoints from this "
                        "multi-run corpus directory")
    p.add_argument("--verbose", action="store_true",
                   help="log every request to stderr")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "coverage", help="block/edge coverage of a run against its program"
    )
    p.add_argument("wpp", help=".wpp input path")
    p.add_argument("--program", required=True, help="textual IR file")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser(
        "diff", help="compare two .twpp runs (exit 1 when they differ)"
    )
    p.add_argument("twpp_a", help=".twpp path (or run name with --corpus)")
    p.add_argument("twpp_b", help=".twpp path (or run name with --corpus)")
    p.add_argument("--limit", type=_count, default=20)
    p.add_argument("--corpus", metavar="ROOT", default=None,
                   help="treat the two arguments as run names in this "
                        "corpus directory and diff them from shared blobs")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser(
        "corpus",
        help="content-addressed multi-run trace corpus",
        description="Ingest .twpp runs into a shared content-addressed "
                    "corpus and analyze across them without "
                    "rematerializing any run.",
    )
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)

    cp = corpus_sub.add_parser(
        "ingest", help="add .twpp runs to a corpus (one transaction per run)",
        parents=[metrics_parent],
    )
    cp.add_argument("root", help="corpus directory (created if missing)")
    cp.add_argument("twpp", nargs="+", help=".twpp file(s) to ingest")
    cp.add_argument("--run", action="append", default=[],
                    help="run name for each file, in order "
                         "(default: the file stem)")
    cp.set_defaults(func=_cmd_corpus_ingest)

    cp = corpus_sub.add_parser(
        "diff", help="compare two ingested runs (exit 1 when they differ)"
    )
    cp.add_argument("root", help="corpus directory")
    cp.add_argument("run_a")
    cp.add_argument("run_b")
    cp.add_argument("--limit", action="append",
                    help="max changed functions listed "
                         f"(default {CorpusDiffRequest.limit})")
    cp.add_argument("--json", action="store_true",
                    help="emit the diff as JSON (the same document "
                         "GET /corpus/diff serves)")
    cp.set_defaults(func=_cmd_corpus_diff)

    cp = corpus_sub.add_parser(
        "hot", help="hot acyclic paths aggregated across ingested runs"
    )
    cp.add_argument("root", help="corpus directory")
    cp.add_argument("--run", action="append", default=[],
                    help="restrict to this run (repeatable; default: all)")
    cp.add_argument("--function", action="append", default=[],
                    help="restrict to this function (repeatable)")
    cp.add_argument("--top", action="append",
                    help=f"max ranked paths (default {CorpusHotRequest.top})")
    cp.add_argument("--coverage", action="append",
                    help="fraction in (0, 1] for the coverage count "
                         f"(default {CorpusHotRequest.coverage})")
    cp.add_argument("--json", action="store_true",
                    help="emit the profile as JSON (the same document "
                         "GET /corpus/hot serves)")
    cp.set_defaults(func=_cmd_corpus_hot)

    cp = corpus_sub.add_parser(
        "stats", help="per-run and corpus-level compaction accounting"
    )
    cp.add_argument("root", help="corpus directory")
    cp.add_argument("--json", action="store_true",
                    help="emit the full report as JSON")
    cp.set_defaults(func=_cmd_corpus_stats)

    cp = corpus_sub.add_parser(
        "check",
        help="verify blob refs, blob shas and the pack tail "
             "(exit 1 on any problem)",
    )
    cp.add_argument("root", help="corpus directory")
    cp.add_argument("--json", action="store_true",
                    help="emit {ok, problems, recovered_bytes} as JSON")
    cp.set_defaults(func=_cmd_corpus_check)

    p = sub.add_parser("check", help="verify a .twpp file's integrity")
    p.add_argument("twpp")
    p.add_argument("--program", help="textual IR to cross-check against")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser(
        "hotpaths", help="rank hot acyclic paths from a .wpp or .twpp"
    )
    p.add_argument("trace", help=".wpp or .twpp path")
    p.add_argument("--top", type=_count, default=10)
    p.add_argument("--coverage", type=float, default=0.9)
    p.set_defaults(func=_cmd_hotpaths)

    p = sub.add_parser("experiments", help="regenerate every table and figure")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--sample", type=int, default=8)
    p.add_argument("--workdir", default=None)
    p.add_argument("-o", "--output", help="also write the report to a file")
    p.set_defaults(func=_cmd_experiments)

    return parser


#: Exit status when stdout's reader went away: what a shell reports for
#: a process killed by SIGPIPE.
EXIT_BROKEN_PIPE = 141


class _StdoutClosed(Exception):
    """stdout's reader went away (``repro-wpp info x | head``)."""


class _GuardedStdout:
    """``sys.stdout`` for the length of one command, telling a closed
    stdout apart from a broken pipe anywhere else (say, a FIFO named by
    ``--metrics-out``), which is reported as an error."""

    def __init__(self, stream) -> None:
        self._stream = stream

    def write(self, text: str) -> int:
        try:
            return self._stream.write(text)
        except BrokenPipeError as exc:
            raise _StdoutClosed from exc

    def flush(self) -> None:
        try:
            self._stream.flush()
        except BrokenPipeError as exc:
            raise _StdoutClosed from exc

    def __getattr__(self, name: str):
        return getattr(self._stream, name)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    stdout = sys.stdout
    sys.stdout = _GuardedStdout(stdout)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except _StdoutClosed:
        # Point stdout at os.devnull so the flush at interpreter exit
        # cannot raise again, and exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (BrokenPipeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError, IRError, ParseError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except InterpError as exc:
        # A run that fails (wrong arguments, fuel exhausted, undefined
        # variable, division by zero) is the program's fault, not the tool's.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.stdout = stdout


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
