"""End-to-end tests for the command-line interface."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from repro.cli import EXIT_BROKEN_PIPE, main

from .conftest import decline_compile


@pytest.fixture
def pipeline_files(tmp_path):
    """generate -> trace -> compact -> sequitur, returning all paths."""
    ir = tmp_path / "p.ir"
    wpp = tmp_path / "p.wpp"
    twpp = tmp_path / "p.twpp"
    sqwp = tmp_path / "p.sqwp"
    assert main(["generate", "perl-like", "--scale", "0.1", "-o", str(ir)]) == 0
    assert main(["trace", str(ir), "-o", str(wpp)]) == 0
    assert main(["compact", str(wpp), "-o", str(twpp)]) == 0
    assert main(["sequitur", str(wpp), "-o", str(sqwp)]) == 0
    return ir, wpp, twpp, sqwp


class TestGenerate:
    def test_to_stdout(self, capsys):
        assert main(["generate", "li-like", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "func main()" in out

    def test_unknown_workload(self, capsys):
        assert main(["generate", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestPipeline:
    def test_files_created(self, pipeline_files):
        for path in pipeline_files:
            assert path.exists() and path.stat().st_size > 0

    def test_compact_smaller_than_raw(self, pipeline_files):
        _ir, wpp, twpp, sqwp = pipeline_files
        assert twpp.stat().st_size < wpp.stat().st_size
        assert sqwp.stat().st_size < wpp.stat().st_size

    def test_trace_with_args_and_inputs(self, tmp_path, capsys):
        ir = tmp_path / "echo.ir"
        ir.write_text(
            "func main(a) entry=B1 {\n"
            "  B1:\n"
            "    n = read()\n"
            "    write (a + n)\n"
            "    return 0\n"
            "}\n"
        )
        out_path = tmp_path / "echo.wpp"
        assert (
            main(
                [
                    "trace",
                    str(ir),
                    "-o",
                    str(out_path),
                    "--arg",
                    "40",
                    "--input",
                    "2",
                ]
            )
            == 0
        )
        assert "program output: 42" in capsys.readouterr().out

    def test_trace_malformed_program_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ir"
        bad.write_text("func main(\n  garbage\n")
        assert main(["trace", str(bad), "-o", str(tmp_path / "x.wpp")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: line 1: malformed function header"
        )
        assert not (tmp_path / "x.wpp").exists()


    @pytest.mark.parametrize(
        "text,extra,message",
        [
            (
                "func main(n) entry=B1 {\n  B1:\n    return n\n}\n",
                [],
                "error: main expects 1 args, got 0",
            ),
            (
                "func main() entry=B1 {\n  B1:\n    x = (q + 1)\n"
                "    return x\n}\n",
                [],
                "error: undefined variable 'q'",
            ),
            (
                "func main() entry=B1 {\n  B1:\n    jump B1\n}\n",
                ["--max-events", "1000"],
                "error: exceeded 1000 basic-block events",
            ),
            (
                "func main() entry=B1 {\n  B1:\n    x = (1 // 0)\n"
                "    return x\n}\n",
                [],
                "error: IR integer division by zero",
            ),
            (
                "func main() entry=B1 {\n  B1:\n    x = (1 % 0)\n"
                "    return x\n}\n",
                [],
                "error: IR integer modulo by zero",
            ),
            (
                "func main() entry=B1 {\n  B1:\n    x = (1 << 100000000000)\n"
                "    return x\n}\n",
                [],
                "error: IR left shift count 100000000000 exceeds 65536",
            ),
        ],
        ids=["missing-arg", "undefined-variable", "fuel", "div", "mod", "shift"],
    )
    # "tree" runs the reference engine: the compiler declines the program.
    @pytest.mark.parametrize("interp", ["tree", "compiled"])
    @pytest.mark.parametrize("stream", [False, True], ids=["wpp", "stream"])
    def test_trace_run_error_is_an_error(
        self, tmp_path, capsys, monkeypatch, text, extra, message, interp,
        stream,
    ):
        if interp == "tree":
            decline_compile(monkeypatch)
        prog = tmp_path / "p.ir"
        prog.write_text(text)
        out = tmp_path / ("x.twpp" if stream else "x.wpp")
        argv = ["trace", str(prog), "-o", str(out)]
        argv += extra + (["--stream"] if stream else [])
        assert main(argv) == 2
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()


class TestInfo:
    def test_all_three_formats(self, pipeline_files, capsys):
        _ir, wpp, twpp, sqwp = pipeline_files
        assert main(["info", str(wpp)]) == 0
        assert "uncompacted WPP" in capsys.readouterr().out
        assert main(["info", str(twpp)]) == 0
        assert "compacted TWPP" in capsys.readouterr().out
        assert main(["info", str(sqwp)]) == 0
        assert "Sequitur-compressed" in capsys.readouterr().out

    def test_closes_the_file_it_sniffs(self, pipeline_files, capsys):
        for path in pipeline_files[1:]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["info", str(path)]) == 0
            leaks = [w for w in caught if w.category is ResourceWarning]
            assert not leaks, (path.name, [str(w.message) for w in leaks])

    @pytest.mark.parametrize("cmd", ["info", "query"])
    def test_reader_closing_the_pipe_is_quiet(self, pipeline_files, cmd):
        """``repro-wpp info x.twpp | head -c 1``: once the reader has
        gone, the CLI exits with its broken-pipe status, no traceback."""
        twpp = str(pipeline_files[2])
        argv = [sys.executable, "-m", "repro", cmd, twpp]
        if cmd == "query":
            argv.append("main")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        proc.stdout.close()  # the reader is gone before the CLI writes
        _out, err = proc.communicate(timeout=60)
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
        assert proc.returncode == EXIT_BROKEN_PIPE

    def test_broken_pipe_off_stdout_is_an_error(
        self, pipeline_files, tmp_path, monkeypatch, capsys
    ):
        """A broken pipe other than stdout (a ``--metrics-out`` FIFO whose
        reader left) is reported, not taken for a closed stdout."""
        from repro.obs import MetricsRegistry

        def broken(self, path):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(MetricsRegistry, "write_json", broken)
        _ir, wpp, _twpp, _sqwp = pipeline_files
        rc = main([
            "stats", str(wpp), "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_format(self, tmp_path, capsys):
        junk = tmp_path / "x.bin"
        junk.write_bytes(b"JUNKJUNK")
        assert main(["info", str(junk)]) == 2

    def test_missing_file(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "missing")]) == 2
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_query_each_format_agrees(self, pipeline_files, capsys):
        _ir, wpp, twpp, sqwp = pipeline_files
        outputs = {}
        for path in (wpp, twpp, sqwp):
            assert main(["query", str(path), "main", "--limit", "0"]) == 0
            outputs[path.suffix] = capsys.readouterr().out
        # main runs once, so all three agree on its single trace line.
        trace_lines = {
            suffix: [l for l in text.splitlines() if l.startswith("  ")]
            for suffix, text in outputs.items()
        }
        assert trace_lines[".wpp"] == trace_lines[".twpp"] == trace_lines[".sqwp"]

    def test_batch_query_with_cache_budget(self, pipeline_files, capsys):
        _ir, _wpp, twpp, _sqwp = pipeline_files
        # Find two traced functions from info output.
        assert main(["info", str(twpp)]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [
            l.split(":")[0].strip()
            for l in lines
            if l.startswith("  ") and ":" in l
        ][:2]
        assert len(names) == 2
        assert (
            main(
                [
                    "query",
                    str(twpp),
                    *names,
                    "--limit",
                    "1",
                    "--cache-bytes",
                    str(1 << 20),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for name in names:
            assert f"{name}: " in out

    def test_batch_order_matches_request(self, pipeline_files, capsys):
        _ir, _wpp, twpp, _sqwp = pipeline_files
        assert main(["info", str(twpp)]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [
            l.split(":")[0].strip()
            for l in lines
            if l.startswith("  ") and ":" in l
        ][:2]
        reordered = list(reversed(names))
        assert main(["query", str(twpp), *reordered, "--limit", "0"]) == 0
        out = capsys.readouterr().out
        positions = [out.index(f"{n}: ") for n in reordered]
        assert positions == sorted(positions)

    def test_query_help_mentions_cache_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "--help"])
        out = capsys.readouterr().out
        assert "--cache-bytes" in out
        assert "LRU cache" in out

    def test_limit_truncates(self, pipeline_files, capsys):
        _ir, wpp, _twpp, _sqwp = pipeline_files
        # Find a hot function from info output.
        assert main(["info", str(wpp)]) == 0
        lines = capsys.readouterr().out.splitlines()
        hot = next(
            l.split(":")[0].strip()
            for l in lines
            if l.startswith("  fn_")
        )
        assert main(["query", str(wpp), hot, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "more)" in out or out.count("\n  ") == 1


class TestStats:
    def test_report_fields(self, pipeline_files, capsys):
        _ir, wpp, _twpp, _sqwp = pipeline_files
        assert main(["stats", str(wpp)]) == 0
        out = capsys.readouterr().out
        for field in ("events", "after dedup", "overall x"):
            assert field in out


class TestCheck:
    def test_valid_file_passes(self, pipeline_files, capsys):
        ir, _wpp, twpp, _sqwp = pipeline_files
        assert main(["check", str(twpp), "--program", str(ir)]) == 0
        out = capsys.readouterr().out
        assert out.count("ok:") == 3

    def test_without_program(self, pipeline_files, capsys):
        _ir, _wpp, twpp, _sqwp = pipeline_files
        assert main(["check", str(twpp)]) == 0
        assert capsys.readouterr().out.count("ok:") == 2


class TestHotPaths:
    def test_report(self, pipeline_files, capsys):
        _ir, wpp, _twpp, _sqwp = pipeline_files
        assert main(["hotpaths", str(wpp), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "distinct acyclic paths" in out
        assert "cover 90%" in out

    def test_twpp_prints_what_the_wpp_prints(self, pipeline_files, capsys):
        _ir, wpp, twpp, _sqwp = pipeline_files
        assert main(["hotpaths", str(wpp), "--top", "50"]) == 0
        from_wpp = capsys.readouterr().out
        assert main(["hotpaths", str(twpp), "--top", "50"]) == 0
        assert capsys.readouterr().out == from_wpp

    def test_other_input_is_an_error(self, pipeline_files, capsys):
        ir, _wpp, _twpp, _sqwp = pipeline_files
        assert main(["hotpaths", str(ir)]) == 2
        assert "not a .wpp file" in capsys.readouterr().err


class TestCoverage:
    def test_report(self, pipeline_files, capsys):
        ir, wpp, _twpp, _sqwp = pipeline_files
        assert main(["coverage", str(wpp), "--program", str(ir)]) == 0
        out = capsys.readouterr().out
        assert "overall block coverage" in out
        assert "main" in out


class TestAnalyze:
    def test_report_and_metrics(self, pipeline_files, tmp_path, capsys):
        ir, _wpp, twpp, _sqwp = pipeline_files
        metrics = tmp_path / "analysis-metrics.json"
        rc = main([
            "analyze", str(twpp), "--program", str(ir),
            "--fact", "def:i", "-j", "2", "--limit", "3",
            "--metrics-out", str(metrics),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "instances hold" in out
        assert metrics.exists()

    def test_function_filter(self, pipeline_files, capsys):
        ir, _wpp, twpp, _sqwp = pipeline_files
        rc = main([
            "analyze", str(twpp), "--program", str(ir),
            "--fact", "def:i", "--function", "main",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[trace") == out.count("main[trace")

    def test_bad_fact_spec(self, pipeline_files, capsys):
        ir, _wpp, twpp, _sqwp = pipeline_files
        rc = main([
            "analyze", str(twpp), "--program", str(ir), "--fact", "bogus",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, fault", [
        ("func main(\n  garbage\n", "line 1: malformed function header"),
        ("func main() entry=B1 {\n  B1:\n    return 0\n}\n",
         "no function named"),
    ], ids=["malformed", "main-only"])
    def test_wrong_program_is_an_error(
        self, pipeline_files, tmp_path, capsys, text, fault
    ):
        """Unparsable IR, or IR lacking a traced function, exits 2 with
        one ``error:`` line instead of a traceback."""
        _ir, _wpp, twpp, _sqwp = pipeline_files
        wrong = tmp_path / "wrong.ir"
        wrong.write_text(text)
        rc = main([
            "analyze", str(twpp), "--program", str(wrong), "--fact", "def:i",
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and fault in err


class TestScan:
    @pytest.fixture
    def store_dir(self, pipeline_files, tmp_path):
        ir, _wpp, twpp, _sqwp = pipeline_files
        root = tmp_path / "store"
        root.mkdir()
        (root / "run.twpp").write_bytes(twpp.read_bytes())
        (root / "run.ir").write_text(ir.read_text())
        return root

    def test_scan_then_rescan(self, store_dir, capsys):
        before = sorted(p.name for p in store_dir.iterdir())
        assert main(["scan", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "+1 added" in out and "run" in out
        assert main(["scan", str(store_dir)]) == 0
        assert capsys.readouterr().out == out
        assert sorted(p.name for p in store_dir.iterdir()) == before

    def test_scan_flags_metrics(self, store_dir, tmp_path, capsys):
        metrics = tmp_path / "scan-metrics.json"
        rc = main(["scan", str(store_dir), "--metrics-out", str(metrics)])
        assert rc == 0
        import json

        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "repro.metrics/1"

    def test_scan_marks_missing_ir(self, store_dir, capsys):
        (store_dir / "run.ir").unlink()
        assert main(["scan", str(store_dir)]) == 0
        assert "[no .ir]" in capsys.readouterr().out

    def test_scan_reports_bad_file(self, store_dir, capsys):
        (store_dir / "junk.twpp").write_bytes(b"garbage")
        assert main(["scan", str(store_dir)]) == 1
        assert "junk" in capsys.readouterr().err


MINIMAL_ARGV = {
    "trace": ["trace", "x", "-o", "y"],
    "compact": ["compact", "x", "-o", "y"],
    "corpus-ingest": ["corpus", "ingest", "root", "x"],
    "query": ["query", "x", "main"],
    "analyze": ["analyze", "x", "--program", "p.ir", "--fact", "def:i"],
    "stats": ["stats", "x"],
    "scan": ["scan", "x"],
    "serve": ["serve", "x"],
}


#: The subcommands that fan work out: analyze (analysis processes).
JOBS_COMMANDS = ("analyze",)


class TestSharedParentFlags:
    """Every data-facing subcommand takes --metrics-out, and the one
    that fans work out takes -j/--jobs, via shared parent parsers."""

    @pytest.mark.parametrize("cmd", sorted(MINIMAL_ARGV))
    def test_metrics_out_everywhere(self, cmd):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            MINIMAL_ARGV[cmd] + ["--metrics-out", "m.json"]
        )
        assert args.metrics_out == "m.json"

    @pytest.mark.parametrize("cmd", JOBS_COMMANDS)
    def test_jobs_everywhere(self, cmd):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(MINIMAL_ARGV[cmd] + ["-j", "3"])
        assert args.jobs == 3

    @pytest.mark.parametrize(
        "cmd", sorted(set(MINIMAL_ARGV) - set(JOBS_COMMANDS))
    )
    def test_no_jobs_where_nothing_fans_out(self, cmd, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(MINIMAL_ARGV[cmd] + ["-j", "3"])
        assert "unrecognized arguments: -j" in capsys.readouterr().err

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "store"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert not hasattr(args, "jobs")
        assert not hasattr(args, "workers")

    def test_trace_metrics_out_written(self, tmp_path, capsys):
        import json

        ir = tmp_path / "p.ir"
        assert main(["generate", "li-like", "--scale", "0.05",
                     "-o", str(ir)]) == 0
        metrics = tmp_path / "trace-metrics.json"
        rc = main(["trace", str(ir), "-o", str(tmp_path / "p.wpp"),
                   "--metrics-out", str(metrics)])
        assert rc == 0
        doc = json.loads(metrics.read_text())
        assert doc["counters"]["trace.events"] > 0


class TestCountFlags:
    """``--top``/``--limit`` on the file verbs share one argparse type:
    a negative count is an error (exit 2), not a slice from the end."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hotpaths", "p.wpp", "--top"],
            ["analyze", "p.twpp", "--program", "p.ir", "--fact", "def:i",
             "--limit"],
            ["diff", "a.twpp", "b.twpp", "--limit"],
            ["query", "p.twpp", "main", "--limit"],
        ],
        ids=lambda argv: f"{argv[0]}-{argv[-1]}",
    )
    def test_negative_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(argv + ["-1"])
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert f"{argv[-1]}: must be >= 0, got -1" in err
        with pytest.raises(SystemExit):
            main(argv + ["x"])
        assert "invalid int value: 'x'" in capsys.readouterr().err

    def test_zero_still_means_all_for_query(self, pipeline_files, capsys):
        _ir, _wpp, twpp, _sqwp = pipeline_files
        assert main(["query", str(twpp), "main", "--limit", "0"]) == 0
        assert "more)" not in capsys.readouterr().out

    def test_hotpaths_top_caps_the_listing(self, pipeline_files, capsys):
        _ir, wpp, _twpp, _sqwp = pipeline_files
        assert main(["hotpaths", str(wpp), "--top", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3  # the summary line, then two paths


class TestNumericFlags:
    """Scale, fraction, budget, port and count flags are checked when
    parsed: an out-of-range value is argparse's one-line error and exit
    2, before any work runs."""

    CASES = [
        (["generate", "li-like", "--scale", "inf"],
         "--scale: must be finite, got inf"),
        (["generate", "li-like", "--scale", "0"],
         "--scale: must be > 0, got 0"),
        (["generate", "li-like", "--scale", "-1"],
         "--scale: must be > 0, got -1"),
        (["experiments", "--scale", "-1"],
         "--scale: must be > 0, got -1"),
        (["trace", "p.ir", "-o", "t.wpp", "--max-events", "-5"],
         "--max-events: must be >= 1, got -5"),
        (["trace", "p.ir", "-o", "t.wpp", "--max-events", "0"],
         "--max-events: must be >= 1, got 0"),
        (["analyze", "p.twpp", "--program", "p.ir", "--fact", "def:i",
          "--threshold", "nan"],
         "--threshold: must be finite, got nan"),
        (["analyze", "p.twpp", "--program", "p.ir", "--fact", "def:i",
          "--threshold", "-1"],
         "--threshold: must be between 0 and 1, got -1"),
        (["analyze", "p.twpp", "--program", "p.ir", "--fact", "def:i",
          "--threshold", "5"],
         "--threshold: must be between 0 and 1, got 5"),
        (["query", "p.twpp", "main", "--cache-bytes", "-5"],
         "--cache-bytes: must be >= 0, got -5"),
        (["serve", "store", "--cache-bytes", "-5"],
         "--cache-bytes: must be >= 0, got -5"),
        (["serve", "store", "--port", "-1"],
         "--port: must be >= 0, got -1"),
        (["serve", "store", "--port", "70000"],
         "--port: must be <= 65535, got 70000"),
        (["experiments", "--sample", "0"],
         "--sample: must be >= 1, got 0"),
    ]

    @pytest.mark.parametrize(
        "argv, message",
        CASES,
        ids=[f"{argv[0]}{argv[-2]}={argv[-1]}" for argv, _ in CASES],
    )
    def test_out_of_range_is_rejected(self, argv, message, tmp_path,
                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            f"repro-wpp {argv[0]}: error: argument {message}"
        )
        assert list(tmp_path.iterdir()) == []
