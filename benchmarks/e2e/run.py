"""End-to-end benchmark of the TWPP system, one command for every workload.

    python3 benchmarks/e2e/run.py                          # all workloads
    python3 benchmarks/e2e/run.py --workload serve-cold --seed 7
    python3 benchmarks/e2e/run.py --traced                 # per-layer metrics

Workloads (see README.md for why each was chosen):

* ``ingest``      IR text -> streamed ``.twpp`` -> corpus ingest -> diff
* ``serve-warm``  ``GET /query`` zipf keys, the working set fits the cache
* ``serve-cold``  the same traffic under an 8 KiB cache budget
* ``analyze``     ``POST /analyze`` over every (trace, function) pair

and, only when named, ``serve-cold-2cpu``: serve-cold's traffic on both
CPUs, whose failed share measures a known daemon race.

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` untraced, its ``per_layer`` metrics with
``--trace 1``.  Without ``--workload`` each workload runs in its own
subprocess and the last line aggregates them.  ``--out FILE`` also
writes the full result document.  The exit status is 1 when an output
check failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOADS = ("ingest", "serve-warm", "serve-cold", "analyze")
#: Runs only when named: its operations fail (see README.md).
PROBES = ("serve-cold-2cpu",)
DEFAULT_SEED = 20010609
SCHEMA = "repro.bench_e2e/1"


def _parse_args(argv, run_seconds: int) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the TWPP system."
    )
    parser.add_argument("--workload", choices=WORKLOADS + PROBES,
                        help="run one workload in this process (default: all, "
                             "each in its own subprocess)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(run_seconds),
                        help="measured time per workload "
                             f"(default {run_seconds}, BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = report per-layer metrics from a traced run")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--out", type=Path, help="write the full result document here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _declared(contract, traced: bool, measured: dict) -> dict:
    """The contract's metrics, in its order, from what a run measured.

    Per-layer metrics of a layer the workload does not cross read 0.
    """
    out = {}
    for spec in contract["per_layer" if traced else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        if name in measured:
            value, got = measured.pop(name)
            if got != unit:
                raise ValueError(f"{name}: measured in {got}, declared in {unit}")
        elif traced:
            value = 0
        else:
            raise ValueError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": value, "unit": unit}
    if measured:
        raise ValueError(f"undeclared metrics: {sorted(measured)}")
    return out


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, metric in metrics.items():
        print(f"{workload:<15} {name:<26} {metric['value']:>16.6g} {metric['unit']}")


def _on_sigterm(signum, frame):
    # Unwind through the finally blocks that stop the daemon.
    raise SystemExit(128 + signum)


def run_one(args, contract) -> int:
    sys.path.insert(0, str(SRC))
    import harness
    import ingest
    import serving

    signal.signal(signal.SIGTERM, _on_sigterm)
    work = harness.WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    traced = bool(args.trace)
    try:
        module = ingest if args.workload == "ingest" else serving
        doc = module.run(args.workload, args.seed, args.seconds, traced, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            harness.WORK_ROOT.rmdir()
        except OSError:
            pass
    doc["metrics"] = _declared(contract, traced, doc["metrics"])
    for error in doc["errors"]:
        print(f"error: {error}")
    _print_metrics(args.workload, doc["metrics"])
    if args.out is not None:
        full = {"schema": SCHEMA, "workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, **doc}
        args.out.write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps({key: doc[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if doc["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own subprocess, one combined document."""
    results, documents = {}, {}
    scratch = ROOT / ".bench_e2e" / f"all-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        for workload in WORKLOADS:
            out = scratch / f"{workload}.json"
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--out", str(out)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload}: benchmark failed (exit {proc.returncode})",
                      file=sys.stderr)
                return 2
            results[workload] = json.loads(lines[-1])
            documents[workload] = json.loads(out.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"schema": SCHEMA, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "workloads": documents}, indent=2) + "\n")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": metric for w, r in results.items()
                    for name, metric in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    contract_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not contract_path.is_file():
        print(f"error: run from a checkout holding src/repro and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    contract = json.loads(contract_path.read_text())
    args = _parse_args(argv, contract["run_seconds"])
    if args.workload is None:
        return run_all(args)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
