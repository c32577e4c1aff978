"""Shared machinery of the end-to-end benchmark.

Everything here lives outside the program under test: seeded input
generation, the ``repro-wpp serve`` daemon as a child process, a raw
keep-alive HTTP client with a closed-loop load generator, summary statistics,
the machine-speed gauge that scales reported times, and the span
recorder the traced runs use to time calls into each layer's public
functions.
"""

from __future__ import annotations

import gc
import math
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space for one benchmark process; removed when it exits.
WORK_ROOT = ROOT / ".bench_e2e"

#: How many errors a run keeps verbatim for its report.
KEEP_ERRORS = 5
#: How long a starting daemon may take to print its port and answer.
READY_TIMEOUT_S = 60.0


def place(placement: str) -> Optional[Set[int]]:
    """Pin this process for ``placement``; returns the CPUs the daemons
    it starts should run on (None: wherever this process may).

    * ``one``: this process and its daemons share the lowest allowed CPU;
    * ``split``: this process takes the lowest allowed CPU and its
      daemons the next one (the same one on a one-CPU machine);
    * ``free``: the OS places both on any allowed CPU.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if placement == "free":
        return None
    os.sched_setaffinity(0, {allowed[0]})
    if placement == "split" and len(allowed) > 1:
        return {allowed[1]}
    return None


# ---- statistics ----------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---- spans ---------------------------------------------------------------


class Spans:
    """Durations (seconds) of calls into the program, keyed by span name.

    Spans stay in memory; the traced runs fold them into per-layer
    metrics when the benchmark ends.
    """

    def __init__(self) -> None:
        self.durations: Dict[str, List[float]] = defaultdict(list)

    @contextmanager
    def wrapping(self, owner, attr: str, name: str):
        """Time every call to ``owner.attr`` while the block runs.

        Used for calls the program makes internally (for example the
        trace pull inside ``TraceStore.analyze``), so the benchmark can
        time them without instrumenting the program itself.
        """
        original = getattr(owner, attr)
        durations = self.durations[name]

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - t0)

        setattr(owner, attr, timed)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ()))

    def p50_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return median(values) * 1000.0 if values else 0.0

    def p99_ms(self, name: str) -> float:
        values = self.durations.get(name)
        return percentile(values, 99) * 1000.0 if values else 0.0


# ---- inputs --------------------------------------------------------------


def write_programs(
    directory: Path, runs: Sequence[Tuple[str, str, float]]
) -> List[Path]:
    """Write one textual-IR program per ``(stem, family, scale)``."""
    from repro.ir.printer import format_program
    from repro.workloads import generate_program, spec_for

    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, family, scale in runs:
        path = directory / f"{stem}.ir"
        path.write_text(format_program(generate_program(spec_for(family, scale))))
        paths.append(path)
    return paths


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


# ---- the daemon ----------------------------------------------------------


class Daemon:
    """``python -m repro serve`` as a child process on an ephemeral port."""

    def __init__(
        self,
        store_dir: Path,
        log_path: Path,
        cache_bytes: Optional[int] = None,
        cpus: Optional[Set[int]] = None,
    ) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve", str(store_dir),
            "--port", "0",
        ]
        if cache_bytes is not None:
            cmd += ["--cache-bytes", str(cache_bytes)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        # The same string hashes, so the same dict layouts, every run.
        env["PYTHONHASHSEED"] = "0"
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=str(ROOT),
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
        )
        try:
            self.port = self._read_port(READY_TIMEOUT_S)
            self._wait_healthy(READY_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        line = b""
        fd = self.proc.stdout.fileno()
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError(f"daemon did not start: {line!r}")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1)
                if not chunk:
                    raise RuntimeError(f"daemon exited: {line!r}")
                line += chunk
        # "serving DIR (N trace(s)) at http://127.0.0.1:PORT"
        return int(line.rsplit(b":", 1)[1])

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            try:
                conn = Connection(self.port)
                try:
                    status, _ = conn.roundtrip(get_request("/healthz"))
                finally:
                    conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """The daemon's high-water resident set (``VmHWM``) in MB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGTERM (the daemon drains and exits 0), then reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# ---- the client ----------------------------------------------------------


def get_request(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


def post_request(target: str, body: bytes) -> bytes:
    head = (
        f"POST {target} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


class Connection:
    """One persistent HTTP/1.1 connection speaking raw bytes."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def roundtrip(self, request: bytes) -> Tuple[int, bytes]:
        """Send one request, read one response: ``(status, body)``."""
        sock = self.sock
        sock.sendall(request)
        buf = self.buf
        end = buf.find(b"\r\n\r\n")
        while end < 0:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-response")
            buf += chunk
            end = buf.find(b"\r\n\r\n")
        head = buf[:end]
        status = int(head[9:12])
        start = head.lower().find(b"content-length:")
        if start < 0:
            raise ConnectionError("response without Content-Length")
        stop = head.find(b"\r\n", start)
        length = int(head[start + 15: stop if stop >= 0 else len(head)])
        need = end + 4 + length
        while len(buf) < need:
            chunk = sock.recv(max(65536, need - len(buf)))
            if not chunk:
                raise ConnectionError("server closed mid-body")
            buf += chunk
        self.buf = buf[need:]
        return status, buf[end + 4: need]

    def close(self) -> None:
        self.sock.close()


def get_json(port: int, target: str) -> Dict:
    import json

    conn = Connection(port)
    try:
        status, body = conn.roundtrip(get_request(target))
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"GET {target}: {status} {body[:200]!r}")
    return json.loads(body)


@dataclass
class LoopResult:
    """What one closed-loop phase observed."""

    #: ``(latency [ms], key)`` for every successful request.
    samples: List[Tuple[float, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Requests each connection sent.
    sent: List[int] = field(default_factory=list)
    #: First successful response body for each kept key.
    bodies: Dict[int, bytes] = field(default_factory=dict)
    #: Takes this phase's times to nominal speed (see ``nominal_scale``).
    scale: float = 1.0
    #: ``(latency at nominal speed [ms], key)`` for every successful
    #: request, when the loop sampled the speed around each one.
    scaled: List[Tuple[float, int]] = field(default_factory=list)

    @property
    def latencies_ms(self) -> List[float]:
        return [latency for latency, _key in self.samples]


def closed_loop(
    port: int,
    requests: Sequence[bytes],
    schedule: Sequence[int],
    connections: int,
    seconds: float,
    keep: Set[int] = frozenset(),
    start: int = 0,
    gauge: Optional["Gauge"] = None,
) -> LoopResult:
    """Drive ``schedule`` (key indices) for ``seconds`` over persistent
    connections, one client thread each.

    Connection ``i`` sends ``schedule[start + i :: connections]`` in
    order (wrapping around), each request only after the previous reply
    (a closed loop).  Every non-200 reply, socket error or exception
    counts as a failed request; the loop reconnects and keeps going.
    With a ``gauge`` (one connection only), the speed is sampled before
    the first request and after every reply, while the daemon is idle,
    and each latency is also kept scaled by the samples around it.
    """
    if gauge is not None and connections != 1:
        raise ValueError("per-request speed samples need one connection")
    result = LoopResult(sent=[0] * connections)
    per_conn: List[List[Tuple[float, int]]] = [[] for _ in range(connections)]
    failures = [0] * connections
    lock = threading.Lock()
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def note_error(message: str) -> None:
        with lock:
            if len(result.errors) < KEEP_ERRORS:
                result.errors.append(message)

    def client(idx: int) -> None:
        samples = per_conn[idx]
        conn = None
        n = 0
        clock = time.perf_counter
        speed = gauge.sample() if gauge is not None else None
        while clock() < deadline:
            key = schedule[(start + idx + n * connections) % len(schedule)]
            n += 1
            try:
                if conn is None:
                    conn = Connection(port)
                t0 = clock()
                status, body = conn.roundtrip(requests[key])
                t1 = clock()
                if gauge is not None:
                    started, speed = speed, gauge.sample()
            except (OSError, ValueError) as exc:
                failures[idx] += 1
                note_error(f"{type(exc).__name__}: {exc}")
                if conn is not None:
                    conn.close()
                    conn = None
                continue
            if status != 200:
                failures[idx] += 1
                note_error(f"{status} {body[:300].decode('utf-8', 'replace').rstrip()}")
                continue
            samples.append(((t1 - t0) * 1000.0, key))
            if gauge is not None:
                result.scaled.append(((t1 - t0) * 1000.0 * nominal_scale([started, speed]), key))
            if key in keep and key not in result.bodies:
                result.bodies[key] = body
        if conn is not None:
            conn.close()
        result.sent[idx] = n

    # Daemon threads: a signal that unwinds the main thread must not wait
    # for the clients to reach the deadline.
    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}", daemon=True)
        for i in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.elapsed_s = time.perf_counter() - t_start
    for samples in per_conn:
        result.samples.extend(samples)
    result.attempted = sum(result.sent)
    result.failed = sum(failures)
    return result


# ---- machine speed -----------------------------------------------------------
#
# On the shared 2-vCPU VM this was built on (Intel Xeon, 2.1 GHz), the
# same Python code runs up to 60% faster or slower from one second to
# the next, as other tenants load the host; a run's raw times mostly
# measure which phases it met.  So the benchmark samples the speed of
# its CPUs with a fixed pure-Python kernel, between short units of
# measured work and, for work that runs in this process, during it, and
# reports every time scaled to the kernel's nominal speed: a time
# measured while the kernel ran 20% slow is reported 20% shorter.  The
# kernel is the benchmark's own code, so a change to the program cannot
# move it.

#: The gauge kernel's time at nominal speed: about its median on the
#: machine above.  Scaled times compare with each other, not with wall
#: clocks elsewhere.
GAUGE_NOMINAL_S = 0.001
#: Kernel runs per CPU per sample between units of work; a sample is
#: their median.
GAUGE_REPEATS = 5
#: CPU time of this process between two samples taken during work.
GAUGE_TICK_S = 0.05


def _gauge_kernel() -> int:
    """Fixed interpreter work: string formatting, dict and integer
    traffic, and a keyed sort (about 1 ms)."""
    table: Dict[str, int] = {}
    acc = 0
    for i in range(1200):
        key = f"k{i % 509}"
        table[key] = table.get(key, 0) + (i * i) % 7
        acc += len(key) + (i ^ acc) % 13
    ranked = sorted(table.items(), key=lambda item: (item[1], item[0]))
    return acc + len(ranked)


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    _gauge_kernel()
    return time.perf_counter() - t0


@dataclass
class During:
    """Samples taken while a block of work ran."""

    #: The kernel's time at each tick.
    samples: List[float] = field(default_factory=list)
    #: Wall time the ticks took, to take out of the work's time (and of
    #: its CPU time: the ticks ran on this process's CPU).
    spent_s: float = 0.0


class Gauge:
    """Samples the speed of ``cpus`` (default: those this process may
    run on)."""

    def __init__(self, cpus: Optional[Set[int]] = None) -> None:
        self.cpus = sorted(cpus or os.sched_getaffinity(0))
        #: Every sample taken between units of work: the kernel's time.
        self.samples: List[float] = []

    def sample(self) -> float:
        """The kernel's time now: the mean over the CPUs of the median
        of ``GAUGE_REPEATS`` runs on each, with garbage collection off."""
        collecting = gc.isenabled()
        gc.disable()
        home = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in self.cpus:
                if home != {cpu}:
                    os.sched_setaffinity(0, {cpu})
                per_cpu.append(median(_timed_kernel() for _ in range(GAUGE_REPEATS)))
        finally:
            if os.sched_getaffinity(0) != home:
                os.sched_setaffinity(0, home)
            if collecting:
                gc.enable()
        value = sum(per_cpu) / len(per_cpu)
        self.samples.append(value)
        return value

    @contextmanager
    def during(self):
        """Sample while the block runs, for work done in this process.

        Every ``GAUGE_TICK_S`` of this process's CPU time a ``SIGPROF``
        handler runs the kernel twice and keeps the second time (the
        first warms the caches the work left cold).  Ticks follow CPU
        time, so they fall where the work ran and weigh its phases as
        the CPU time does.  System calls the signal interrupts restart.
        """
        during = During()

        def tick(signum, frame):
            collecting = gc.isenabled()
            gc.disable()
            t0 = time.perf_counter()
            _gauge_kernel()
            during.samples.append(_timed_kernel())
            during.spent_s += time.perf_counter() - t0
            if collecting:
                gc.enable()

        previous = signal.signal(signal.SIGPROF, tick)
        signal.siginterrupt(signal.SIGPROF, False)
        signal.setitimer(signal.ITIMER_PROF, GAUGE_TICK_S, GAUGE_TICK_S)
        try:
            yield during
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)


def nominal_scale(samples: Sequence[float]) -> float:
    """The factor that takes a time measured while the kernel ran in
    ``samples`` seconds to nominal speed: the mean of nominal over each."""
    return sum(GAUGE_NOMINAL_S / s for s in samples) / len(samples)
