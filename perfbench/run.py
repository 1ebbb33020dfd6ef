"""Benchmark entry point: one run of one workload.

Usage::

    python3 perfbench/run.py --workload report_cold --seed 1 --seconds 20 \
        --trace 0

Workloads (``workloads.py``; rationale in ``design.json``):

``report_cold``
    The full paper report on an empty cache, in a fresh job process.
``explore_cold``
    A 216-point single-core exploration into a fresh store, in a fresh
    job process per job.
``serve_warm``
    A ``repro serve`` process warmed with every body of a seeded request
    stream, then driven by a closed loop of two connections.

With ``--trace 0`` every job runs untraced and the run reports the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` one job (or
serve session) runs untraced and one traced, and the run reports the
per-layer metrics plus ``trace_overhead`` (traced over untraced wall).
Output checks run after each timed phase; a failed check marks every op of
the run failed.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a
diagnostic record that includes a host reference-loop time taken before
and after the workload.  This process never imports ``repro``: every job
runs in a child process with the environment of :func:`isolated_env`.  A
run writes only inside the checkout: bytecode in ``__pycache__`` and
everything else in a run directory under ``.bench_build/``, removed at the
end.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import tracer as tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Upper bound on any one child process; a run must end within 180 s.
CHILD_TIMEOUT_S = 150.0

#: Iterations of the host reference loop (0.2-0.3 s on the reference host).
REFERENCE_LOOP = 3_000_000


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


@dataclasses.dataclass
class Context:
    root: Path
    run_dir: Path
    env: Dict[str, str]
    seed: int
    seconds: int
    small: bool = False
    ids: "itertools.count[int]" = dataclasses.field(
        default_factory=itertools.count)

    @property
    def log(self) -> Path:
        return self.run_dir / "children.log"

    def fresh_path(self, stem: str, suffix: str) -> Path:
        """A file name in the run directory not handed out before."""
        return self.run_dir / f"{stem}-{next(self.ids)}{suffix}"


@dataclasses.dataclass
class Outcome:
    """What one run measured, before formatting."""

    metrics: Dict[str, float]
    attempted: int
    problems: List[str]
    record: Dict[str, object]


# -- environment ---------------------------------------------------------------

def isolated_env(root: Path, run_dir: Path) -> Dict[str, str]:
    """Child environment: no ``REPRO_*`` or ``PYTHON*`` from the caller.

    ``$REPRO_TUNING_FILE`` names a file that never exists, so a persisted
    kernel calibration cannot change dispatch between two checkouts.  The
    hash seed is fixed and BLAS pools stay single-threaded.  Bytecode goes
    to the usual ``__pycache__`` directories: a cache prefix would also
    move the installed packages' bytecode and recompile them in timed code.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        REPRO_TUNING_FILE=str(run_dir / "absent-kernel-tuning.json"),
        TMPDIR=str(run_dir),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def precompile(ctx: Context) -> None:
    """Write bytecode for ``src`` and the benchmark, so no timed start-up
    compiles them after a fresh checkout."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ctx.root / "src"),
         str(HERE)],
        env=ctx.env, cwd=ctx.root, check=True, stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )


def reference_loop_s() -> float:
    """A fixed pure-Python loop; shows how fast the host was running."""
    start = time.perf_counter()
    total = 0
    for value in range(REFERENCE_LOOP):
        total += value * value
    return time.perf_counter() - start


# -- statistics ----------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


# -- batch workloads -----------------------------------------------------------

def _log_tail(ctx: Context, lines: int = 20) -> str:
    try:
        text = ctx.log.read_text(errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


def run_job(ctx: Context, mode: str, *extra: str) -> Dict[str, object]:
    """Run ``job.py`` in a fresh process; add its ``setup_s``."""
    result = ctx.fresh_path("job", ".json")
    command = [sys.executable, str(HERE / "job.py"), mode,
               "--seed", str(ctx.seed), "--result", str(result), *extra]
    if ctx.small:
        command.append("--small")
    with open(ctx.log, "ab") as log:
        launched = time.monotonic()
        code = subprocess.run(command, env=ctx.env, cwd=ctx.root,
                              stdout=log, stderr=log,
                              timeout=CHILD_TIMEOUT_S).returncode
    if code != 0 or not result.exists():
        raise BenchError(f"job {mode} exited with {code}:\n{_log_tail(ctx)}")
    data = json.loads(result.read_text())
    data["setup_s"] = data["ready"] - launched
    return data


def batch_timed(ctx: Context, workload: str) -> Outcome:
    """Cold jobs, each in its own process; a job's timed phase is one
    report or one explore, and the run reports the median job."""
    jobs = [run_job(ctx, workload)
            for _ in range(wl.job_count(workload, ctx.seconds))]
    setups = [job["setup_s"] for job in jobs]
    walls = [job["wall_s"] for job in jobs]
    ops = sum(job["ops"] for job in jobs)
    metrics = {
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(job["ops"] / job["wall_s"]
                                       for job in jobs),
        "latency_p50_ms": 1000.0 * statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(job["rss_mb"] for job in jobs),
    }
    return Outcome(metrics, ops, [p for job in jobs for p in job["problems"]],
                   {"job_walls_s": walls, "setup_samples_s": setups,
                    "ops": ops})


def batch_traced(ctx: Context, workload: str) -> Outcome:
    plain = run_job(ctx, workload)
    traced = run_job(ctx, workload, "--trace")
    totals = traced["trace"]
    metrics = tracing.layer_metrics(totals)
    metrics.update(_serve_layers(0.0, 0.0))
    metrics["unattributed_s"] = (traced["wall_s"]
                                 - tracing.attributed_seconds(totals))
    metrics["trace_overhead"] = traced["wall_s"] / plain["wall_s"]
    return Outcome(metrics, plain["ops"] + traced["ops"],
                   plain["problems"] + traced["problems"],
                   {"untraced_wall_s": plain["wall_s"],
                    "traced_wall_s": traced["wall_s"],
                    "missing_targets": totals["missing"]})


# -- serve_warm ----------------------------------------------------------------

def encode_request(endpoint: str, body: Dict[str, object]) -> bytes:
    data = json.dumps(body).encode()
    head = (f"POST {endpoint} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n")
    return head.encode() + data


def exchange(port: int, raw: bytes) -> bytes:
    """Send one request, read the response until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def split_response(data: bytes) -> Tuple[int, str]:
    """``(status, body)`` of a raw HTTP response (status 0 if garbled)."""
    head, separator, body = data.partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    if not separator or len(parts) < 2 or not parts[1].isdigit():
        return 0, ""
    return int(parts[1]), body.decode("utf-8", "replace")


def _proc_status_kb(pid: int, field: str) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    raise BenchError(f"/proc/{pid}/status has no {field}")


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, ctx: Context, trace_out: Optional[Path] = None) -> None:
        self.trace_out = trace_out
        self.stdout = ctx.fresh_path("serve", ".out")
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *wl.SERVE_ARGS]
        else:
            command = [sys.executable, str(HERE / "serve_boot.py"),
                       str(trace_out)]
        self.launched = time.monotonic()
        with open(self.stdout, "wb") as out, open(ctx.log, "ab") as log:
            self.proc = subprocess.Popen(command, env=ctx.env, cwd=ctx.root,
                                         stdout=out, stderr=log)
        self.port = self._await_port(ctx)

    def _await_port(self, ctx: Context) -> int:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        marker = b"serving on http://127.0.0.1:"
        while time.monotonic() < deadline:
            text = self.stdout.read_bytes()
            if marker in text:
                tail = text.split(marker, 1)[1]
                digits = tail.split(b" ", 1)[0]
                if digits.isdigit() and b"\n" in tail:
                    return int(digits)
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise BenchError(f"repro serve did not start:\n{_log_tail(ctx)}")

    def mark(self) -> None:
        """Snapshot the traced server's totals at the start of timing."""
        mark = self.trace_out.with_name(self.trace_out.name + ".mark")
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not mark.exists():
            if time.monotonic() > deadline:
                raise BenchError("traced server never wrote its mark")
            time.sleep(0.002)

    def shutdown(self) -> None:
        """Drain and stop; the server exits once queued work is done."""
        try:
            exchange(self.port, b"POST /shutdown HTTP/1.1\r\n"
                                b"Content-Length: 0\r\n\r\n")
            self.proc.wait(timeout=60)
        finally:
            self.stop()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)


@dataclasses.dataclass
class Session:
    """One timed serve stream against one warmed server."""

    setup_s: float
    wall_s: float
    latencies_s: List[float]
    responses: List[Tuple[int, int, str]]
    peak_rss_kb: float
    rss_growth_kb: float
    failures: List[str]
    trace: Optional[Dict[str, object]] = None


def warm_server(ctx: Context, raws: Sequence[bytes],
                trace_out: Optional[Path] = None) -> Tuple[Server, float]:
    """Start a server and answer every body once; returns set-up time."""
    server = Server(ctx, trace_out)
    try:
        for raw in raws:
            status, _ = split_response(exchange(server.port, raw))
            if status != 200:
                raise BenchError(f"warm-up request answered {status}")
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - server.launched


def drive(port: int, raws: Sequence[bytes], stream: Sequence[int],
          clients: int) -> Tuple[float, List[float], List[bytes], List[str]]:
    """Closed loop: each client sends its next request when the last ends.

    The clients only send, read and timestamp; responses are decoded after
    the timed phase.  Requests not sent by the child deadline count as
    failures, so a stalled server cannot hold the run past its time limit.
    """
    count = len(stream)
    latencies = [0.0] * count
    replies = [b""] * count
    failures: List[str] = []
    cursor = itertools.count()
    lock = threading.Lock()
    deadline = time.perf_counter() + CHILD_TIMEOUT_S

    def client() -> None:
        while True:
            with lock:
                index = next(cursor)
            if index >= count:
                return
            start = time.perf_counter()
            if start > deadline:
                failures.append(f"request #{index}: not sent by the deadline")
                continue
            try:
                replies[index] = exchange(port, raws[stream[index]])
            except OSError as exc:
                failures.append(f"request #{index}: {exc!r}")
            latencies[index] = time.perf_counter() - start

    threads = [threading.Thread(target=client, name=f"perfbench-client-{k}")
               for k in range(clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, latencies, replies, failures


def serve_session(ctx: Context,
                  trace_out: Optional[Path] = None) -> Session:
    """Start and warm one server, then stream."""
    bodies = wl.serve_bodies(ctx.seed)
    raws = [encode_request(endpoint, body) for endpoint, body in bodies]
    stream = wl.serve_stream(ctx.seed,
                             wl.SERVE_REQUESTS_PER_SECOND * ctx.seconds)
    server, setup = warm_server(ctx, raws, trace_out)
    try:
        if trace_out is not None:
            server.mark()
        pid = server.proc.pid
        rss_before = _proc_status_kb(pid, "VmRSS")
        wall, latencies, replies, failures = drive(
            server.port, raws, stream, wl.SERVE_CLIENTS)
        peak = _proc_status_kb(pid, "VmHWM")
        growth = _proc_status_kb(pid, "VmRSS") - rss_before
        server.shutdown()
    finally:
        server.stop()
    trace = None
    if trace_out is not None:
        mark = json.loads(trace_out.with_name(trace_out.name + ".mark")
                          .read_text())
        trace = tracing.difference(json.loads(trace_out.read_text()), mark)
    responses = [(body, *split_response(reply))
                 for body, reply in zip(stream, replies)]
    return Session(setup, wall, latencies, responses, peak, growth, failures,
                   trace)


def verify_session(ctx: Context, session: Session) -> Dict[str, object]:
    """Check every response against the serial reference (child process)."""
    path = ctx.fresh_path("responses", ".jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for response in session.responses:
            handle.write(json.dumps(response) + "\n")
    verdict = run_job(ctx, "verify_serve", "--responses", str(path))
    verdict["problems"] = session.failures + verdict["problems"]
    return verdict


def _serve_layers(queue_wait_ms: float,
                  growth_kb_per_request: float) -> Dict[str, float]:
    return {"serve.queue_wait_ms": queue_wait_ms,
            "serve.rss_growth_kb_per_request": growth_kb_per_request}


def serve_timed(ctx: Context) -> Outcome:
    session = serve_session(ctx)
    verdict = verify_session(ctx, session)
    latencies_ms = [1000.0 * value for value in session.latencies_s]
    requests = len(session.responses)
    metrics = {
        "wall_s": session.wall_s,
        "ops_per_s": requests / session.wall_s,
        "latency_p50_ms": statistics.median(latencies_ms),
        "setup_s": session.setup_s,
        "peak_rss_mb": session.peak_rss_kb / 1024.0,
    }
    # Latency grows with the server's history, so the tail percentiles
    # come from the last seconds of the stream and swing with the host's
    # speed there: they are recorded, not bounded (design.json,
    # serve_warm.tail).
    return Outcome(metrics, requests, verdict["problems"],
                   {"requests": requests, "clients": wl.SERVE_CLIENTS,
                    "latency_p90_ms": percentile(latencies_ms, 90),
                    "latency_p99_ms": percentile(latencies_ms, 99)})


def serve_traced(ctx: Context) -> Outcome:
    plain = serve_session(ctx)
    traced = serve_session(ctx, trace_out=ctx.run_dir / "serve-trace.json")
    plain_verdict = verify_session(ctx, plain)
    traced_verdict = verify_session(ctx, traced)
    requests = len(traced.responses)
    metrics = tracing.layer_metrics(traced.trace)
    metrics.update(_serve_layers(traced_verdict["queue_wait_ms"],
                                 traced.rss_growth_kb / requests))
    metrics["unattributed_s"] = (traced.wall_s
                                 - tracing.attributed_seconds(traced.trace))
    metrics["trace_overhead"] = traced.wall_s / plain.wall_s
    return Outcome(metrics, 2 * requests,
                   plain_verdict["problems"] + traced_verdict["problems"],
                   {"untraced_wall_s": plain.wall_s,
                    "traced_wall_s": traced.wall_s,
                    "missing_targets": traced.trace["missing"]})


# -- entry point ---------------------------------------------------------------

RUNNERS = {
    ("report_cold", False): lambda ctx: batch_timed(ctx, "report_cold"),
    ("report_cold", True): lambda ctx: batch_traced(ctx, "report_cold"),
    ("explore_cold", False): lambda ctx: batch_timed(ctx, "explore_cold"),
    ("explore_cold", True): lambda ctx: batch_traced(ctx, "explore_cold"),
    ("serve_warm", False): serve_timed,
    ("serve_warm", True): serve_traced,
}


def declared_metrics(root: Path, trace: bool) -> List[Dict[str, str]]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def result_line(outcome: Outcome,
                declared: Sequence[Dict[str, str]]) -> Dict[str, object]:
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(outcome.metrics):
        raise BenchError(f"metrics {sorted(outcome.metrics)} differ from "
                         f"BENCHMARK.json's {sorted(names)}")
    correct = not outcome.problems
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": 0 if correct else outcome.attempted,
        "metrics": {m["name"]: {"value": outcome.metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def run(workload: str, seed: int, seconds: int, trace: bool,
        root: Path = ROOT, small: bool = False) -> Tuple[Dict, Dict]:
    """One run; returns ``(record, result line)``."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro sources under {root / 'src'}")
    declared = declared_metrics(root, trace)
    run_dir = root / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = Context(root, run_dir, isolated_env(root, run_dir), seed, seconds,
                  small)
    try:
        precompile(ctx)
        before = reference_loop_s()
        outcome = RUNNERS[workload, trace](ctx)
        after = reference_loop_s()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "reference_loop_s": [before, after],
              "problems": outcome.problems, **outcome.record}
    return record, result_line(outcome, declared)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        record, line = run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"perfbench_record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
