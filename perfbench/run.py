#!/usr/bin/env python3
"""End-to-end stdio benchmark for ``quantmcp serve``.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark spawns ``python -m quantmcp serve`` with ``src/`` on
PYTHONPATH and drives it over its real stdin/stdout pipes: a closed loop
with one client and one outstanding ``tools/call`` at a time, the server in
its default sequential mode, both processes on one CPU. Every response is checked (see workloads.py);
every stdout frame and every stderr log line is scanned for the loaded
credential. Before measuring, the golden transcript is replayed, so a
change to the wire bytes fails the run.

``--trace 0`` reports the end-to-end metrics, with CPU work scaled to a
reference host speed by a probe run between calls (speed.py); the figures
as measured are printed on the lines above the result. ``--trace 1``
splits the time between an untraced session and one started through
launcher.py, and
reports per-layer span metrics plus the tracing overhead. The last stdout
line is one JSON object: correct, attempted, failed, metrics. The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import speed
from oracle import SyntheticOracle
from speed import probe
from stub import ProviderStub
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_SPAWNS = 15
WINDOWS = 10
HTTP_DELAY_S = 0.020
DEADLINE_S = 170.0
PROTOCOL_VERSION = "2024-11-05"
CLK_TCK = os.sysconf("SC_CLK_TCK")
PROXY_VARS = {"http_proxy", "https_proxy", "all_proxy", "no_proxy"}

CONFIG = """\
[server]
name = quantmcp
default_provider = synth
close_time = 15:00:00

[provider.synth]
kind = synthetic
seed = {seed}
rate_capacity = 1000000000
rate_refill_per_sec = 1000000000

[provider.vendor]
kind = http
base_url = http://127.0.0.1:{port}/daily?symbol={{code}}&fields={{field}}&from={{start}}&to={{end}}&apikey={{apikey}}
rate_capacity = 1000000000
rate_refill_per_sec = 1000000000
"""

_live: set[subprocess.Popen] = set()


def _kill_live() -> None:
    for proc in list(_live):
        proc.kill()
        proc.wait()


class ServerDied(Exception):
    pass


class Server:
    """One server process driven over its stdin/stdout pipes.

    Both pipes are buffered (the Popen default): a bufsize=0 client reads
    a response one byte per syscall, which measured 6.8 ms instead of
    1.3 ms p50 on hist_hit_small.
    """

    def __init__(self, argv: list[str], env: dict[str, str], log_path: Path):
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log, env=env, cwd=ROOT
        )
        _live.add(self.proc)
        self.last_id = 0

    def request(self, method: str, params: dict) -> tuple[float, bytes]:
        """Send one request; return (seconds from write to full line, line)."""
        self.last_id += 1
        line = json.dumps({"jsonrpc": "2.0", "id": self.last_id, "method": method, "params": params})
        data = line.encode() + b"\n"
        start = time.perf_counter()
        self.proc.stdin.write(data)
        self.proc.stdin.flush()
        response = self.proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if not response:
            raise ServerDied(f"server exited with {self.proc.poll()} during {method}")
        return elapsed, response

    def initialize(self) -> None:
        _, line = self.request("initialize", {"protocolVersion": PROTOCOL_VERSION,
                                              "clientInfo": {"name": "perfbench", "version": "1"}})
        if json.loads(line)["result"]["protocolVersion"] != PROTOCOL_VERSION:
            raise ServerDied(f"unexpected initialize response {line[:200]!r}")

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK  # utime + stime

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise ServerDied("no VmHWM in /proc status")

    def close(self) -> int:
        try:
            self.proc.stdin.close()
            return self.proc.wait(timeout=30)
        except (subprocess.TimeoutExpired, BrokenPipeError):
            self.proc.kill()
            return self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()
            _live.discard(self.proc)


class Tally:
    """Attempted and failed tools/call counts with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def call_once(server: Server, call, secret: bytes, tally: Tally) -> tuple[int, float, int]:
    """One checked tools/call; returns (id, latency seconds, frame bytes)."""
    tally.attempted += 1
    try:
        elapsed, line = server.request("tools/call", {"name": call.tool, "arguments": call.arguments})
    except ServerDied as exc:
        tally.fail(str(exc))
        raise
    reason = None
    if secret in line:
        reason = "credential leaked into a stdout frame"
    else:
        try:
            msg = json.loads(line)
            if msg.get("id") != server.last_id:
                reason = f"response id {msg.get('id')!r}, expected {server.last_id}"
            elif "error" in msg:
                reason = f"error frame {msg['error']}"
            elif msg["result"]["is_error"]:
                reason = f"is_error result: {msg['result'].get('human_summary')}"
            else:
                reason = call.check(msg["result"])
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            reason = f"malformed response: {exc!r}"
    if reason is not None:
        tally.fail(f"{call.tool}: {reason}")
    return server.last_id, elapsed, len(line)


def drive(server: Server, workload, seconds: float, secret: bytes, tally: Tally, stub: ProviderStub) -> dict:
    """Initialize, warm the workload, then run the closed loop for ``seconds``.

    After each checked call the client runs one speed probe on the shared
    CPU. Per call it records the latency, the cycle (write of the request to
    the end of checking the response, probe excluded), the wall time the
    provider stub spent in its fixed delay, and the probe time. The server's
    CPU time is read at WINDOWS equal boundaries.
    """
    server.initialize()
    for call in workload.warm_calls():
        call_once(server, call, secret, tally)
    latencies: dict[int, float] = {}
    cycles: list[float] = []
    waits: list[float] = []
    probes: list[float] = []
    cpu_marks: list[tuple[int, float]] = []
    frame_bytes = 0
    rss = None
    window_s = seconds / WINDOWS
    gc.collect()
    gc.disable()  # keep client collections out of the timed loop
    try:
        start = time.perf_counter()
        end = start + seconds
        next_mark = start + window_s
        cpu_marks.append((0, server.cpu_s()))
        opened = time.perf_counter()
        while True:
            waited = stub.waited_s
            rid, elapsed, size = call_once(server, workload.next_call(), secret, tally)
            cycles.append(time.perf_counter() - opened)
            waits.append(stub.waited_s - waited)
            probes.append(probe())
            latencies[rid] = elapsed
            frame_bytes += size
            if len(cycles) == workload.rss_at_call:
                rss = server.peak_rss_mb()
            now = time.perf_counter()
            if now >= next_mark:
                cpu_marks.append((len(cycles), server.cpu_s()))
                if now >= end:
                    break
                next_mark = max(next_mark + window_s, now)
            opened = time.perf_counter()
    finally:
        gc.enable()
    if rss is None:
        rss = server.peak_rss_mb()
    # A last untimed request, so the server's shutdown log line is not
    # attributed to a timed call.
    server.request("tools/list", {})
    return {"latencies": latencies, "cycles": cycles, "waits": waits, "probes": probes, "cpu_marks": cpu_marks,
            "wall": now - start, "rss": rss, "frame_bytes": frame_bytes}


def percentile(xs: list[float], p: float) -> float:
    xs = sorted(xs)
    k = (len(xs) - 1) * p / 100
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def scaled_cpu_s(run: dict, factor: list[float]) -> float:
    """Server CPU seconds over the timed phase, each window's share divided by its mean speed factor."""
    total = 0.0
    marks = run["cpu_marks"]
    for (i0, cpu0), (i1, cpu1) in zip(marks, marks[1:]):
        if i1 > i0:
            total += (cpu1 - cpu0) / statistics.fmean(factor[i0:i1])
    return total


def end_to_end(run: dict, setup_s: float) -> dict:
    """Whole-run figures, with CPU work scaled to the reference speed (speed.py).

    The server's CPU time is all CPU work. Of a call's latency and cycle,
    the wall time the provider stub spent in its fixed delay is waiting,
    which host speed does not stretch, and stays as measured; the rest is
    scaled.
    """
    factor = speed.factors(run["probes"])

    def scaled(times: list[float]) -> list[float]:
        return [w + (t - w) / f for t, w, f in zip(times, run["waits"], factor)]

    latencies = scaled(list(run["latencies"].values()))
    cycles = scaled(run["cycles"])
    n = len(cycles)
    return {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (n / math.fsum(cycles), "1/s"),
        "call_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "call_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "server_cpu_ms_per_call": (scaled_cpu_s(run, factor) / n * 1e3, "ms"),
        "server_peak_rss_mb": (run["rss"], "MB"),
    }


def tail_line(run: dict) -> str:
    """Unscaled whole-run figures, including the highest percentile with at least ten samples beyond it."""
    lat = list(run["latencies"].values())
    n = len(lat)
    marks = run["cpu_marks"]
    usable = [p for p in (90, 99, 99.9, 99.99) if n * (100 - p) / 100 >= 10]
    text = (f"as measured: {n} calls in {run['wall']:.3f} s ({math.fsum(run['probes']):.3f} s of probes),"
            f" {n / math.fsum(run['cycles']):.6g} calls/s,"
            f" server cpu {(marks[-1][1] - marks[0][1]) / n * 1e3:.4f} ms/call,"
            f" speed factor median {statistics.median(run['probes']) / speed.REF_S:.3f},"
            f" p50 {percentile(lat, 50) * 1e3:.4f} ms")
    if not usable:
        return text + ", too few calls for a tail percentile with 10 samples beyond it"
    p = usable[-1]
    return text + f", p{p} {percentile(lat, p) * 1e3:.4f} ms ({n * (100 - p) / 100:.0f} samples beyond)"


def layer_metrics(spans: list, run: dict) -> dict:
    """Mean per timed call of each layer's span time and counts."""
    latencies = run["latencies"]
    n = len(latencies)
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    session: dict[str, float] = defaultdict(float)
    top = 0.0
    for rid, name, depth, dur, self_dur, extra in spans:
        if rid is None:
            session[name] += dur
            continue
        if rid not in latencies:
            continue
        total[name] += dur
        total[name + ".self"] += self_dur
        count[name] += 1
        if depth == 0:
            top += dur
        if name == "security.rate_limiter.acquire" and extra is False:
            count["denied"] += 1
        elif name == "security.cache.lookup_or_store" and extra is True:
            count["hits"] += 1
        elif name == "providers.fetch_historical" and isinstance(extra, int):
            count["rows"] += extra
        elif name == "providers.http_get" and not (isinstance(extra, int) and 200 <= extra < 300):
            count["http_failed"] += 1

    def ms(key: str, base: int = n) -> float:
        return total[key] * 1e3 / base if base else 0.0

    tools = ("tool_get_historical_data", "tool_compute_summary")
    lookups = count["security.cache.lookup_or_store"]
    return {
        "transport.parse_message.ms": (ms("transport.parse_message"), "ms"),
        "transport.serialize_message.ms": (ms("transport.serialize_message"), "ms"),
        "transport.frame_kb": (run["frame_bytes"] / 1024 / n, "kB"),
        "server.dispatch.self_ms": (ms("server.dispatch.self"), "ms"),
        "server.unattributed_ms": ((sum(latencies.values()) - top) * 1e3 / n, "ms"),
        "server.log_lines": (count["server.log_event"] / n, "1/call"),
        "registry.validate_params.ms": (ms("registry.validate_params"), "ms"),
        "tools.handler.self_ms": (sum(total[f"tools.{t}.self"] for t in tools) * 1e3 / n, "ms"),
        **{f"tools.{t}.self_ms": (ms(f"tools.{t}.self", count[f"tools.{t}"]), "ms") for t in tools},
        "tools.compute_stats.ms": (ms("tools.compute_stats"), "ms"),
        "security.rate_limiter.acquire.ms": (ms("security.rate_limiter.acquire"), "ms"),
        "security.rate_limiter.denied": (count["denied"], "count"),
        "security.cache_key.ms": (ms("security.cache_key"), "ms"),
        "security.cache.lookup_or_store.self_ms": (ms("security.cache.lookup_or_store.self"), "ms"),
        "security.cache.hit_ratio": (count["hits"] / lookups if lookups else 0.0, "ratio"),
        "security.cache.misses": ((lookups - count["hits"]) / n, "1/call"),
        "security.redact_message.ms": (ms("security.redact_message"), "ms"),
        "security.redact.ms": (ms("security.redact"), "ms"),
        "providers.fetch_historical.self_ms": (ms("providers.fetch_historical.self"), "ms"),
        "providers.rows": (count["rows"] / n, "1/call"),
        "providers.http_get.count": (count["providers.http_get"] / n, "1/call"),
        "providers.http_get.wait_ms": (ms("providers.http_get"), "ms"),
        "providers.http_get.failed": (count["http_failed"], "count"),
        "normalize.parse_options.ms": (ms("normalize.parse_options"), "ms"),
        "normalize.normalize_payload.ms": (ms("normalize.normalize_payload"), "ms"),
        "normalize.apply_fill.ms": (ms("normalize.apply_fill"), "ms"),
        "config.load_config.ms": (session["config.load_config"] * 1e3, "ms"),
        "config.build_context.ms": (session["config.build_context"] * 1e3, "ms"),
        "cli.import_ms": (session["cli.import"] * 1e3, "ms"),
    }


def server_env(secret: str | None) -> dict[str, str]:
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("QUANTMCP_CRED_") and k.lower() not in PROXY_VARS
    }
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", NO_PROXY="127.0.0.1,localhost")
    if secret is not None:
        env["QUANTMCP_CRED_VENDOR"] = secret
    return env


def replay_gate() -> str | None:
    """Replay the golden transcript; any wire difference fails the benchmark."""
    argv = [sys.executable, "-m", "quantmcp", "replay", "tests/golden/transcript_q1_2024.jsonl",
            "--config", "configs/synthetic.conf"]
    done = subprocess.run(argv, cwd=ROOT, env=server_env(None), capture_output=True, timeout=120)
    if done.returncode != 0:
        return f"golden replay exited {done.returncode}: {done.stdout.decode()[-500:]}{done.stderr.decode()[-500:]}"
    return None


def measure(args, workload, secret: str, workdir: Path, config: Path, tally: Tally, stub: ProviderStub) -> dict:
    env = server_env(secret)
    plain = [sys.executable, "-m", "quantmcp", "serve", "--config", str(config)]
    logs = workdir / "server-stderr.log"
    secret_b = secret.encode()
    if not args.trace:
        setups, raw_setups = [], []
        for _ in range(SETUP_SPAWNS):
            before = speed.factor_now()
            start = time.perf_counter()
            server = Server(plain, env, logs)
            try:
                server.initialize()
                elapsed = time.perf_counter() - start
            finally:
                server.close()
            raw_setups.append(elapsed)
            setups.append(elapsed / max(before, speed.factor_now()))
        server = Server(plain, env, logs)
        try:
            run = drive(server, workload, args.seconds, secret_b, tally, stub)
        finally:
            server.close()
        print(f"setup as measured: median {statistics.median(raw_setups):.4f} s of {SETUP_SPAWNS} spawns")
        print(tail_line(run))
        return end_to_end(run, statistics.median(setups))

    half = args.seconds / 2
    server = Server(plain, env, logs)
    try:
        untraced = drive(server, workload, half, secret_b, tally, stub)
    finally:
        server.close()
    spans_path = workdir / "spans.json"
    server = Server([sys.executable, str(HERE / "launcher.py"), str(spans_path), *plain[3:]], env, logs)
    try:
        traced = drive(server, workload, half, secret_b, tally, stub)
    finally:
        server.close()
    metrics = layer_metrics(json.loads(spans_path.read_text()), traced)
    cps = end_to_end(traced, 0.0)["calls_per_s"][0]
    base = end_to_end(untraced, 0.0)["calls_per_s"][0]
    metrics["trace.calls_per_s"] = (cps, "1/s")
    metrics["trace.untraced_calls_per_s"] = (base, "1/s")
    metrics["trace.overhead_pct"] = ((base / cps - 1) * 100, "%")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "quantmcp" / "cli.py").is_file():
        print(f"perfbench: no quantmcp sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    # Client and server share one CPU, so each call's round trip is a local
    # context switch. Across CPUs it wakes an idle vCPU, which on a shared
    # host added milliseconds to a share of calls that varied from run to run.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    watchdog = threading.Timer(DEADLINE_S, _kill_live)
    watchdog.daemon = True
    watchdog.start()

    rng = random.Random(args.seed)
    secret = f"bench-{rng.getrandbits(96):024x}"
    oracle = SyntheticOracle(rng.randrange(1 << 32))
    workload = WORKLOADS[args.workload](rng, oracle)
    tally = Tally()
    gate = replay_gate()
    if gate is not None:
        print(f"perfbench: {gate}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, {args.seconds:g} s"
          f"{' (half untraced, half traced)' if args.trace else ''}, client and server on CPU {cpu}")
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        with ProviderStub(oracle, secret, HTTP_DELAY_S) as stub:
            config = workdir / "bench.conf"
            config.write_text(CONFIG.format(seed=oracle.seed, port=stub.port))
            try:
                metrics = measure(args, workload, secret, workdir, config, tally, stub)
            except ServerDied as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 1
            http_gets, http_waited = stub.gets, stub.waited_s
        leaked = secret.encode() in (workdir / "server-stderr.log").read_bytes()
    finally:
        watchdog.cancel()
        _kill_live()
        shutil.rmtree(workdir, ignore_errors=True)
    if leaked:
        tally.fail("credential leaked into the server's stderr log")

    if args.workload == "http_miss":
        print(f"provider stub on 127.0.0.1 (loopback): {http_gets} GETs, {HTTP_DELAY_S * 1e3:g} ms each,"
              f" {http_waited:.3f} s with a GET in its delay")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_ratio {tally.failed / tally.attempted:.6g} ({tally.failed} failed / {tally.attempted} attempted)")
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
