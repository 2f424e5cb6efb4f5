"""Serving worker: start the server the way a user does, drive it with
:mod:`driver`, check what came back, stop it."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time

import host
import timebase
from driver import DELETE, GET, Driver, DriverAbort, Requests
from workloads import SERVE_CACHE_BYTES, SERVE_POLICY

HERE = os.path.dirname(os.path.abspath(__file__))
HIT_TIME_MS = 0.1  # the paper's cost of a hit


def server_command() -> list[str]:
    """``repro.cli serve`` with no flag beyond policy and cache size, so
    a change of a default (shards, slab size) is measured."""
    return [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--policy", SERVE_POLICY,
            "--cache-size", f"{SERVE_CACHE_BYTES >> 20}MiB"]


def echo_command(cfg: dict) -> list[str]:
    return [sys.executable, os.path.join(HERE, "echo_server.py"),
            cfg["trace"], str(cfg["rows"])]


def start_server(cmd: list[str], cpus: list[int]):
    """Spawn a server on the second of ``cpus`` (unpinned when the host
    has one CPU and ``cpus`` is empty), wait for its "serving ... on
    host:port" line; returns ``(process, port)``."""
    pin = (lambda: host.pin_self(cpus[1])) if cpus else None
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, PYTHONHASHSEED="0"),
                            preexec_fn=pin)
    line = proc.stdout.readline()
    match = re.search(r" on [\d.]+:(\d+)", line)
    if match is None:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server did not announce a port: {line!r}")
    return proc, int(match.group(1))


def stop_server(proc) -> bool:
    """SIGTERM; True when the server has exited within 5 s."""
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=5)
        exited = True
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        exited = False
    proc.stdout.close()
    return exited


def load_requests(path: str, rows: int) -> Requests:
    from repro.traces.compile import CompiledTrace

    ct = CompiledTrace(path)
    return Requests(ct.ops[:rows].tolist(), ct.keys[:rows].tolist(),
                    ct.value_sizes[:rows].tolist(),
                    ct.penalties[:rows].tolist())


def exec_quantile(detail: dict, name: str) -> float:
    """Count-weighted mean over the per-(verb, shard) command-latency
    histograms of one quantile, microseconds."""
    total = weight = 0.0
    for key, value in detail.items():
        if key.startswith("server_cmd_latency_seconds") \
                and key.endswith("_" + name):
            count = float(detail[key[:-len(name)] + "count"])
            total += float(value) * count
            weight += count
    return total / weight * 1e6 if weight else 0.0


def check_stats(driver: Driver, stats: dict, detail: dict) -> list[str]:
    """The server's own counters must agree with what the driver saw.

    Every storage command probes the cache once before storing, so the
    cache's ``gets`` is GETs + SETs; the probe can hit, so ``hits`` is
    only bounded by the SET count — the per-verb latency histograms
    count commands executed and give the exact GET count.
    """
    errors = []
    sets = driver.sets + driver.fills
    if int(stats["items"]) <= 0:
        errors.append("stats: items == 0 after the run")
    if int(stats["gets"]) != driver.gets + sets:
        errors.append(f"stats gets {stats['gets']} != driver GETs "
                      f"{driver.gets} + SETs {sets}")
    if not driver.hits <= int(stats["hits"]) <= driver.hits + sets:
        errors.append(f"stats hits {stats['hits']} outside driver hits "
                      f"{driver.hits} .. +{sets}")
    executed = sum(int(v) for k, v in detail.items()
                   if k.startswith("server_cmd_latency_seconds{cmd=get,")
                   and k.endswith("_count"))
    if executed != driver.gets:
        errors.append(f"server executed {executed} get commands, driver "
                      f"sent {driver.gets}")
    return errors


def run_serve(cfg: dict, spans) -> dict:
    """One serving pass over ``cfg["rows"]`` rows, ``cfg["warm_rows"]``
    of them warm-up.  With ``cfg["echo"]`` the peer is the canned-reply
    echo server and the server-side checks are skipped."""
    echo = cfg.get("echo", False)
    rows, warm = cfg["rows"], cfg["warm_rows"]
    perf = time.perf_counter
    spins = [timebase.spin() for _ in range(3)]

    started = perf()
    requests = load_requests(cfg["trace"], rows)
    spans.add("driver.encode", started, perf(), rows=rows)

    started = perf()
    cpus = cfg["cpus"]
    proc, port = start_server(echo_command(cfg) if echo
                              else server_command(), cpus)
    ready_s = perf() - started
    spans.add("server.ready", started, perf())
    driver = None
    errors: list[str] = []
    attempted = rows
    try:
        pinned = bool(cpus) and os.sched_getaffinity(proc.pid) == {cpus[1]}
        driver = Driver(requests, port, spans)
        started = perf()
        root = spans.begin("driver.warm", started)
        driver.run(0, warm, 1, proc.pid, root)
        spans.finish(root, perf(), rows=warm)
        warm_s = perf() - started
        spins += [timebase.spin() for _ in range(3)]

        measure_start = time.monotonic()
        cpu_self = time.process_time()
        waited = driver.wait_s
        root = spans.begin("driver.measure", perf())
        rounds = driver.run(warm, rows, timebase.ROUNDS, proc.pid, root)
        spans.finish(root, perf(), rows=rows - warm)
        cpu_self = time.process_time() - cpu_self
        waited = driver.wait_s - waited
        spins += [timebase.spin() for _ in range(3)]
        driver.flush_fills()

        stats = detail = {}
        if not echo:
            stats = driver.command(b"stats")[1]
            detail = driver.command(b"stats detail")[1]
            errors += check_stats(driver, stats, detail)
        peak = host.peak_rss_mib(proc.pid)
    except DriverAbort as exc:
        errors.append(f"driver aborted: {exc}")
        done = 0 if driver is None else (driver.gets + driver.sets
                                         + driver.deletes)
        return {"errors": errors, "attempted": attempted,
                "failed": max(1, attempted - done)}
    finally:
        if driver is not None:
            driver.close()
        if not stop_server(proc):
            errors.append("server did not exit within 5 s of SIGTERM")

    if driver.bad_fills:
        errors.append(f"{driver.bad_fills} fill SETs not answered STORED")
    kinds = requests.kind
    want_gets = kinds.count(GET)
    if (driver.gets, driver.deletes) != (want_gets, kinds.count(DELETE)):
        errors.append("driver did not send every row")

    for r in rounds:
        r.spins_ms = spins
    timing = timebase.summarize(rounds, calibrate=False)
    measured = rows - warm
    wall = sum(r.wall_s for r in rounds)
    server_cpu = sum(r.cpu_s for r in rounds)
    kops = rows / 1e3
    return {
        "errors": errors, "attempted": attempted, "failed": driver.failed,
        "pinned": int(pinned),
        "e2e": {
            "setup_s": measure_start - cfg["spawn_t"],
            "ops_per_s": timing["ops_per_s"],
            "cpu_us_per_op": timing["cpu_us_per_op"],
            "p50_ms": timing["p50_ms"],
            "peak_rss_mb": peak,
            "hit_ratio": driver.hits / driver.gets,
            "avg_service_ms": (driver.hits * HIT_TIME_MS
                               + driver.miss_penalty * 1e3) / driver.gets,
        },
        "layers": {
            "server.ready_s": ready_s,
            "server.warm_s": warm_s,
            "server.cpu_util": server_cpu / wall,
            "server.exec_p50_us": exec_quantile(detail, "p50"),
            "server.exec_p99_us": exec_quantile(detail, "p99"),
            "cache.evictions_per_kop":
                float(stats.get("evictions", 0)) / kops,
            "cache.migrations_per_kop":
                float(stats.get("migrations", 0)) / kops,
            "driver.self_us_per_op": cpu_self / measured * 1e6,
            "driver.wait_share": waited / wall,
            "driver.fill_sets_per_kop": driver.fills / kops,
            "batch.p95_ms": timing["p95_ms"],
            "driver.p99_ms": timing["p99_ms"],
            "driver.batches": timing["batches"],
            "host.cal_ms": timing["cal_ms"],
            "host.raw_ops_per_s": timing["raw_ops_per_s"],
        },
        "timing": timing,
    }
