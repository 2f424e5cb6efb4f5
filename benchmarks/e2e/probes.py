"""Layer probes: each calls one layer's public functions in a loop over
the workload's own inputs and reports calibrated ns per trace row.

A probe runs a warm-up and then three timed rounds over consecutive
thirds of its input, a calibration spin on each side of a round; the
reported number is the median round.  Rungs that are differences
(policy minus plain drive, tracker minus exact, obs minus none) are
differences of those medians.
"""

from __future__ import annotations

import time
from itertools import islice

import timebase
from driver import DELETE, GET
from replay import Feeder, build_cache, build_simulator, layer_counters
from serve import load_requests
from workloads import SERVE_CACHE_BYTES, SERVE_POLICY, WINDOW

PROBE_ROUNDS = 3
HIT_TIME = 1e-4


def timed_rounds(name: str, spans, rows_per_round, run_round) -> float:
    """Median calibrated ns per row of ``run_round(r)`` over the rounds."""
    perf = time.perf_counter
    per_row = []
    for r, rows in enumerate(rows_per_round):
        before = timebase.spin()
        started = perf()
        run_round(r)
        ended = perf()
        scale = timebase.calibration_scale([before, timebase.spin()])
        spans.add("probe." + name, started, ended, rows=rows, round=r)
        per_row.append((ended - started) * scale / rows * 1e9)
    return timebase.median(per_row)


def drive(cache, rows, outcomes=None) -> None:
    """GET with set-on-miss, SET and DELETE straight into the cache."""
    lookup, store, delete = cache.lookup, cache.set, cache.delete
    for op, key, key_size, value_size, penalty in rows:
        if op == 0:
            hit = lookup(key, key_size, value_size, penalty) is not None
            if not hit:
                store(key, key_size, value_size, penalty)
            if outcomes is not None:
                outcomes.append((hit, penalty))
        elif op == 1:
            store(key, key_size, value_size, penalty)
        else:
            delete(key)


def replay_probes(cfg: dict, spans) -> dict[str, float]:
    """The replay-side ladder over ``cfg["probe_trace"]``: its first
    ``cfg["probe_warm_rows"]`` rows warm each cache, the rest is the
    three timed rounds."""
    from repro.sim.derive import derived_rows
    from repro.sim.metrics import MetricsCollector
    from repro.sim.service import ServiceTimeModel
    from repro.traces.compile import CompiledTrace

    spec = cfg["spec"]
    ct = CompiledTrace(cfg["probe_trace"], window=WINDOW)
    windows = len(ct) // WINDOW
    warm_w = cfg["probe_warm_rows"] // WINDOW
    bounds = timebase.split_rounds(windows - warm_w, PROBE_ROUNDS)
    round_w = [hi - lo for lo, hi in bounds]
    round_rows = [w * WINDOW for w in round_w]
    service = ServiceTimeModel(hit_time=HIT_TIME)
    out: dict[str, float] = {}

    def columns(lo: int, hi: int) -> list[tuple]:
        lo, hi = lo * WINDOW, hi * WINDOW
        return list(zip(ct.ops[lo:hi].tolist(), ct.keys[lo:hi].tolist(),
                        ct.key_sizes[lo:hi].tolist(),
                        ct.value_sizes[lo:hi].tolist(),
                        ct.penalties[lo:hi].tolist()))

    def after_warm_up():
        source = ct.iter_windows(WINDOW)
        for _ in islice(source, warm_w):
            pass
        return source

    # row iteration: what every replay loop pays before touching a cache
    source = after_warm_up()

    def iterate(r: int) -> None:
        for w in islice(source, round_w[r]):
            for _row in zip(w.ops.tolist(), w.keys.tolist(),
                            w.key_sizes.tolist(), w.value_sizes.tolist(),
                            w.penalties.tolist(),
                            service.miss_array(w.penalties)):
                pass

    out["traces.iter_ns_per_op"] = timed_rounds(
        "traces.iter", spans, round_rows, iterate)

    # derive pass: the same rows plus hash pair, size class, penalty bin
    bloom = build_cache(spec, "pama", "bloom")
    classes, edges = bloom.size_classes, bloom.policy.bin_edges()
    source = after_warm_up()

    def derive(r: int) -> None:
        for _row in derived_rows(islice(source, round_w[r]), service,
                                 classes, edges, True):
            pass

    out["derive.ns_per_op"] = (timed_rounds("derive", spans, round_rows,
                                            derive)
                               - out["traces.iter_ns_per_op"])

    # direct drive: index + LRU alone, then + policy, then + Bloom tracker
    warm_rows = columns(0, warm_w)
    rounds = [columns(warm_w + lo, warm_w + hi) for lo, hi in bounds]
    drives = {}
    outcomes: list[tuple[bool, float]] = []
    mine = "-".join(filter(None, (spec["policy"], spec["tracker"])))
    for label, policy, tracker in (("memcached", "memcached", ""),
                                   ("pama-exact", "pama", "exact"),
                                   ("pama-bloom", "pama", "bloom")):
        cache = build_cache(spec, policy, tracker)
        drive(cache, warm_rows, outcomes if label == mine else None)
        drives[label] = timed_rounds(
            "drive." + label, spans, round_rows,
            lambda r, cache=cache: drive(cache, rounds[r]))
    out["cache.drive_ns_per_op"] = drives["memcached"]
    out["policy.pama_ns_per_op"] = drives["pama-exact"] - drives["memcached"]
    out["tracker.bloom_ns_per_op"] = (drives["pama-bloom"]
                                      - drives["pama-exact"])

    # MetricsCollector over the outcome sequence of the warm-up drive
    collector = MetricsCollector(100_000)
    thirds = timebase.split_rounds(len(warm_rows), PROBE_ROUNDS)
    seen = iter(outcomes)
    gets = [sum(1 for row in warm_rows[lo:hi] if row[0] == 0)
            for lo, hi in thirds]

    def record(r: int) -> None:
        hit, miss = collector.record_hit, collector.record_miss
        for was_hit, penalty in islice(seen, gets[r]):
            if was_hit:
                hit(HIT_TIME)
            else:
                miss(penalty)

    out["metrics.record_ns_per_op"] = timed_rounds(
        "metrics.record", spans, [hi - lo for lo, hi in thirds], record)

    # Simulator.run as the workload configures it, without and with obs
    runs = {}
    for label, obs in (("plain", False), ("obs", True)):
        sim = build_simulator(build_cache(spec), obs)
        perf = time.perf_counter
        root = spans.begin("probe.sim.run." + label, perf())
        feeder = Feeder(ct.iter_windows(WINDOW), warm_w, windows - warm_w,
                        spans, root, rounds=PROBE_ROUNDS)
        sim.run(feeder.windows())
        spans.finish(root, perf(), rows=feeder.rows_fed)
        runs[label] = 1e9 / feeder.summary()["ops_per_s"]
        if obs == spec["obs"]:
            # this replay's counters: a serving workload's own pass sees
            # only what ``stats`` sends over the wire
            out.update(layer_counters(sim.cache, sim, feeder.rows_fed,
                                      len(feeder.rows)))
    out["sim.run_ns_per_op"] = runs["obs" if spec["obs"] else "plain"]
    out["obs.ns_per_op"] = runs["obs"] - runs["plain"]
    # the plain run hashes keys in the derive pass only for Bloom-tracked
    # PAMA; elsewhere the derive rung is measured but off the path
    derived = out["derive.ns_per_op"] if mine == "pama-bloom" else 0.0
    out["sim.loop_ns_per_op"] = (runs["plain"] - drives[mine]
                                 - out["traces.iter_ns_per_op"] - derived
                                 - out["metrics.record_ns_per_op"])
    return out


def protocol_probes(cfg: dict, spans) -> dict[str, float]:
    """The serving-side ladder without sockets: decode the encoded
    request stream, run the commands against a ``ShardSet`` built from
    the ``serve`` command's own defaults, format the replies."""
    from repro._util import parse_size
    from repro.cache.sizeclasses import SizeClassConfig
    from repro.cli import build_parser
    from repro.policies import make_policy
    from repro.server import protocol as p
    from repro.server.shard import ShardSet, apply_storage

    requests = load_requests(cfg["trace"], cfg["protocol_rows"])
    bounds = timebase.split_rounds(len(requests), PROBE_ROUNDS)
    round_rows = [hi - lo for lo, hi in bounds]
    streams = [b"".join(requests.wire(row) for row in range(lo, hi))
               for lo, hi in bounds]
    decoder = p.StreamDecoder()
    decoded: list[list] = [[] for _ in bounds]

    def decode(r: int) -> None:
        stream, sink = streams[r], decoded[r].append
        for at in range(0, len(stream), 64 * 1024):
            decoder.feed(stream[at:at + 64 * 1024])
            for event in decoder.events():
                sink(event)

    out = {"protocol.decode_ns_per_op": timed_rounds(
        "protocol.decode", spans, round_rows, decode)}
    if [len(d) for d in decoded] != round_rows or any(
            event[0] != p.EV_COMMAND for d in decoded for event in d):
        raise RuntimeError("StreamDecoder did not return one command per "
                           "encoded request")

    args = build_parser().parse_args(["serve"])
    shards = ShardSet(SERVE_CACHE_BYTES, lambda: make_policy(SERVE_POLICY),
                      SizeClassConfig(slab_size=parse_size(args.slab_size)),
                      nshards=args.shards)
    fills = [p.SetCommand(key.decode(), 0, 0, size, False)
             for key, size in zip(requests.key, requests.size)]
    replies: list[list] = [[] for _ in bounds]

    def dispatch(r: int) -> None:
        sink = replies[r].append
        row = bounds[r][0]
        for _tag, cmd, data in decoded[r]:
            kind = requests.kind[row]
            if kind == GET:
                key = cmd.keys[0]
                cache = shards.shard_for(key)
                item = cache.get(key)
                if item is None:   # cache-aside: the driver's fill SET
                    apply_storage(cache, fills[row], requests.value(row))
                sink(item)
            elif kind == DELETE:
                sink(shards.shard_for(cmd.key).delete(cmd.key))
            else:
                sink(apply_storage(shards.shard_for(cmd.key), cmd, data))
            row += 1

    out["shard.dispatch_ns_per_op"] = timed_rounds(
        "shard.dispatch", spans, round_rows, dispatch)

    def fmt(r: int) -> None:
        row = bounds[r][0]
        for reply in replies[r]:
            kind = requests.kind[row]
            if kind == GET:
                if reply is not None:
                    flags, data = reply.value
                    p.format_value(reply.key, flags, data)
                p.format_get_tail()
            elif kind == DELETE:
                p.format_deleted(reply)
            else:
                p.format_stored()
            row += 1

    out["protocol.format_ns_per_op"] = timed_rounds(
        "protocol.format", spans, round_rows, fmt)
    return out


def cli_reference(cfg: dict, spans) -> dict[str, float]:
    """The replay ``repro.cli simulate`` performs, inside this worker:
    what the CLI's wall clock is compared against."""
    from repro.sim.simulator import Simulator
    from repro.traces.compile import CompiledTrace

    spec = cfg["spec"]
    perf = time.perf_counter
    before = timebase.spin()
    started = perf()
    ct = CompiledTrace(cfg["cli_trace"])
    cache = build_cache(spec, tracker="exact" if spec["tracker"] else "")
    result = Simulator(cache, window_gets=50_000).run(ct)
    wall = perf() - started
    spans.add("probe.cli.reference", started, perf(), rows=len(ct))
    scale = timebase.calibration_scale([before, timebase.spin()])
    return {"wall_s": wall, "hit_ratio": result.hit_ratio,
            "ns_per_op": result.elapsed_seconds * scale / len(ct) * 1e9}


def run_probes(cfg: dict, spans) -> dict:
    layers = replay_probes(cfg, spans)
    layers.update(protocol_probes(cfg, spans))
    return {"errors": [], "layers": layers,
            "cli": cli_reference(cfg, spans)}
