"""Command-line interface: ``repro-kv``.

Subcommands:

* ``generate`` — synthesize a workload trace to .npz/.csv
* ``trace``    — compiled-trace tooling: ``trace compile`` packs a
  workload or .npz/.csv trace into the mmap-able columnar format
  (``docs/traces.md``) chunk-by-chunk in bounded memory; ``trace
  info`` summarizes a compiled directory
* ``analyze``  — print trace statistics (the Fig 1 table)
* ``simulate`` — replay a trace/workload under one policy
  (``--tenants`` interleaves several workload profiles into one
  tenant-tagged trace and replays it under the tenant arbiter)
* ``tenancy``  — multi-tenant scenario runner: penalty-aware arbiter
  vs static partitioning (``noisy-neighbor`` etc.; see ``--list``)
* ``compare``  — replay under several policies and rank them
* ``cluster``  — replay against multi-node clusters
* ``obs``      — observability snapshots (dump/diff)
* ``chaos``    — run a named fault scenario (optionally with a
  ``--dump-dir`` timeline + span dump)
* ``report``   — render a dump directory as self-contained HTML
* ``profile``  — cProfile a replay
* ``serve``    — run the memcached-protocol server (one asyncio event
  loop over one cache; ``--shards N`` hash-partitions it)
* ``loadgen``  — memtier-style load generator (``--spawn`` self-hosts
  a server for one-command smoke runs)
"""

from __future__ import annotations

import argparse
import sys

from repro._util import fmt_bytes, fmt_seconds, parse_size
from repro.policies import POLICY_NAMES

# The replay stack (repro.sim, repro.traces) and NumPy with it are
# imported by the subcommands that use them, so that ``serve`` does not
# carry them.


def _load_trace(path: str):
    from repro.traces import (CompiledTrace, is_compiled_trace, load_csv,
                              load_npz)

    if is_compiled_trace(path):
        return CompiledTrace(path)
    if path.endswith(".csv"):
        return load_csv(path)
    return load_npz(path)


def _trace_from_args(args) -> "object":
    from repro.traces import generate as generate_trace, get_profile

    if args.trace:
        return _load_trace(args.trace)
    profile = get_profile(args.workload)
    if args.scale != 1.0:
        profile = profile.scaled(args.scale)
    return generate_trace(profile, args.requests, seed=args.seed)


def _add_trace_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trace", help="trace file (.npz/.csv) or compiled "
                                     "trace directory; otherwise synthesize")
    sub.add_argument("--workload", default="etc",
                     help="workload profile (etc/app/usr/sys/var, or the "
                          "Table V zoo: twitter-cache, twitter-cache15, "
                          "zippydb, udb, rtdata, dedup)")
    sub.add_argument("--requests", type=int, default=500_000,
                     help="requests to synthesize")
    sub.add_argument("--scale", type=float, default=0.2,
                     help="key-universe scale factor for synthesis")
    sub.add_argument("--seed", type=int, default=0)


def _add_cache_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--cache-size", default="64MiB",
                     help="total cache memory (e.g. 64MiB, 1GiB); "
                          "`simulate` accepts a comma-separated list")
    sub.add_argument("--slab-size", default="64KiB", help="slab size")
    sub.add_argument("--window", type=int, default=50_000,
                     help="GETs per metrics window")
    sub.add_argument("--hit-time", type=float, default=1e-4,
                     help="service time of a hit, seconds")


def _add_jobs_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for independent replays "
                          "(0 = one per spare core; 1 = serial)")


def cmd_generate(args) -> int:
    from repro.traces import (generate as generate_trace, get_profile,
                              save_csv, save_npz)

    profile = get_profile(args.workload)
    if args.scale != 1.0:
        profile = profile.scaled(args.scale)
    trace = generate_trace(profile, args.requests, seed=args.seed)
    if args.out.endswith(".csv"):
        save_csv(trace, args.out)
    else:
        save_npz(trace, args.out)
    print(f"wrote {len(trace)} requests ({trace.unique_keys} unique keys) "
          f"to {args.out}")
    return 0


def cmd_trace_compile(args) -> int:
    from time import perf_counter

    from repro.traces import (compile_csv, compile_synthetic, compile_trace,
                              get_profile, load_npz)

    started = perf_counter()
    if args.trace:
        if args.trace.endswith(".csv"):
            # CSV chunks buffer Request objects; keep them small even
            # when the (array-sized) --chunk is large.
            compiled = compile_csv(args.trace, args.out,
                                   chunk=min(args.chunk, 1 << 16))
        else:
            compiled = compile_trace(load_npz(args.trace), args.out)
    else:
        profile = get_profile(args.workload)
        if args.scale != 1.0:
            profile = profile.scaled(args.scale)
        compiled = compile_synthetic(profile, args.requests, args.out,
                                     seed=args.seed, chunk=args.chunk)
    elapsed = perf_counter() - started
    rate = len(compiled) / elapsed if elapsed else 0.0
    print(f"compiled {len(compiled):,} requests "
          f"({fmt_bytes(compiled.nbytes)} columnar) to {args.out} "
          f"in {elapsed:.1f}s ({rate:,.0f} ops/s)")
    return 0


def cmd_trace_info(args) -> int:
    from repro.traces import CompiledTrace
    from repro.traces.compile import describe

    info = describe(CompiledTrace(args.path))
    print(f"compiled trace    {info['path']}")
    print(f"format            {info['format']}")
    print(f"rows              {info['rows']:,}")
    print(f"tenants           {info['tenants']}")
    print(f"columnar bytes    {fmt_bytes(info['bytes'])}")
    print(f"gets/sets/deletes {info['gets']:,} / {info['sets']:,} / "
          f"{info['deletes']:,}")
    print(f"mean penalty      {fmt_seconds(info['mean_penalty'])}")
    print(f"max penalty       {fmt_seconds(info['max_penalty'])}")
    print(f"total value bytes {fmt_bytes(info['total_value_bytes'])}")
    for key in sorted(info["meta"]):
        print(f"meta.{key:<13} {info['meta'][key]}")
    return 0


def cmd_analyze(args) -> int:
    from repro.traces import analyze as analyze_trace, is_compiled_trace

    if is_compiled_trace(args.trace):
        # Whole-trace statistics would materialize the columns; the
        # windowed summary stays bounded no matter the trace size.
        return cmd_trace_info(argparse.Namespace(path=args.trace))
    trace = _load_trace(args.trace)
    print(analyze_trace(trace).format())
    return 0


def _simulate_tenants(args) -> int:
    """``simulate --tenants``: mix profiles, replay under the arbiter."""
    from repro.cache import SlabCache, SizeClassConfig
    from repro.sim.simulator import simulate
    from repro.tenancy import (TenantArbiter, TenantSpec, mix_tenants,
                               tenant_configs)
    from repro.traces import get_profile

    if args.trace:
        raise SystemExit("--tenants synthesizes its own tenant-tagged "
                         "trace and cannot be combined with --trace")
    names = [n.strip() for n in args.tenants.split(",") if n.strip()]
    if len(names) < 1:
        raise SystemExit("--tenants needs at least one workload profile")
    specs = []
    for i, name in enumerate(names):
        label = f"{name}#{i}" if names.count(name) > 1 else name
        specs.append(TenantSpec(
            name=label, profile=get_profile(name).scaled(args.scale),
            reserve_fraction=args.reserve))
    trace = mix_tenants(specs, args.requests, seed=args.seed)
    cache_bytes = parse_size(args.cache_size.split(",")[0])
    slab_bytes = parse_size(args.slab_size)
    arbiter = TenantArbiter(tenant_configs(specs, cache_bytes // slab_bytes))
    cache = SlabCache(cache_bytes, arbiter,
                      SizeClassConfig(slab_size=slab_bytes))
    result = simulate(trace, cache, hit_time=args.hit_time,
                      window_gets=args.window)
    print(f"policy           {arbiter.name} "
          f"({len(specs)} tenants: {', '.join(s.name for s in specs)})")
    print(f"cache            {fmt_bytes(cache_bytes)} "
          f"({cache_bytes // slab_bytes} slabs)")
    print(f"GETs             {result.total_gets}")
    print(f"hit ratio        {result.hit_ratio:.4f}")
    print(f"avg service time {fmt_seconds(result.avg_service_time)}")
    print(f"weighted service {result.total_weighted_service_time():.3f}s")
    counts = arbiter.steal_counts()
    print(f"steals           approved={counts.get('approved', 0)} "
          f"forced={counts.get('forced', 0)} "
          f"declined={counts.get('declined', 0)}")
    for t, m in sorted(result.tenant_metrics.items()):
        print(f"  tenant {m['name']:>8}: gets={m['gets']} "
              f"hit_ratio={m['hit_ratio']:.4f} "
              f"avg_service={fmt_seconds(m['avg_service_time'])} "
              f"slabs={m['slabs']}")
    return 0


def cmd_simulate(args) -> int:
    if args.tenants:
        return _simulate_tenants(args)
    from repro.sim.experiment import ExperimentSpec
    from repro.sim.parallel import run_grid, size_specs
    from repro.sim.report import ascii_chart

    trace = _trace_from_args(args)
    sizes = [parse_size(s) for s in
             (part.strip() for part in args.cache_size.split(","))
             if s]
    if not sizes:
        raise SystemExit("--cache-size needs at least one size")
    base = ExperimentSpec(name="cli", cache_bytes=sizes[0],
                          slab_size=parse_size(args.slab_size),
                          hit_time=args.hit_time, window_gets=args.window)
    specs = size_specs(base, sizes) if len(sizes) > 1 else [base]
    shards = getattr(args, "replay_shards", 1)
    if shards > 1:
        # The key-sharded engine partitions ONE replay across workers
        # (repro.sim.sharded); --jobs sizes its pool instead of the grid.
        from repro.sim.sharded import run_sharded

        results = {spec.name: run_sharded(trace, spec, args.policy,
                                          shards=shards,
                                          jobs=args.jobs or None)
                   for spec in specs}
    else:
        grid = run_grid(trace, specs, [args.policy], jobs=args.jobs or None)
        grid.raise_failures()
        results = {spec.name: grid.results[(spec.name, args.policy)]
                   for spec in specs}
    for i, spec in enumerate(specs):
        result = results[spec.name]
        if i:
            print()
        print(f"policy           {result.policy}")
        if shards > 1:
            print(f"shards           {shards} "
                  f"({fmt_bytes(spec.cache_bytes // shards)} each)")
        print(f"cache            {fmt_bytes(spec.cache_bytes)} "
              f"({spec.cache_bytes // spec.slab_size} slabs)")
        print(f"GETs             {result.total_gets}")
        print(f"hit ratio        {result.hit_ratio:.4f}")
        print(f"avg service time {fmt_seconds(result.avg_service_time)}")
        print(f"evictions        {result.cache_stats['evictions']:.0f}")
        print(f"migrations       {result.cache_stats['migrations']:.0f}")
        if args.chart and result.windows:
            print()
            print(ascii_chart({"hit_ratio": result.hit_ratio_series()},
                              title="hit ratio per window"))
    return 0


def cmd_compare(args) -> int:
    from repro.sim.experiment import ExperimentSpec, run_comparison
    from repro.sim.report import ascii_chart, comparison_summary

    trace = _trace_from_args(args)
    policies = args.policies.split(",")
    for name in policies:
        if name not in POLICY_NAMES:
            print(f"unknown policy {name!r}; choose from {POLICY_NAMES}",
                  file=sys.stderr)
            return 2
    spec = ExperimentSpec(name="cli", cache_bytes=parse_size(args.cache_size),
                          slab_size=parse_size(args.slab_size),
                          hit_time=args.hit_time, window_gets=args.window)
    cmp = run_comparison(trace, spec, policies, verbose=args.verbose,
                         jobs=args.jobs or None)
    print(comparison_summary(cmp.results))
    if args.chart:
        print()
        print(ascii_chart(
            {n: r.service_time_series() for n, r in cmp.results.items()},
            title="avg service time per window (s)"))
    return 0


def cmd_cluster(args) -> int:
    from repro.cache import SizeClassConfig
    from repro.cluster import CacheCluster
    from repro.policies import make_policy
    from repro.sim.report import format_table
    from repro.sim.simulator import simulate

    trace = _trace_from_args(args)
    total = parse_size(args.cache_size)
    classes = SizeClassConfig(slab_size=parse_size(args.slab_size))
    node_counts = [int(n) for n in args.nodes.split(",")]
    rows = []
    for n in node_counts:
        if n <= 0 or total // n < classes.slab_size:
            print(f"skipping {n} nodes: per-node share below one slab",
                  file=sys.stderr)
            continue
        cluster = CacheCluster(
            [f"node{i}" for i in range(n)], capacity_bytes=total // n,
            policy_factory=lambda: make_policy(args.policy),
            size_classes=classes)
        result = simulate(trace, cluster, hit_time=args.hit_time,
                          window_gets=args.window)
        rows.append([n, fmt_bytes(total // n), result.hit_ratio,
                     fmt_seconds(result.avg_service_time)])
    print(f"policy={args.policy}, total memory={fmt_bytes(total)}")
    print(format_table(["nodes", "per_node", "hit_ratio", "avg_service"],
                       rows))
    return 0


def cmd_obs(args) -> int:
    from repro import obs

    if args.obs_command == "diff":
        import json
        with open(args.old) as fh:
            old = json.load(fh)
        with open(args.new) as fh:
            new = json.load(fh)
        print(obs.format_diff(obs.diff_snapshots(old, new)))
        return 0

    # obs dump: replay a trace with observability on, then export the
    # registry (and event-trace tail) as JSON and/or Prometheus text.
    from repro.sim.experiment import ExperimentSpec
    from repro.sim.report import tail_summary
    from repro.sim.service import ServiceTimeModel
    from repro.sim.simulator import Simulator

    if args.format == "both" and not args.out:
        raise SystemExit("--format both requires --out (used as a prefix)")
    registry = obs.enable(event_capacity=args.events)
    try:
        trace = _trace_from_args(args)
        spec = ExperimentSpec(name="obs-dump",
                              cache_bytes=parse_size(args.cache_size),
                              slab_size=parse_size(args.slab_size),
                              hit_time=args.hit_time,
                              window_gets=args.window)
        cache = spec.build_cache(args.policy)
        timeline = (obs.TimelineRecorder(stride=args.window)
                    if args.dump_dir else None)
        sim = Simulator(cache, ServiceTimeModel(hit_time=args.hit_time),
                        window_gets=args.window, timeline=timeline)
        result = sim.run(trace)
        cache.update_obs_gauges()
        meta = {"policy": args.policy, "requests": len(trace),
                "cache_bytes": spec.cache_bytes,
                "hit_ratio": result.hit_ratio,
                "avg_service_time": result.avg_service_time}
        events = obs.get_event_trace()
        if args.dump_dir:
            written = obs.write_dump(args.dump_dir, meta=meta,
                                     registry=registry, events=events,
                                     timeline=timeline)
            print(f"wrote dump directory {args.dump_dir} "
                  f"({len(written)} files)", file=sys.stderr)

        outputs: list[tuple[str, str]] = []  # (suffix, content)
        if args.format in ("json", "both"):
            outputs.append((".json", obs.to_json(registry, events=events,
                                                 meta=meta)))
        if args.format in ("prom", "both"):
            outputs.append((".prom", obs.to_prometheus(registry)))
        if args.out:
            for suffix, content in outputs:
                path = args.out if len(outputs) == 1 else args.out + suffix
                with open(path, "w") as fh:
                    fh.write(content)
                print(f"wrote {path}", file=sys.stderr)
            print(tail_summary({args.policy: result}), file=sys.stderr)
        else:
            for _suffix, content in outputs:
                print(content)
    finally:
        obs.disable()
    return 0


def cmd_chaos(args) -> int:
    from repro import obs
    from repro.faults import ResilienceConfig, run_scenario, scenario_names

    if args.list:
        for name in scenario_names():
            print(name)
        return 0
    if not args.scenario:
        print("chaos: a scenario name is required (or --list)",
              file=sys.stderr)
        return 2
    if args.scenario not in scenario_names():
        print(f"unknown scenario {args.scenario!r}; "
              f"choose from {scenario_names()}", file=sys.stderr)
        return 2
    policies = args.policies.split(",")
    for name in policies:
        if name not in POLICY_NAMES:
            print(f"unknown policy {name!r}; choose from {POLICY_NAMES}",
                  file=sys.stderr)
            return 2
    trace = _trace_from_args(args)
    resilience = ResilienceConfig(serve_stale=not args.no_stale)
    want_obs = bool(args.obs_out or args.dump_dir)
    registry = obs.Registry() if want_obs else None
    events = obs.EventTrace() if want_obs else None
    timeline = (obs.TimelineRecorder(stride=args.window)
                if args.dump_dir else None)
    tracer = None
    if args.dump_dir:
        # Default sampling spreads the retained traces across the whole
        # run (capacity/len uniform draws) instead of tracing every tick
        # and keeping only the final `capacity` — the fault windows in
        # the middle of a scenario are the traces worth keeping.
        sample = args.trace_sample
        if sample is None:
            sample = min(1.0, args.trace_capacity / max(len(trace), 1))
        tracer = obs.SpanTracer(sample=sample, seed=args.fault_seed,
                                capacity=args.trace_capacity)
    report = run_scenario(
        args.scenario, trace, policies=policies, node_count=args.nodes,
        capacity_bytes=parse_size(args.cache_size) // max(args.nodes, 1),
        slab_size=parse_size(args.slab_size), hit_time=args.hit_time,
        window_gets=args.window, seed=args.fault_seed,
        resilience=resilience, obs_registry=registry, obs_events=events,
        timeline=timeline, tracing=tracer)
    print(report.format())
    meta = {"scenario": args.scenario, "fault_seed": args.fault_seed,
            "policies": policies, "nodes": args.nodes,
            "requests": len(trace)}
    if args.obs_out:
        with open(args.obs_out, "w") as fh:
            fh.write(obs.to_json(registry, events=events, meta=meta))
        print(f"wrote obs snapshot to {args.obs_out}", file=sys.stderr)
    if args.dump_dir:
        written = obs.write_dump(args.dump_dir, meta=meta,
                                 registry=registry, events=events,
                                 timeline=timeline, tracer=tracer)
        print(f"wrote dump directory {args.dump_dir} "
              f"({len(written)} files)", file=sys.stderr)
    return 0


def cmd_tenancy(args) -> int:
    from repro.tenancy import SCENARIOS, run_scenario

    if args.list:
        for name, (_builder, desc) in sorted(SCENARIOS.items()):
            print(f"{name:<20} {desc}")
        return 0
    if not args.scenario:
        print("tenancy: a scenario name is required (or --list)",
              file=sys.stderr)
        return 2
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; "
              f"choose from {sorted(SCENARIOS)}", file=sys.stderr)
        return 2
    result = run_scenario(
        args.scenario, requests=args.requests, seed=args.seed,
        cache_bytes=parse_size(args.cache_size),
        slab_bytes=parse_size(args.slab_size), window_gets=args.window,
        scale=args.scale, steal_margin=args.steal_margin,
        dump_dir=args.dump_dir)
    print(result.report())
    if args.dump_dir:
        print(f"wrote dump directory {args.dump_dir}", file=sys.stderr)
    if args.check and result.improvement <= 0:
        print("tenancy: arbiter did not beat static partitioning "
              f"(improvement {result.improvement * 100:.2f}%)",
              file=sys.stderr)
        return 1
    return 0


def cmd_report(args) -> int:
    from repro.obs.report import render_report

    try:
        render_report(args.dump_dir, args.out, title=args.title)
    except (FileNotFoundError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.cache import SizeClassConfig
    from repro.policies import make_policy
    from repro.server.async_server import AsyncCacheServer
    from repro.server.shard import ShardSet

    classes = SizeClassConfig(slab_size=parse_size(args.slab_size))
    shards = ShardSet(parse_size(args.cache_size),
                      lambda: make_policy(args.policy), classes,
                      nshards=args.shards)

    async def serve() -> None:
        server = AsyncCacheServer(shards)
        await server.start(args.host, args.port)
        layout = (shards.shards[0].describe() if args.shards == 1 else
                  f"[{args.shards} shards] "
                  f"{shards.shards[0].describe()} per shard")
        print(f"serving {layout} on {args.host}:{server.port} "
              f"(ctrl-c to stop)", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_loadgen(args) -> int:
    from repro.server.loadgen import LoadgenConfig, run_loadgen_sync

    cfg = LoadgenConfig(connections=args.connections,
                        pipeline=args.pipeline, ops=args.ops,
                        get_ratio=args.get_ratio, keys=args.keys,
                        value_size=args.value_size,
                        hot_fraction=args.hot_fraction, seed=args.seed,
                        preload=not args.no_preload)
    handle = None
    host, port = args.host, args.port
    if args.spawn:
        # Self-hosted smoke mode: start a server in-process on an
        # ephemeral port, drive it, tear it down — one command, no
        # external server to manage (this is the CI smoke step).
        from repro.cache import SizeClassConfig
        from repro.policies import make_policy
        from repro.server.async_server import start_async_server
        from repro.server.shard import ShardSet

        shards = ShardSet(parse_size(args.cache_size),
                          lambda: make_policy(args.policy),
                          SizeClassConfig(
                              slab_size=parse_size(args.slab_size)),
                          nshards=args.shards)
        handle = start_async_server(shards)
        host, port = "127.0.0.1", handle.port
        print(f"spawned server on port {port}", file=sys.stderr)
    elif port is None:
        print("loadgen: --port is required (or use --spawn)",
              file=sys.stderr)
        return 2
    try:
        result = run_loadgen_sync(host, port, cfg)
    finally:
        if handle is not None:
            handle.stop()
    print(result.format())
    if args.min_ops_per_sec and result.ops_per_sec < args.min_ops_per_sec:
        print(f"loadgen: {result.ops_per_sec:,.0f} ops/s is below the "
              f"--min-ops-per-sec floor {args.min_ops_per_sec:,.0f}",
              file=sys.stderr)
        return 1
    if result.errors:
        print(f"loadgen: {result.errors} protocol errors", file=sys.stderr)
        return 1
    return 0


def cmd_profile(args) -> int:
    """Replay a synthetic trace under cProfile; print the hot spots.

    This is the methodology behind the hash-once hot-path work (see
    docs/performance.md): generate a deterministic trace, replay it
    in-process, and rank functions by cumulative time so a future change
    to the GET/SET path can be profiled with one command.
    """
    import cProfile
    import pstats

    from repro.cache import SlabCache, SizeClassConfig
    from repro.policies import make_policy
    from repro.sim.service import ServiceTimeModel
    from repro.sim.simulator import Simulator

    trace = _trace_from_args(args)
    kwargs = {}
    if args.policy in ("pama", "pre-pama"):
        kwargs["tracker"] = args.tracker
    shards = getattr(args, "replay_shards", 1)
    profiler = cProfile.Profile()
    if shards > 1:
        # Profile the sharded engine serially in-process (jobs=1):
        # subprocess workers would run outside the profiler.
        from repro.sim.experiment import ExperimentSpec
        from repro.sim.sharded import run_sharded

        spec = ExperimentSpec(name="profile",
                              cache_bytes=parse_size(args.cache_size),
                              slab_size=parse_size(args.slab_size),
                              hit_time=args.hit_time,
                              window_gets=args.window,
                              policy_kwargs={args.policy: kwargs})
        profiler.enable()
        result = run_sharded(trace, spec, args.policy, shards=shards,
                             jobs=1)
        profiler.disable()
    else:
        cache = SlabCache(parse_size(args.cache_size),
                          make_policy(args.policy, **kwargs),
                          SizeClassConfig(
                              slab_size=parse_size(args.slab_size)))
        sim = Simulator(cache, ServiceTimeModel(hit_time=args.hit_time),
                        window_gets=args.window)
        profiler.enable()
        result = sim.run(trace)
        profiler.disable()
    rate = len(trace) / result.elapsed_seconds if result.elapsed_seconds else 0
    tracker = f", {args.tracker} tracker" if kwargs else ""
    sharded = f", {shards} shards" if shards > 1 else ""
    print(f"replayed {len(trace)} requests under {args.policy}{tracker}"
          f"{sharded}: hit ratio {result.hit_ratio:.4f}, "
          f"{rate:,.0f} ops/s (with profiler overhead)")
    print()
    pstats.Stats(profiler).sort_stats(args.sort).print_stats(args.top)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-kv",
        description="PAMA key-value cache reproduction toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("generate", help="synthesize a workload trace")
    g.add_argument("--workload", default="etc")
    g.add_argument("--requests", type=int, default=500_000)
    g.add_argument("--scale", type=float, default=0.2)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output .npz or .csv path")
    g.set_defaults(func=cmd_generate)

    t = subs.add_parser("trace", help="compiled-trace tooling")
    tsubs = t.add_subparsers(dest="trace_command", required=True)
    tc = tsubs.add_parser(
        "compile",
        help="pack a trace into the mmap-able columnar format "
             "(streams chunk-by-chunk; never holds the whole trace)")
    tc.add_argument("--trace",
                    help="source .npz/.csv trace; otherwise synthesize")
    tc.add_argument("--workload", default="etc",
                    help="workload profile to synthesize (incl. the "
                         "Table V zoo)")
    tc.add_argument("--requests", type=int, default=1_000_000)
    tc.add_argument("--scale", type=float, default=1.0,
                    help="key-universe scale factor for synthesis")
    tc.add_argument("--seed", type=int, default=0)
    tc.add_argument("--chunk", type=int, default=1 << 20,
                    help="rows generated/written per chunk")
    tc.add_argument("--out", required=True,
                    help="output directory (e.g. etc.ctrc)")
    tc.set_defaults(func=cmd_trace_compile)
    ti = tsubs.add_parser("info", help="summarize a compiled trace")
    ti.add_argument("path", help="compiled trace directory")
    ti.set_defaults(func=cmd_trace_info)

    a = subs.add_parser("analyze", help="summarize a trace file")
    a.add_argument("trace")
    a.set_defaults(func=cmd_analyze)

    s = subs.add_parser("simulate", help="replay under one policy")
    _add_trace_args(s)
    _add_cache_args(s)
    _add_jobs_arg(s)
    s.add_argument("--policy", default="pama", choices=POLICY_NAMES)
    s.add_argument("--replay-shards", type=int, default=1,
                   help="partition the single replay over N key shards "
                        "(repro.sim.sharded; capacity splits evenly, "
                        ">1 is the server's sharding approximation)")
    s.add_argument("--chart", action="store_true", help="ASCII chart output")
    s.add_argument("--tenants",
                   help="comma-separated workload profiles (e.g. etc,app) "
                        "to interleave into one tenant-tagged trace and "
                        "replay under the tenant arbiter; ignores --policy")
    s.add_argument("--reserve", type=float, default=0.0,
                   help="(--tenants only) guaranteed slab reserve per "
                        "tenant as a fraction of total slabs")
    s.set_defaults(func=cmd_simulate)

    c = subs.add_parser("compare", help="replay under several policies")
    _add_trace_args(c)
    _add_cache_args(c)
    _add_jobs_arg(c)
    c.add_argument("--policies", default="memcached,psa,pre-pama,pama")
    c.add_argument("--chart", action="store_true")
    c.add_argument("--verbose", action="store_true")
    c.set_defaults(func=cmd_compare)

    k = subs.add_parser("cluster", help="replay against multi-node clusters")
    _add_trace_args(k)
    _add_cache_args(k)
    k.add_argument("--policy", default="pama", choices=POLICY_NAMES)
    k.add_argument("--nodes", default="1,2,4",
                   help="comma-separated node counts to compare")
    k.set_defaults(func=cmd_cluster)

    o = subs.add_parser("obs", help="observability snapshots (dump/diff)")
    osubs = o.add_subparsers(dest="obs_command", required=True)
    od = osubs.add_parser(
        "dump", help="replay a trace with obs on; dump the registry")
    _add_trace_args(od)
    _add_cache_args(od)
    od.add_argument("--policy", default="pama", choices=POLICY_NAMES)
    od.add_argument("--format", default="json",
                    choices=["json", "prom", "both"],
                    help="snapshot format ('both' needs --out as a prefix)")
    od.add_argument("--events", type=int, default=4096,
                    help="event ring-buffer capacity")
    od.add_argument("--out", help="output path (prefix with --format both); "
                                  "default prints to stdout")
    od.add_argument("--dump-dir",
                    help="also record a windowed timeline and write a "
                         "report-renderable dump directory here")
    od.set_defaults(func=cmd_obs)
    of = osubs.add_parser("diff", help="delta between two JSON snapshots")
    of.add_argument("old")
    of.add_argument("new")
    of.set_defaults(func=cmd_obs)

    x = subs.add_parser(
        "chaos",
        help="run a named fault scenario and report resilience deltas")
    x.add_argument("scenario", nargs="?",
                   help="scenario name (see --list), e.g. backend-brownout")
    x.add_argument("--list", action="store_true",
                   help="list available scenarios and exit")
    _add_trace_args(x)
    _add_cache_args(x)
    x.add_argument("--policies", default="pre-pama,pama",
                   help="comma-separated policies to compare under faults")
    x.add_argument("--nodes", type=int, default=2,
                   help="cluster node count (--cache-size is the total)")
    x.add_argument("--fault-seed", type=int, default=0,
                   help="seed of the fault plan's RNG (identical seeds "
                        "replay identical fault trajectories)")
    x.add_argument("--no-stale", action="store_true",
                   help="disable serve-stale degradation on backend errors")
    x.add_argument("--obs-out",
                   help="also write the faulted runs' obs registry "
                        "(fault/retry/breaker counters) as JSON")
    x.add_argument("--dump-dir",
                   help="record a timeline + span traces for the first "
                        "policy's faulted run; write a dump directory "
                        "`repro-kv report` can render")
    x.add_argument("--trace-sample", type=float, default=None,
                   help="fraction of ticks span-traced (deterministic in "
                        "--fault-seed); default spreads --trace-capacity "
                        "traces across the run")
    x.add_argument("--trace-capacity", type=int, default=1024,
                   help="finished span traces retained (oldest drop off)")
    x.set_defaults(func=cmd_chaos)

    tn = subs.add_parser(
        "tenancy",
        help="multi-tenant scenarios: penalty-aware arbiter vs static "
             "partitioning")
    tn.add_argument("scenario", nargs="?",
                    help="scenario name (see --list), e.g. noisy-neighbor")
    tn.add_argument("--list", action="store_true",
                    help="list available scenarios and exit")
    tn.add_argument("--requests", type=int, default=60_000)
    tn.add_argument("--seed", type=int, default=7)
    tn.add_argument("--scale", type=float, default=0.05,
                    help="key-universe scale factor per tenant profile")
    tn.add_argument("--cache-size", default="8MiB")
    tn.add_argument("--slab-size", default="64KiB")
    tn.add_argument("--window", type=int, default=10_000,
                    help="GETs per metrics window")
    tn.add_argument("--steal-margin", type=float, default=1.0,
                    help="cross-tenant steal threshold multiplier "
                         "(>1 = more conservative stealing)")
    tn.add_argument("--dump-dir",
                    help="write the arbiter run's per-tenant timeline as "
                         "a dump directory `repro-kv report` can render")
    tn.add_argument("--check", action="store_true",
                    help="exit 1 unless the arbiter beats static "
                         "partitioning on total weighted service time")
    tn.set_defaults(func=cmd_tenancy)

    r = subs.add_parser(
        "report",
        help="render a dump directory as a self-contained HTML report")
    r.add_argument("dump_dir", help="directory written by --dump-dir")
    r.add_argument("--out", default="report.html", help="output HTML path")
    r.add_argument("--title", help="report title")
    r.set_defaults(func=cmd_report)

    pr = subs.add_parser(
        "profile",
        help="replay a synthetic trace under cProfile; print hot spots")
    _add_trace_args(pr)
    _add_cache_args(pr)
    pr.add_argument("--policy", default="pama", choices=POLICY_NAMES)
    pr.add_argument("--tracker", default="bloom",
                    choices=["exact", "bloom"],
                    help="PAMA segment tracker (pama/pre-pama only)")
    pr.add_argument("--replay-shards", type=int, default=1,
                    help="profile the key-sharded replay engine with N "
                         "shards (run serially in-process so the "
                         "profiler sees the workers)")
    pr.add_argument("--top", type=int, default=20,
                    help="how many functions to print")
    pr.add_argument("--sort", default="cumulative",
                    choices=["cumulative", "tottime", "calls"])
    pr.set_defaults(func=cmd_profile)

    v = subs.add_parser("serve", help="run the memcached-protocol server")
    v.add_argument("--host", default="127.0.0.1")
    v.add_argument("--port", type=int, default=11311)
    v.add_argument("--cache-size", default="64MiB")
    v.add_argument("--slab-size", default="1MiB")
    v.add_argument("--policy", default="pama", choices=POLICY_NAMES)
    v.add_argument("--shards", type=int, default=1,
                   help="hash-partitioned caches of the server "
                        "(one event loop serves them all: more than one "
                        "is the layout of a process-per-shard "
                        "deployment, not a speed-up)")
    v.set_defaults(func=cmd_serve)

    lg = subs.add_parser(
        "loadgen",
        help="memtier-style load generator for the protocol server")
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, default=None,
                    help="target port (omit with --spawn)")
    lg.add_argument("--spawn", action="store_true",
                    help="self-host a server in-process on an ephemeral "
                         "port for the duration of the run")
    lg.add_argument("--connections", type=int, default=64)
    lg.add_argument("--pipeline", type=int, default=8,
                    help="requests kept on the wire per connection")
    lg.add_argument("--ops", type=int, default=50_000)
    lg.add_argument("--get-ratio", type=float, default=0.9,
                    help="fraction of ops that are GETs")
    lg.add_argument("--keys", type=int, default=10_000,
                    help="key-universe size")
    lg.add_argument("--value-size", type=int, default=64)
    lg.add_argument("--hot-fraction", type=float, default=0.0,
                    help="fraction of ops aimed at the hot 10%% of keys")
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--no-preload", action="store_true",
                    help="skip SETting the key universe before measuring")
    lg.add_argument("--min-ops-per-sec", type=float, default=0.0,
                    help="exit 1 below this throughput floor")
    lg.add_argument("--cache-size", default="64MiB",
                    help="(--spawn only) server cache memory")
    lg.add_argument("--slab-size", default="1MiB",
                    help="(--spawn only) server slab size")
    lg.add_argument("--policy", default="pama", choices=POLICY_NAMES,
                    help="(--spawn only) server allocation policy")
    lg.add_argument("--shards", type=int, default=1,
                    help="(--spawn only) shard count")
    lg.set_defaults(func=cmd_loadgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
