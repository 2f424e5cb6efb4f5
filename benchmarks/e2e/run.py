"""End-to-end benchmark of the PAMA reproduction: one command that
generates inputs from a seed, runs a workload in a fresh child process,
checks its outputs and prints every metric by name with its unit.

    python benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds N]
                                 [--trace 0|1] [--quick]

The metric and workload names, units and bounds live in
``BENCHMARK.json`` at the repository root, which this command reads;
``README.md`` beside this file defines every one of them.  The last
line of standard output is one JSON object per workload run:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import spans as span_files
from timebase import SAMPLES_BEYOND
from workloads import (CLI_ROWS, PROBE_ROWS, PROBE_WARM_CAP,
                       PROTOCOL_PROBE_ROWS, SERVE_PROBE_ROWS,
                       SERVE_PROBE_WARM, WINDOW, WORKLOADS, cache_spec,
                       compile_rows, plan_rows)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 170


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONHASHSEED="0",
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_child(tmp: str, label: str, cfg: dict) -> dict:
    """Run one job in a fresh worker process; returns its result."""
    cfg_path = os.path.join(tmp, label + ".json")
    cfg["result"] = os.path.join(tmp, label + ".result.json")
    cfg["spawn_t"] = time.monotonic()
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), cfg_path],
                   env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
    with open(cfg["result"]) as fh:
        return json.load(fh)


def build_inputs(w, seed: int, seconds: float, quick: bool, traced: bool,
                 tmp: str) -> dict:
    """Generate the workload's inputs from the seed, in this (parent)
    process: the measured children only ever open files."""
    from repro.traces import compile_trace

    trace_rows, warm = plan_rows(w, seconds, quick)
    started = time.perf_counter()
    ct = compile_rows(w, trace_rows, os.path.join(tmp, "trace.ctrc"), seed)
    inputs = {"trace": ct.path, "rows": trace_rows, "warm_rows": warm,
              "compile_rows_per_s":
                  trace_rows / (time.perf_counter() - started)}
    if traced:
        shrink = 10 if quick else 1
        # layer probes: three timed rounds around the middle of the
        # measured phase, every row before them (up to a cap) as warm-up,
        # so the probes' caches are in the state the workload's is there
        first = warm % trace_rows          # 0 when a whole pass warms up
        timed = min(PROBE_ROWS // shrink, trace_rows - first) \
            // WINDOW * WINDOW
        start = (first + (trace_rows - first - timed) // 2) // WINDOW * WINDOW
        lo = max(0, start - PROBE_WARM_CAP // shrink)
        inputs["probe_warm_rows"] = start - lo
        inputs["probe_trace"] = compile_trace(
            ct.slice(lo, start + timed), os.path.join(tmp, "probe.ctrc")).path
        inputs["cli_trace"] = compile_trace(
            ct.slice(0, min(CLI_ROWS // shrink, trace_rows)),
            os.path.join(tmp, "cli.ctrc")).path
        inputs["protocol_rows"] = min(PROTOCOL_PROBE_ROWS // shrink,
                                      trace_rows)
        inputs["serve_rows"] = min(SERVE_PROBE_ROWS // shrink, trace_rows)
        inputs["serve_warm"] = min(SERVE_PROBE_WARM // shrink,
                                   inputs["serve_rows"] // 2)
    return inputs


def run_cli_simulate(spec: dict, cli_trace: str) -> tuple[float, str]:
    """Wall clock of ``repro.cli simulate`` as a user runs it, and the
    hit ratio it prints."""
    cmd = [sys.executable, "-m", "repro.cli", "simulate", "--trace", cli_trace,
           "--policy", spec["policy"],
           "--cache-size", str(spec["cache_bytes"]),
           "--slab-size", str(spec["slab_size"])]
    started = time.perf_counter()
    done = subprocess.run(cmd, env=child_env(), check=True, text=True,
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - started
    printed = [line.split()[-1] for line in done.stdout.splitlines()
               if line.startswith("hit ratio")]
    return wall, printed[0] if printed else ""


def check_goldens(name: str, seed: int, seconds: float, quick: bool,
                  golden: dict, update: bool) -> list[str]:
    """Replay results for the default seed and length equal the
    committed goldens ``==``-exactly."""
    path = os.path.join(HERE, "goldens.json")
    with open(path) as fh:
        doc = json.load(fh)
    if quick or (seed, seconds) != (doc["seed"], doc["seconds"]):
        return []
    if update:
        doc["workloads"][name] = golden
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return []
    want = doc["workloads"].get(name)
    if want != golden:
        return [f"golden mismatch: got {golden}, committed {want}"]
    return []


def run_workload(name: str, args) -> dict:
    """Everything for one workload: inputs, the untraced run, and with
    ``--trace 1`` the traced run, layer probes, CLI comparison and the
    serving-side passes."""
    w = WORKLOADS[name]
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}-{name}")
    os.makedirs(tmp)
    try:
        inputs = build_inputs(w, args.seed, args.seconds, args.quick,
                              bool(args.trace), tmp)
        job = {"job": w.kind, "traced": False, "trace": inputs["trace"],
               "rows": inputs["rows"], "warm_rows": inputs["warm_rows"],
               "spec": cache_spec(w)}
        base = run_child(tmp, "main", dict(job))
        errors = list(base["errors"])
        if "golden" in base:
            errors += check_goldens(name, args.seed, args.seconds, args.quick,
                                    base["golden"], args.update_goldens)
        if base.get("timing", {}).get("supported_pct", 95.0) < 95.0:
            print(f"note [{name}]: {base['timing']['batches']} batches leave "
                  f"fewer than {SAMPLES_BEYOND} samples beyond p95")
        report = {"name": name, "errors": errors,
                  "attempted": base["attempted"], "failed": base["failed"],
                  "e2e": base.get("e2e", {}), "layers": {}}
        if args.trace and not errors:
            report["layers"] = traced_passes(w, job, inputs, base, tmp,
                                             args, errors)
        return report
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced_passes(w, job: dict, inputs: dict, base: dict, tmp: str, args,
                  errors: list[str]) -> dict[str, float]:
    """The per-layer numbers of one workload (see README, "Layers")."""
    traced = run_child(tmp, "traced", dict(job, traced=True))
    probes = run_child(tmp, "probes", dict(
        job, job="probes", traced=True, probe_trace=inputs["probe_trace"],
        probe_warm_rows=inputs["probe_warm_rows"],
        cli_trace=inputs["cli_trace"], protocol_rows=inputs["protocol_rows"]))
    cli_wall, cli_hit = run_cli_simulate(job["spec"], inputs["cli_trace"])
    small = dict(job, job="serve", traced=True, rows=inputs["serve_rows"],
                 warm_rows=inputs["serve_warm"])
    serve = traced if w.kind == "serve" else run_child(tmp, "serve", small)
    echo = run_child(tmp, "echo", dict(small, echo=True))
    jobs = {"main": traced, "probes": probes, "serve": serve, "echo": echo}
    for label, result in jobs.items():
        errors += [f"{label}: {e}" for e in result["errors"]]
    if f"{probes['cli']['hit_ratio']:.4f}" != cli_hit:
        errors.append(f"repro.cli simulate printed hit ratio {cli_hit!r}, "
                      f"the same replay in the worker got "
                      f"{probes['cli']['hit_ratio']:.4f}")
    if errors:
        return {}

    layers = dict(probes["layers"])
    layers.update(serve["layers"])
    layers.update(traced["layers"])   # the workload's own pass wins
    layers["server.evictions_per_kop"] = \
        serve["layers"]["cache.evictions_per_kop"]
    layers["server.migrations_per_kop"] = \
        serve["layers"]["cache.migrations_per_kop"]
    layers["driver.self_us_per_op"] = echo["layers"]["driver.self_us_per_op"]
    layers["server.io_us_per_op"] = serve["e2e"]["cpu_us_per_op"] - (
        layers["protocol.decode_ns_per_op"]
        + layers["shard.dispatch_ns_per_op"]
        + layers["protocol.format_ns_per_op"]) / 1e3
    # what the ladder does not explain: the replay it describes (the
    # workload's own, or for serving the CLI-parity one) minus its sum
    replay_ns = (1e9 / base["e2e"]["ops_per_s"] if w.kind == "replay"
                 else probes["cli"]["ns_per_op"])
    layers["sim.glue_ns_per_op"] = replay_ns - layers["sim.run_ns_per_op"]
    layers["cli.simulate_overhead_s"] = cli_wall - probes["cli"]["wall_s"]
    layers["traces.compile_rows_per_s"] = inputs["compile_rows_per_s"]
    layers["bench.trace_overhead_ratio"] = (traced["e2e"]["ops_per_s"]
                                            / base["e2e"]["ops_per_s"])
    layers["host.nproc"] = os.cpu_count()
    layers["host.pinned"] = min(result["pinned"]
                                for result in (base, *jobs.values()))

    span_files.write(
        os.path.join(OUT, f"trace-{w.name}.json"),
        {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
         "quick": args.quick, "layers": layers, "timing": traced["timing"]},
        span_files.merge_jobs({label: result["spans"]
                               for label, result in jobs.items()}))
    return layers


def print_table(reports: list[dict], section: str, metrics: list[dict]) -> None:
    """Metrics as rows, workloads as columns."""
    names = [r["name"] for r in reports]
    width = max(len(m["name"]) for m in metrics)
    print(f"{section:<{width}}  {'unit':<6}" + "".join(
        f"  {n:>21}" for n in names))
    for m in metrics:
        cells = []
        for r in reports:
            value = r[section].get(m["name"])
            cells.append(f"  {'-':>21}" if value is None
                         else f"  {value:>21.6g}")
        print(f"{m['name']:<{width}}  {m['unit']:<6}" + "".join(cells))
    print()


def contract_line(report: dict, section: str, metrics: list[dict]) -> str:
    values = report[section]
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing and not report["errors"]:
        report["errors"].append(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": not report["errors"] and report["failed"] == 0,
        "attempted": report["attempted"], "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics if m["name"] in values}})


def main(argv: list[str] | None = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"{SRC}/repro not found: the benchmark measures the program "
                 f"in this repository and cannot run without it")
    sys.path.insert(0, SRC)
    contract = load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="length of the measured phase on the reference "
                             "host; row counts are a fixed function of it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run the traced pass and the layer "
                             "probes, report the per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="10x fewer rows; never comparable")
    parser.add_argument("--update-goldens", action="store_true",
                        help="rewrite goldens.json from this run")
    args = parser.parse_args(argv)

    names = [args.workload] if args.workload else list(WORKLOADS)
    reports = [run_workload(name, args) for name in names]
    section, metrics = (("layers", contract["per_layer"]) if args.trace
                        else ("e2e", contract["end_to_end"]))
    print(json.dumps({"quick": args.quick, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace}))
    print_table(reports, "e2e", contract["end_to_end"])
    if args.trace:
        print_table(reports, "layers", contract["per_layer"])
    lines = [contract_line(r, section, metrics) for r in reports]
    for report in reports:
        for error in report["errors"]:
            print(f"CHECK FAILED [{report['name']}]: {error}")
    print("\n".join(lines))
    return 1 if any(r["errors"] or r["failed"] for r in reports) else 0


if __name__ == "__main__":
    sys.exit(main())
