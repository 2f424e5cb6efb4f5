"""The four workloads and how their row counts follow ``--seconds``.

Row counts are fixed functions of ``(seconds, quick)``: ``rate`` is the
reference host's throughput on the workload, so ``rate * seconds`` rows
take about ``seconds`` there, and the same arguments always replay the
same rows (``hit_ratio`` and ``avg_service_ms`` repeat bit for bit).
"""

from __future__ import annotations

from dataclasses import dataclass

WINDOW = 2048  # rows per replay batch (one trace window)
MIB = 1 << 20
#: the server under test: ``repro.cli serve`` with these two flags only.
SERVE_POLICY = "pama"
SERVE_CACHE_BYTES = 128 * MIB


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "replay" or "serve"
    profile: str         # zoo profile name
    scale: float         # key-universe scale
    rate: float          # reference-host rows/s, sizes the measured phase
    warm_rows: int       # warm-up rows (part of setup_s); 0 = one pass
    passes: int = 1      # passes over the compiled trace
    # the replayed cache; a serving workload has none of its own, its
    # server builds one from the ``serve`` command's defaults
    policy: str = ""
    tracker: str = ""    # "bloom" / "exact" ("" for non-pama policies)
    cache_bytes: int = 0
    slab_size: int = 0
    obs: bool = False    # Registry + TimelineRecorder attached


WORKLOADS = {w.name: w for w in (
    Workload(
        name="replay-miss-pama", kind="replay",
        profile="twitter-cache", scale=1.0, rate=280_000, warm_rows=700_000,
        passes=1, policy="pama", tracker="exact",
        cache_bytes=16 * MIB, slab_size=64 * 1024),
    Workload(
        name="replay-fit-memcached", kind="replay",
        profile="etc", scale=1.0, rate=430_000, warm_rows=0,
        passes=4, policy="memcached", tracker="",
        cache_bytes=1024 * MIB, slab_size=64 * 1024),
    Workload(
        name="replay-write-obs", kind="replay",
        profile="rtdata", scale=1.0, rate=86_000, warm_rows=500_000,
        passes=1, policy="pama", tracker="exact",
        cache_bytes=32 * MIB, slab_size=64 * 1024, obs=True),
    Workload(
        name="serve-miss-mixed", kind="serve",
        profile="zippydb", scale=0.1, rate=23_500, warm_rows=80_000),
)}


def cache_spec(w: Workload) -> dict:
    """What a replay of the workload's rows builds its cache from.  For
    the serving workload that is the server's cache seen as one
    ``SlabCache``: the two flags the server is started with, everything
    else the program's own defaults."""
    if w.kind == "replay":
        return {"policy": w.policy, "tracker": w.tracker,
                "cache_bytes": w.cache_bytes, "slab_size": w.slab_size,
                "obs": w.obs, "passes": w.passes}
    from repro._util import parse_size
    from repro.cli import build_parser
    from repro.core.config import PamaConfig

    defaults = build_parser().parse_args(["serve"])
    return {"policy": SERVE_POLICY, "tracker": PamaConfig().tracker,
            "cache_bytes": SERVE_CACHE_BYTES,
            "slab_size": parse_size(defaults.slab_size),
            "obs": False, "passes": 1}


#: seed of the key population; ``--seed`` draws the requests.
POPULATION_SEED = 2015
SEED_SPAN = 1 << 30
COMPILE_CHUNK = 1 << 20


def compile_rows(w: Workload, rows: int, out: str, seed: int):
    """Compile ``rows`` requests of the workload's profile to ``out``.

    ``seed`` draws the request sequence — which key, which operation,
    when.  The key *population* — the size and the penalty of each key
    id — is the same for every seed.  With the generator's own per-seed
    attributes the few keys at the head of the Zipf curve change size
    class and penalty bin with the seed, and every seed is a different
    workload (``replay-miss-pama`` average service times of 18.5-23.8 ms
    over seeds 1-8).  With the population held fixed what is left is the
    sampling of requests: about 1% on ``avg_service_ms`` between seeds.

    Any integer is a seed: it is folded into ``[0, SEED_SPAN)``, the
    range the generator's cold-key numbering (``seed << 32`` in an
    ``int64``) and NumPy's ``SeedSequence`` accept.
    """
    from repro.traces import Trace, compile_trace, get_profile
    from repro.traces.synthetic import SyntheticTraceGenerator, sample_sizes

    profile = get_profile(w.profile)
    if w.scale != 1.0:
        profile = profile.scaled(w.scale)
    requests = SyntheticTraceGenerator(profile, seed=seed % SEED_SPAN)
    penalties = SyntheticTraceGenerator(
        profile, seed=POPULATION_SEED).penalty_model

    def chunks():
        for pos in range(0, rows, COMPILE_CHUNK):
            t = requests.generate(min(COMPILE_CHUNK, rows - pos),
                                  start_position=pos)
            key_sizes = sample_sizes(profile.key_sizes, t.keys,
                                     POPULATION_SEED)
            value_sizes = sample_sizes(profile.value_sizes, t.keys,
                                       POPULATION_SEED + 1)
            yield Trace(t.ops, t.keys, key_sizes, value_sizes,
                        penalties.penalties_for(t.keys,
                                                key_sizes + value_sizes),
                        t.timestamps)

    return compile_trace(chunks(), out, meta={
        "workload": w.name, "profile": w.profile, "seed": seed, "n": rows})


#: rows the CLI-parity replay and the replay-workload serve pass use.
CLI_ROWS = 500_000
SERVE_PROBE_ROWS = 40_000
SERVE_PROBE_WARM = 10_000
#: rows of a layer probe's three timed rounds, and the most rows before
#: them that it replays as warm-up.
PROBE_ROWS = 200_000
PROBE_WARM_CAP = 500_000
PROTOCOL_PROBE_ROWS = 100_000


def plan_rows(w: Workload, seconds: float, quick: bool) -> tuple[int, int]:
    """``(trace_rows, warm_rows)`` for one run.

    Both are whole windows.  ``warm_rows == 0`` in the spec means the
    first of ``passes`` passes is the warm-up.
    """
    shrink = 10 if quick else 1
    measured = max(1, round(w.rate * seconds / shrink / WINDOW)) * WINDOW
    if w.warm_rows == 0:
        trace_rows = max(1, measured // (w.passes - 1) // WINDOW) * WINDOW
        return trace_rows, trace_rows
    warm = max(1, w.warm_rows // shrink // WINDOW) * WINDOW
    return warm + measured, warm
