"""Trace substrate: synthetic Facebook-like workloads, penalties, I/O."""

from repro.traces.burst import inject_burst
from repro.traces.compile import (FORMAT_V1, FORMAT_V2, CompiledTrace,
                                  CompiledTraceWriter, compile_csv,
                                  compile_synthetic, compile_trace,
                                  is_compiled_trace)
from repro.traces.io import (TraceMetaWarning, from_requests,
                             iter_request_chunks, iter_csv, load_csv,
                             load_npz, save_csv, save_npz)
from repro.traces.penalty import PenaltyModel, infer_penalties
from repro.traces.record import (TENANT_COLUMN, TRACE_COLUMNS,
                                 TRACE_COLUMNS_V2, Op, Request, Trace)
from repro.traces.stats import TraceStats, analyze, penalty_by_size_decade
from repro.traces.synthetic import SyntheticTraceGenerator, generate, zipf_cdf
from repro.traces.twitter import load_twitter
from repro.traces.workloads import (APP, DEDUP, ETC, PROFILES, RTDATA, SYS,
                                    TWITTER_CACHE, TWITTER_CACHE15, UDB, USR,
                                    VAR, ZIPPYDB, SizeMixture,
                                    WorkloadProfile, get_profile)

__all__ = [
    "Op", "Request", "Trace",
    "WorkloadProfile", "SizeMixture", "get_profile", "PROFILES",
    "ETC", "APP", "USR", "SYS", "VAR",
    "TWITTER_CACHE", "TWITTER_CACHE15", "ZIPPYDB", "UDB", "RTDATA", "DEDUP",
    "SyntheticTraceGenerator", "generate", "zipf_cdf",
    "PenaltyModel", "infer_penalties",
    "inject_burst",
    "analyze", "TraceStats", "penalty_by_size_decade",
    "save_npz", "load_npz", "save_csv", "load_csv", "iter_csv",
    "from_requests", "iter_request_chunks", "TraceMetaWarning",
    "load_twitter",
    "CompiledTrace", "CompiledTraceWriter", "compile_trace",
    "compile_csv", "compile_synthetic", "is_compiled_trace",
    "FORMAT_V1", "FORMAT_V2",
    "TENANT_COLUMN", "TRACE_COLUMNS", "TRACE_COLUMNS_V2",
]
