"""Trace-driven simulation, metrics, experiments, and reporting."""

from repro.sim.derive import (class_index_array, derived_rows,
                              hash_key_array, hash_pair_arrays,
                              penalty_bin_array)
from repro.sim.experiment import (ComparisonResult, ExperimentSpec,
                                  run_comparison, sweep_cache_sizes)
from repro.sim.metrics import MetricsCollector, WindowStats
from repro.sim.parallel import (GridFailure, GridResult, GridTask,
                                default_jobs, run_grid, size_specs)
from repro.sim.report import (ascii_chart, comparison_summary, format_table,
                              series_csv)
from repro.sim.service import ServiceTimeModel
from repro.sim.simulator import SimulationResult, Simulator, simulate

__all__ = [
    "Simulator", "SimulationResult", "simulate",
    "ServiceTimeModel",
    "MetricsCollector", "WindowStats",
    "ExperimentSpec", "ComparisonResult", "run_comparison",
    "sweep_cache_sizes",
    "run_grid", "GridTask", "GridResult", "GridFailure",
    "default_jobs", "size_specs",
    "class_index_array", "penalty_bin_array", "derived_rows",
    "hash_key_array", "hash_pair_arrays",
    "format_table", "series_csv", "ascii_chart", "comparison_summary",
]
