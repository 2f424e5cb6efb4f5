"""Parallel experiment engine: fan a (spec × policy) grid over cores.

Every evaluation figure is "replay one trace under several (policy,
cache size) combinations" — embarrassingly parallel.  :func:`run_grid`
is the one engine under all of them:

* the task list is the cross product of ``specs`` × ``policies`` in
  declaration order, and the merged result is keyed in that order no
  matter which worker finishes first (deterministic merges);
* ``jobs=1`` replays serially in-process — the exact code path the old
  serial runner used, so results are bit-identical to the seed;
* ``jobs>1`` runs tasks on a process pool and ships the trace by
  path: a :class:`~repro.traces.compile.CompiledTrace` pickles as its
  directory, and an in-memory trace is compiled once into a temporary
  directory, removed however the pool ends.  Every worker mmaps the
  same column files (one physical copy in the page cache), and each
  cell replays through the simulator's streaming window iterator in
  bounded memory;
* a task that raises (or a worker that dies) is recorded as a
  :class:`GridFailure` on the merged result — the rest of the sweep
  still completes and is returned.

Oracle policies carry the trace inside ``spec.policy_kwargs``; that
payload is pickled whole per task, so run those grids with ``jobs=1``.
"""

from __future__ import annotations

import os
import tempfile
import traceback
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import (BrokenProcessPool,
                                        ProcessPoolExecutor)
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro._util import fmt_bytes
from repro.sim.experiment import ComparisonResult, ExperimentSpec
from repro.sim.simulator import SimulationResult, simulate


@dataclass(frozen=True)
class GridTask:
    """One cell of the experiment grid."""

    index: int
    spec: ExperimentSpec
    policy: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.spec.name, self.policy)


@dataclass(frozen=True)
class GridFailure:
    """A task that did not produce a result (the sweep survives it)."""

    spec_name: str
    policy: str
    error: str
    traceback: str = ""

    def __str__(self) -> str:
        return f"({self.spec_name}, {self.policy}): {self.error}"


@dataclass
class GridResult:
    """Deterministically merged output of one :func:`run_grid` call.

    ``results`` and ``failures`` are keyed by ``(spec.name, policy)``
    in task-declaration order, independent of completion order.
    """

    tasks: list[GridTask]
    results: dict[tuple[str, str], SimulationResult]
    failures: dict[tuple[str, str], GridFailure] = field(default_factory=dict)
    jobs: int = 1
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_failures(self) -> None:
        """Escalate recorded failures for callers that need all cells."""
        if self.failures:
            lines = "; ".join(str(f) for f in self.failures.values())
            raise RuntimeError(f"{len(self.failures)} grid task(s) failed: "
                               f"{lines}")

    def comparison(self, spec: ExperimentSpec) -> ComparisonResult:
        """The one-spec view the serial API returned (completed cells)."""
        return ComparisonResult(spec, {
            t.policy: self.results[t.key] for t in self.tasks
            if t.spec.name == spec.name and t.key in self.results})

    def comparisons(self) -> dict[str, ComparisonResult]:
        """Per-spec comparison views, keyed by spec name in grid order."""
        specs: dict[str, ExperimentSpec] = {}
        for t in self.tasks:
            specs.setdefault(t.spec.name, t.spec)
        return {name: self.comparison(spec) for name, spec in specs.items()}


def default_jobs() -> int:
    """Leave one core for the parent; at least one worker."""
    return max(1, (os.cpu_count() or 2) - 1)


def _run_one(trace, spec: ExperimentSpec,
             policy: str) -> SimulationResult:
    """One grid cell — the exact replay the serial runner performs.

    ``trace`` is any :func:`repro.sim.simulator.simulate` source (an
    in-memory trace, or a streaming compiled trace; a pool task gets
    the latter, re-opened from its path).  The cell's cache is closed
    once its result is taken, so reference counting frees it before the
    next cell builds one (a cache is full of reference cycles, and a
    replay runs with the cyclic collector paused).
    """
    cache = spec.build_cache(policy)
    try:
        return simulate(trace, cache, hit_time=spec.hit_time,
                        window_gets=spec.window_gets,
                        fill_on_miss=spec.fill_on_miss)
    finally:
        cache.close()


def _build_tasks(specs: list[ExperimentSpec],
                 policies: list[str]) -> list[GridTask]:
    tasks = [GridTask(i * len(policies) + j, spec, policy)
             for i, spec in enumerate(specs)
             for j, policy in enumerate(policies)]
    seen: set[tuple[str, str]] = set()
    for t in tasks:
        if t.key in seen:
            raise ValueError(f"duplicate grid cell {t.key}; "
                             "spec names must be unique")
        seen.add(t.key)
    return tasks


def run_grid(trace, specs: list[ExperimentSpec],
             policies: list[str], jobs: int | None = 1,
             progress=None) -> GridResult:
    """Replay ``trace`` under every (spec, policy) combination.

    Args:
        trace: the workload to replay (shared across all cells) — a
            :class:`Trace`, or a
            :class:`~repro.traces.compile.CompiledTrace` whose cells
            stream windows from the mmap (no whole-trace
            materialization in any process).
        specs: experiment definitions; ``spec.name`` must be unique.
        policies: policy names, instantiated fresh per cell.
        jobs: worker processes; ``1`` (default) runs serially in-process
            and is bit-identical to the pre-parallel runner, ``None``
            means :func:`default_jobs`.
        progress: optional callback ``progress(task, result, failure)``
            invoked once per finished cell (exactly one of result /
            failure is not None).  Called in completion order.

    Returns:
        a :class:`GridResult`; failed cells are recorded in
        ``.failures`` instead of aborting the remaining grid.
    """
    tasks = _build_tasks(list(specs), list(policies))
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    jobs = min(jobs, max(1, len(tasks)))
    started = perf_counter()

    gathered: dict[tuple[str, str], SimulationResult] = {}
    failures: dict[tuple[str, str], GridFailure] = {}

    def finish(task: GridTask, result: SimulationResult | None,
               failure: GridFailure | None) -> None:
        if result is not None:
            gathered[task.key] = result
        else:
            failures[task.key] = failure
        if progress is not None:
            progress(task, result, failure)

    if jobs == 1:
        for task in tasks:
            try:
                finish(task, _run_one(trace, task.spec, task.policy), None)
            except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                finish(task, None, GridFailure(
                    task.spec.name, task.policy, repr(exc),
                    traceback.format_exc()))
    else:
        _run_grid_pool(trace, tasks, jobs, finish)

    # Deterministic merge: reorder by task declaration, not completion.
    results = {t.key: gathered[t.key] for t in tasks if t.key in gathered}
    failures = {t.key: failures[t.key] for t in tasks if t.key in failures}
    return GridResult(tasks=tasks, results=results, failures=failures,
                      jobs=jobs,
                      elapsed_seconds=perf_counter() - started)


def _run_grid_pool(trace, tasks: list[GridTask], jobs: int,
                   finish) -> None:
    """Fan tasks over a process pool; record per-task failures.

    Each task pickles the trace by path.  An in-memory trace is
    compiled once into a temporary directory first; the directory goes
    when this returns or raises, a worker's death included.
    """
    from repro.traces.compile import CompiledTrace, compile_trace

    with tempfile.TemporaryDirectory(prefix="repro-grid-") as spill:
        if not isinstance(trace, CompiledTrace):
            trace = compile_trace(trace, os.path.join(spill, "trace.ctrc"))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(_run_one, trace, t.spec, t.policy): t
                       for t in tasks}
            _drain_futures(futures, finish)


def _drain_futures(futures, finish) -> None:
    """Record every future in ``futures`` (a future → task mapping).

    Tasks finish in completion batches.  When a worker dies hard
    (``BrokenProcessPool``), every *other* future in the same completed
    batch is still recorded — successes included — before the
    still-pending cells are failed; a batch-mate's crash must not make
    a completed cell vanish from the merged grid.
    """
    pending = set(futures)
    while pending:
        done, pending = wait(pending, return_when=FIRST_COMPLETED)
        broken = None
        for fut in done:
            task = futures[fut]
            try:
                finish(task, fut.result(), None)
            except BrokenProcessPool as exc:
                broken = exc
                finish(task, None, GridFailure(
                    task.spec.name, task.policy, repr(exc)))
            except Exception as exc:  # noqa: BLE001
                finish(task, None, GridFailure(
                    task.spec.name, task.policy, repr(exc),
                    traceback.format_exc()))
        if broken is not None:
            # The pool is gone; fail the cells that never ran.
            for fut in pending:
                task = futures[fut]
                finish(task, None, GridFailure(
                    task.spec.name, task.policy, repr(broken)))
            return


# -- sweep-shaped conveniences ----------------------------------------------

def size_specs(base_spec: ExperimentSpec,
               cache_sizes: list[int]) -> list[ExperimentSpec]:
    """One spec per cache size, named ``<base>@<size>`` (Figs 5-8)."""
    return [replace(base_spec, cache_bytes=size,
                    name=f"{base_spec.name}@{fmt_bytes(size)}")
            for size in cache_sizes]

