"""Tests for the parallel experiment engine (run_grid and the two
wrappers over it, run_comparison and sweep_cache_sizes)."""

import os
import tempfile
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro._util import MIB
from repro.sim import ExperimentSpec, run_comparison, sweep_cache_sizes
from repro.sim.parallel import (GridFailure, GridTask, _drain_futures,
                                default_jobs, run_grid, size_specs)
from repro.traces import ETC, compile_trace, generate


@pytest.fixture(scope="module")
def trace():
    return generate(ETC.scaled(0.02), 15_000, seed=31)


@pytest.fixture
def spec():
    return ExperimentSpec(name="par", cache_bytes=2 * MIB,
                          slab_size=64 * 1024, window_gets=5_000,
                          policy_kwargs={"pama": {"value_window": 5_000}})


def result_fingerprint(r):
    return (r.hit_ratio, r.avg_service_time, r.total_gets,
            tuple(r.hit_ratio_series()), tuple(r.service_time_series()),
            r.cache_stats["migrations"], r.cache_stats["evictions"],
            tuple(sorted(r.final_class_slabs.items())))


class TestRunGrid:
    POLICIES = ["memcached", "psa", "pama"]

    def test_serial_matches_parallel_exactly(self, trace, spec):
        specs = size_specs(spec, [1 * MIB, 2 * MIB, 4 * MIB])
        serial = run_grid(trace, specs, self.POLICIES, jobs=1)
        parallel = run_grid(trace, specs, self.POLICIES, jobs=4)
        assert serial.ok and parallel.ok
        assert list(serial.results) == list(parallel.results)
        for key in serial.results:
            assert result_fingerprint(serial.results[key]) \
                == result_fingerprint(parallel.results[key]), key

    def test_merge_order_is_task_order(self, trace, spec):
        specs = size_specs(spec, [1 * MIB, 2 * MIB])
        grid = run_grid(trace, specs, self.POLICIES, jobs=2)
        expected = [(s.name, p) for s in specs for p in self.POLICIES]
        assert list(grid.results) == expected

    def test_shuffled_specs_produce_same_cells(self, trace, spec):
        specs = size_specs(spec, [1 * MIB, 2 * MIB])
        fwd = run_grid(trace, specs, self.POLICIES, jobs=2)
        rev = run_grid(trace, list(reversed(specs)),
                       list(reversed(self.POLICIES)), jobs=2)
        assert set(fwd.results) == set(rev.results)
        for key in fwd.results:
            assert result_fingerprint(fwd.results[key]) \
                == result_fingerprint(rev.results[key]), key

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_cell_does_not_kill_the_sweep(self, trace, spec, jobs):
        grid = run_grid(trace, [spec], ["memcached", "no-such-policy"],
                        jobs=jobs)
        assert not grid.ok
        assert set(grid.results) == {("par", "memcached")}
        failure = grid.failures[("par", "no-such-policy")]
        assert isinstance(failure, GridFailure)
        assert "no-such-policy" in failure.error
        with pytest.raises(RuntimeError, match="no-such-policy"):
            grid.raise_failures()

    def test_progress_sees_every_cell(self, trace, spec):
        seen = []
        grid = run_grid(trace, [spec], ["memcached", "no-such-policy"],
                        progress=lambda t, r, f: seen.append(
                            (t.policy, r is not None, f is not None)))
        assert sorted(seen) == [("memcached", True, False),
                                ("no-such-policy", False, True)]
        assert len(grid.results) + len(grid.failures) == 2

    def test_duplicate_cells_rejected(self, trace, spec):
        with pytest.raises(ValueError, match="duplicate"):
            run_grid(trace, [spec, spec], ["memcached"])

    def test_comparison_views(self, trace, spec):
        specs = size_specs(spec, [1 * MIB, 2 * MIB])
        grid = run_grid(trace, specs, ["memcached", "pama"], jobs=1)
        cmps = grid.comparisons()
        assert list(cmps) == [s.name for s in specs]
        for s in specs:
            assert set(cmps[s.name].results) == {"memcached", "pama"}
            assert cmps[s.name].spec.cache_bytes == s.cache_bytes

    def test_jobs_none_uses_default(self, trace, spec):
        grid = run_grid(trace, [spec], ["memcached"], jobs=None)
        assert grid.jobs >= 1
        assert grid.ok

    def test_matches_run_comparison(self, trace, spec):
        cmp = run_comparison(trace, spec, self.POLICIES)
        grid = run_grid(trace, [spec], self.POLICIES, jobs=4)
        for name in self.POLICIES:
            assert result_fingerprint(cmp.results[name]) \
                == result_fingerprint(grid.results[("par", name)]), name


class TestCompiledTraceGrid:
    def test_compiled_grid_matches_in_memory(self, trace, spec, tmp_path):
        compiled = compile_trace(trace, tmp_path / "grid.ctrc")
        compiled.window = 4_096  # several windows per cell
        specs = size_specs(spec, [1 * MIB, 2 * MIB])
        policies = ["memcached", "pama"]
        baseline = run_grid(trace, specs, policies, jobs=1)
        streamed = run_grid(compiled, specs, policies, jobs=2)
        assert baseline.ok and streamed.ok
        assert list(baseline.results) == list(streamed.results)
        for key in baseline.results:
            assert result_fingerprint(baseline.results[key]) \
                == result_fingerprint(streamed.results[key]), key


class _CrashSpec(ExperimentSpec):
    """Spec whose ``die`` policy kills the worker process outright."""

    def build_cache(self, policy):
        if policy == "die":
            time.sleep(0.3)  # let batch-mates finish first
            os._exit(13)
        return super().build_cache(policy)


class TestBrokenPoolDrain:
    """Regression: a BrokenProcessPool in one future of a completed
    batch must not drop the *other* completed futures in that batch
    (pre-fix, the drain loop bailed out without recording them)."""

    @staticmethod
    def _task(name):
        return GridTask(0, ExperimentSpec(name=name, cache_bytes=MIB),
                        "memcached")

    def test_batch_mate_of_broken_future_is_recorded(self, monkeypatch):
        f_ok, f_broken, f_pending = Future(), Future(), Future()
        f_ok.set_result("completed-result")
        f_broken.set_exception(BrokenProcessPool("worker died"))
        futures = {f_broken: self._task("broken"),
                   f_ok: self._task("ok"),
                   f_pending: self._task("pending")}

        # Deterministic batch: the broken future is *first* in the done
        # set, with a genuinely completed batch-mate behind it.
        def fake_wait(pending, return_when=None):
            assert f_pending in pending
            return [f_broken, f_ok], {f_pending}

        monkeypatch.setattr("repro.sim.parallel.wait", fake_wait)

        recorded = {}
        _drain_futures(futures, lambda t, r, f: recorded.update(
            {t.spec.name: (r, f)}))

        assert set(recorded) == {"broken", "ok", "pending"}
        result, failure = recorded["ok"]
        assert result == "completed-result" and failure is None
        assert isinstance(recorded["broken"][1], GridFailure)
        assert isinstance(recorded["pending"][1], GridFailure)
        assert "BrokenProcessPool" in recorded["pending"][1].error

    def test_worker_death_fails_cell_not_sweep(self, spec):
        trace = generate(ETC.scaled(0.01), 500, seed=7)
        crash = _CrashSpec(name="crash", cache_bytes=2 * MIB,
                           slab_size=64 * 1024)
        grid = run_grid(trace, [crash], ["memcached", "die"], jobs=2)
        assert not grid.ok
        # Every cell is accounted for — none silently vanished.
        assert set(grid.results) | set(grid.failures) \
            == {("crash", "memcached"), ("crash", "die")}
        assert "BrokenProcessPool" in grid.failures[("crash", "die")].error
        # The memcached cell finished well before the 0.3 s crash, so
        # the fixed drain must have kept its completed result.
        assert ("crash", "memcached") in grid.results


class TestSpillDirectory:
    """The pool ships an in-memory trace as a compiled trace in a
    temporary directory; the directory is gone however run_grid ends."""

    class _Raised(Exception):
        pass

    @pytest.fixture
    def tmpdir_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    @staticmethod
    def spills(root):
        return sorted(p.name for p in root.iterdir()
                      if p.name.startswith("repro-grid-"))

    @pytest.mark.parametrize("ending", ["returns", "a cell raises",
                                        "a worker dies", "the caller raises"])
    def test_gone_after(self, ending, tmpdir_root):
        trace = generate(ETC.scaled(0.01), 500, seed=7)
        spec = _CrashSpec(name="spill", cache_bytes=2 * MIB,
                          slab_size=64 * 1024)
        policies = {"returns": ["memcached", "pama"],
                    "a cell raises": ["memcached", "no-such-policy"],
                    "a worker dies": ["memcached", "die"],
                    "the caller raises": ["memcached", "pama"]}[ending]
        seen = []

        def progress(task, result, failure):
            seen.append(self.spills(tmpdir_root))
            if ending == "the caller raises":
                raise self._Raised

        if ending == "the caller raises":
            with pytest.raises(self._Raised):
                run_grid(trace, [spec], policies, jobs=2, progress=progress)
        else:
            grid = run_grid(trace, [spec], policies, jobs=2,
                            progress=progress)
            assert grid.ok == (ending == "returns")
        assert seen and all(len(names) == 1 for names in seen)
        assert self.spills(tmpdir_root) == []


class TestParallelWrappers:
    def test_matches_serial_results(self, trace, spec):
        policies = ["memcached", "psa", "pama"]
        serial = run_comparison(trace, spec, policies)
        parallel = run_comparison(trace, spec, policies, jobs=2)
        for name in policies:
            assert result_fingerprint(serial.results[name]) \
                == result_fingerprint(parallel.results[name]), name

    def test_sweep_parallel_matches_shape(self, trace, spec):
        sizes = [1 * MIB, 2 * MIB]
        out = sweep_cache_sizes(trace, spec, ["memcached", "pama"], sizes,
                                jobs=2)
        assert set(out) == set(sizes)
        for size in sizes:
            assert set(out[size].results) == {"memcached", "pama"}
            assert out[size].spec.cache_bytes == size

    def test_default_workers_positive(self):
        assert default_jobs() >= 1
