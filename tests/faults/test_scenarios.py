"""Named scenarios, the run_scenario harness, and the chaos CLI."""

import json
from types import SimpleNamespace

import pytest

from repro._util import MIB
from repro.cli import main
from repro.faults import (FaultPlan, make_plan, run_scenario,
                          scenario_names)
from repro.faults.scenarios import ChaosReport, PolicyOutcome
from repro.traces import ETC, generate


class TestMakePlan:
    def test_names_are_sorted_and_known(self):
        names = scenario_names()
        assert names == sorted(names)
        assert {"backend-brownout", "node-flap", "blackout"} <= set(names)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            make_plan("nope", 100, ["a"])

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="positive"):
            make_plan("blackout", 0, ["a"])
        with pytest.raises(ValueError, match="node"):
            make_plan("blackout", 100, [])

    def test_plans_scale_with_ticks(self):
        for name in scenario_names():
            for ticks in (10, 1000, 100_000):
                plan = make_plan(name, ticks, ["a", "b"], seed=3)
                assert isinstance(plan, FaultPlan)
                assert not plan.empty
                assert plan.seed == 3

    def test_blackout_covers_every_node(self):
        nodes = ["a", "b", "c"]
        plan = make_plan("blackout", 1000, nodes)
        assert plan.nodes_touched() == set(nodes)
        assert all(plan.node_down(n, 450) for n in nodes)
        assert not any(plan.node_down(n, 0) for n in nodes)


class TestRunScenario:
    def run(self, seed=7):
        trace = generate(ETC.scaled(0.02), 20_000, seed=5)
        return run_scenario("node-flap", trace, policies=["pama"],
                            node_count=2, capacity_bytes=2 * MIB,
                            window_gets=5000, seed=seed)

    def test_report_shape(self):
        report = self.run()
        assert report.scenario == "node-flap"
        outcome = report.outcomes["pama"]
        assert outcome.baseline.total_gets == outcome.faulted.total_gets
        assert outcome.counters  # faults actually fired
        text = report.format()
        assert "node-flap" in text and "counters" in text

    def test_same_seed_identical_everything(self):
        a, b = self.run(), self.run()
        oa, ob = a.outcomes["pama"], b.outcomes["pama"]
        assert oa.counters == ob.counters
        assert oa.degraded_time == ob.degraded_time
        assert oa.faulted.hit_ratio == ob.faulted.hit_ratio
        assert oa.faulted.avg_service_time == ob.faulted.avg_service_time
        assert (oa.faulted.service_time_series()
                == ob.faulted.service_time_series())

    def test_seed_changes_the_faulted_run_only(self):
        oa = self.run(seed=7).outcomes["pama"]
        ob = self.run(seed=8).outcomes["pama"]
        assert oa.baseline.avg_service_time == ob.baseline.avg_service_time
        assert oa.counters != ob.counters


class TestBrownoutWidensAdvantage:
    def test_pama_gains_when_penalties_spike(self):
        # The acceptance claim: under a backend brownout the service-time
        # gap between penalty-aware and penalty-blind allocation grows.
        trace = generate(ETC.scaled(0.1), 120_000, seed=101)
        report = run_scenario("backend-brownout", trace,
                              policies=["pre-pama", "pama"], node_count=2,
                              capacity_bytes=4 * MIB, window_gets=30_000,
                              seed=7)
        base_adv, fault_adv = report.advantage()
        assert base_adv > 0
        assert fault_adv > base_adv
        assert "widened" in report.format()
        outcome = report.outcomes["pama"]
        assert outcome.counters["backend_error"] > 0
        assert outcome.counters["stale_served"] > 0
        assert outcome.degraded_time > 0


def _stub_report(pama_ms: tuple[float, float],
                 pre_pama_ms: tuple[float, float]) -> ChaosReport:
    """A report over two stub outcomes: (fault-free, faulted) average
    service times in ms, no replay behind them."""
    def outcome(name, ms):
        base, fault = (SimpleNamespace(hit_ratio=0.5,
                                       avg_service_time=t / 1e3,
                                       service_quantiles={})
                       for t in ms)
        return PolicyOutcome(name, base, fault)

    return ChaosReport("backend-brownout", 7, ["n0", "n1"], FaultPlan(),
                       {"pre-pama": outcome("pre-pama", pre_pama_ms),
                        "pama": outcome("pama", pama_ms)})


class TestAdvantageSummary:
    @pytest.mark.parametrize("pama, pre_pama, says", (
        # +0.17 -> +0.21 ms: pama ahead, by more
        ((10.0, 20.0), (10.17, 20.21), "(widened)"),
        # -1.15 -> -2.63 ms: pre-pama ahead, by more
        ((10.0, 20.0), (8.85, 17.37), "(pre-pama ahead under faults)"),
        # -2.44 -> -1.0 ms: pre-pama ahead, by less
        ((10.0, 20.0), (7.56, 19.0), "(pre-pama ahead under faults)"),
        # +0.5 -> -0.5 ms: the lead changes hands
        ((10.0, 20.0), (10.5, 19.5), "(pre-pama ahead under faults)"),
        # -0.5 -> +0.5 ms
        ((10.0, 20.0), (9.5, 20.5), "(pama ahead under faults)"),
    ), ids=("both-positive", "both-negative-wider", "both-negative-closer",
            "positive-to-negative", "negative-to-positive"))
    def test_names_the_leader_once_an_advantage_is_negative(
            self, pama, pre_pama, says):
        line = _stub_report(pama, pre_pama).format().splitlines()[-1]
        assert line.startswith("pama advantage over pre-pama: ")
        assert line.endswith(says)
        assert "narrowed" not in line


class TestChaosCli:
    ARGS = ["chaos", "node-flap", "--requests", "8000", "--scale", "0.02",
            "--window", "2000", "--cache-size", "4MiB", "--nodes", "2",
            "--policies", "pama", "--fault-seed", "7"]

    def test_list(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == scenario_names()

    def test_missing_and_unknown_scenario(self, capsys):
        assert main(["chaos"]) == 2
        assert main(["chaos", "nope"]) == 2
        assert main(["chaos", "node-flap", "--policies", "nope"]) == 2

    def test_runs_and_reports(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "chaos scenario 'node-flap'" in out
        assert "counters" in out

    def test_obs_out_dumps_fault_metrics(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        assert main(self.ARGS + ["--obs-out", str(path)]) == 0
        dump = json.loads(path.read_text())
        counters = {m["name"] for m in dump["counters"]}
        assert any(n.startswith("faults_") for n in counters)
        gauges = {m["name"] for m in dump["gauges"]}
        assert "faults_degraded_time_seconds" in gauges
        assert dump["meta"]["scenario"] == "node-flap"
        assert "node_crash" in dump["events"]["kinds"]
