"""Tests for the repro-kv CLI."""

import pytest

from repro.cli import main


class TestGenerateAnalyze:
    def test_generate_npz_and_analyze(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        assert main(["generate", "--workload", "etc", "--requests", "3000",
                     "--scale", "0.02", "--out", str(out)]) == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "3000 requests" in captured

        assert main(["analyze", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "unique keys" in captured
        assert "size bucket" in captured

    def test_generate_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        assert main(["generate", "--requests", "500", "--scale", "0.02",
                     "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "op,key,key_size,value_size,penalty,timestamp"


class TestSimulate:
    def test_simulate_synthesized(self, capsys):
        assert main(["simulate", "--requests", "5000", "--scale", "0.02",
                     "--cache-size", "2MiB", "--slab-size", "64KiB",
                     "--policy", "pama", "--window", "1000",
                     "--chart"]) == 0
        out = capsys.readouterr().out
        assert "hit ratio" in out
        assert "hit ratio per window" in out

    def test_simulate_from_file(self, tmp_path, capsys):
        path = tmp_path / "t.npz"
        main(["generate", "--requests", "2000", "--scale", "0.02",
              "--out", str(path)])
        capsys.readouterr()
        assert main(["simulate", "--trace", str(path),
                     "--cache-size", "1MiB", "--slab-size", "64KiB",
                     "--policy", "memcached"]) == 0
        assert "memcached" in capsys.readouterr().out


class TestCompare:
    def test_compare_policies(self, capsys):
        assert main(["compare", "--requests", "5000", "--scale", "0.02",
                     "--cache-size", "2MiB", "--slab-size", "64KiB",
                     "--policies", "memcached,pama", "--window", "1000"]) == 0
        out = capsys.readouterr().out
        assert "memcached" in out and "pama" in out
        assert "hit_ratio" in out

    def test_unknown_policy_rejected(self, capsys):
        assert main(["compare", "--requests", "100", "--scale", "0.02",
                     "--policies", "bogus"]) == 2


class TestCluster:
    def test_cluster_comparison(self, capsys):
        assert main(["cluster", "--requests", "5000", "--scale", "0.02",
                     "--cache-size", "2MiB", "--slab-size", "64KiB",
                     "--nodes", "1,2", "--window", "1000",
                     "--policy", "pama"]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "hit_ratio" in out
        assert out.count("MiB") >= 2

    def test_cluster_skips_undersized_nodes(self, capsys):
        assert main(["cluster", "--requests", "1000", "--scale", "0.02",
                     "--cache-size", "128KiB", "--slab-size", "64KiB",
                     "--nodes", "1,64", "--window", "1000"]) == 0
        err = capsys.readouterr().err
        assert "skipping 64 nodes" in err


class TestObs:
    def test_dump_json_and_prom_and_diff(self, tmp_path, capsys):
        prefix = str(tmp_path / "snap")
        assert main(["obs", "dump", "--requests", "4000", "--scale", "0.02",
                     "--cache-size", "1MiB", "--slab-size", "64KiB",
                     "--window", "1000", "--format", "both",
                     "--out", prefix]) == 0
        capsys.readouterr()

        import json
        doc = json.loads((tmp_path / "snap.json").read_text())
        names = {c["name"] for c in doc["counters"]}
        assert "cache_gets_total" in names
        assert doc["meta"]["policy"] == "pama"
        assert doc["events"]["recorded"] >= 0
        prom = (tmp_path / "snap.prom").read_text()
        assert "# TYPE cache_gets_total counter" in prom
        assert "sim_service_time_seconds_bucket" in prom

        # a second, longer replay diffs against the first
        assert main(["obs", "dump", "--requests", "6000", "--scale", "0.02",
                     "--cache-size", "1MiB", "--slab-size", "64KiB",
                     "--window", "1000", "--out", str(tmp_path / "b.json"),
                     "--seed", "9"]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", prefix + ".json",
                     str(tmp_path / "b.json")]) == 0
        out = capsys.readouterr().out
        assert "cache_gets_total" in out

    def test_dump_to_stdout(self, capsys):
        assert main(["obs", "dump", "--requests", "2000", "--scale", "0.02",
                     "--cache-size", "1MiB", "--slab-size", "64KiB",
                     "--window", "1000", "--format", "prom"]) == 0
        assert "cache_gets_total" in capsys.readouterr().out

    def test_both_requires_out(self):
        with pytest.raises(SystemExit):
            main(["obs", "dump", "--requests", "100", "--format", "both"])


class TestReport:
    def test_chaos_dump_then_report(self, tmp_path, capsys):
        dump = str(tmp_path / "dump")
        assert main(["chaos", "node-flap", "--requests", "6000",
                     "--scale", "0.02", "--cache-size", "1MiB",
                     "--slab-size", "64KiB", "--window", "1000",
                     "--policies", "pama", "--dump-dir", dump]) == 0
        capsys.readouterr()
        for name in ("meta.json", "timeline.jsonl", "spans.json",
                     "snapshot.json"):
            assert (tmp_path / "dump" / name).exists(), name

        out = str(tmp_path / "report.html")
        assert main(["report", dump, "--out", out,
                     "--title", "node flap"]) == 0
        assert "report.html" in capsys.readouterr().err
        html = (tmp_path / "report.html").read_text()
        assert "node flap" in html
        assert "<svg" in html

    def test_obs_dump_dir_then_report(self, tmp_path, capsys):
        dump = str(tmp_path / "dump")
        assert main(["obs", "dump", "--requests", "4000", "--scale",
                     "0.02", "--cache-size", "1MiB", "--slab-size",
                     "64KiB", "--window", "1000", "--dump-dir",
                     dump]) == 0
        capsys.readouterr()
        assert (tmp_path / "dump" / "timeline.jsonl").exists()
        assert main(["report", dump,
                     "--out", str(tmp_path / "r.html")]) == 0

    def test_report_rejects_bad_dump(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "r.html")]) == 1
        assert "report:" in capsys.readouterr().err

        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "timeline.jsonl").write_text('{"window": 0}\n')
        assert main(["report", str(bad),
                     "--out", str(tmp_path / "r.html")]) == 1
        assert "invalid dump" in capsys.readouterr().err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    # One bad count per argument that takes one; --jobs 0 means "one
    # worker per spare core", so its bad value is -1.
    BAD_COUNTS = [
        ["generate", "--out", "x.npz", "--requests", "0"],
        ["trace", "compile", "--out", "x.ctrc", "--requests", "0"],
        ["trace", "compile", "--out", "x.ctrc", "--chunk", "0"],
        ["simulate", "--requests", "0"],
        ["simulate", "--window", "0"],
        ["simulate", "--jobs", "-1"],
        ["compare", "--jobs", "-1"],
        ["compare", "--window", "0"],
        ["cluster", "--requests", "0"],
        ["cluster", "--nodes", "0,2"],
        ["cluster", "--nodes", "x"],
        ["obs", "dump", "--window", "0"],
        ["chaos", "node-flap", "--nodes", "0"],
        ["chaos", "node-flap", "--window", "0"],
        ["tenancy", "noisy-neighbor", "--requests", "0"],
        ["tenancy", "noisy-neighbor", "--window", "0"],
        ["serve", "--shards", "0"],
        ["loadgen", "--ops", "0"],
        ["loadgen", "--keys", "0"],
        ["loadgen", "--connections", "0"],
        ["loadgen", "--pipeline", "0"],
        ["loadgen", "--shards", "0"],
        ["simulate", "--window", "ten"],
    ]

    @pytest.mark.parametrize("argv", BAD_COUNTS, ids=" ".join)
    def test_bad_count_is_a_usage_error(self, argv, monkeypatch, capsys):
        import repro.cli as cli

        for name in dir(cli):
            if name.startswith("cmd_"):
                monkeypatch.setattr(cli, name, pytest.fail)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("repro-kv ")
        assert f"argument {argv[-2]}:" in err[-1]

    def test_jobs_zero_is_one_per_spare_core(self):
        from repro.cli import build_parser

        assert build_parser().parse_args(["simulate", "--jobs", "0"]).jobs == 0


class TestTraceCompile:
    def test_compile_synthetic_info_and_simulate(self, tmp_path, capsys):
        out = tmp_path / "zoo.ctrc"
        assert main(["trace", "compile", "--workload", "zippydb",
                     "--scale", "0.01", "--requests", "4000",
                     "--out", str(out)]) == 0
        assert "4,000" in capsys.readouterr().out

        assert main(["trace", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "zippydb" in info and "4,000" in info

        assert main(["simulate", "--trace", str(out),
                     "--policy", "memcached",
                     "--cache-size", "2MiB"]) == 0
        assert "memcached" in capsys.readouterr().out

    def test_compile_from_npz_and_analyze_routes(self, tmp_path, capsys):
        npz = tmp_path / "t.npz"
        main(["generate", "--requests", "2000", "--scale", "0.02",
              "--out", str(npz)])
        capsys.readouterr()
        out = tmp_path / "t.ctrc"
        assert main(["trace", "compile", "--trace", str(npz),
                     "--out", str(out)]) == 0
        capsys.readouterr()
        # analyze recognizes a compiled directory and describes it.
        assert main(["analyze", str(out)]) == 0
        assert "2,000" in capsys.readouterr().out
