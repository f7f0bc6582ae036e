"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.io.serialization import network_to_json
from repro.topology.reference import paper_figure1_network


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(network_to_json(paper_figure1_network()))
    return str(path)


class TestRoute:
    def test_basic_route(self, fig1_file, capsys):
        assert main(["route", fig1_file, "1", "7"]) == 0
        out = capsys.readouterr().out
        assert "cost 2" in out
        assert "lightpath" in out

    def test_route_with_conversion(self, fig1_file, capsys):
        assert main(["route", fig1_file, "1", "6"]) == 0
        out = capsys.readouterr().out
        assert "converter settings" in out

    def test_unreachable_exit_code(self, fig1_file, capsys):
        assert main(["route", fig1_file, "7", "1"]) == 1
        assert "no semilightpath" in capsys.readouterr().err

    def test_json_output(self, fig1_file, capsys):
        assert main(["route", fig1_file, "1", "7", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document[0]["total_cost"] == 2.0

    def test_max_conversions(self, fig1_file, capsys):
        assert main(["route", fig1_file, "1", "6", "--max-conversions", "0"]) == 1

    def test_alternatives(self, fig1_file, capsys):
        assert main(["route", fig1_file, "1", "6", "--alternatives", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("#") == 3

    def test_missing_file(self, capsys):
        assert main(["route", "/nonexistent.json", "1", "2"]) == 1


class TestGenerate:
    @pytest.mark.parametrize(
        "kind", ["ring", "grid", "waxman", "degree-bounded", "nsfnet", "arpanet", "paper-fig1"]
    )
    def test_generate_kinds_round_trip(self, kind, tmp_path, capsys):
        out_file = tmp_path / "net.json"
        assert main(
            ["generate", kind, "--nodes", "9", "--wavelengths", "2", "-o", str(out_file)]
        ) == 0
        from repro.io.serialization import network_from_json

        net = network_from_json(out_file.read_text())
        assert net.num_nodes >= 2

    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "ring", "--nodes", "4"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["num_wavelengths"] == 4


class TestSizes:
    def test_sizes_report(self, fig1_file, capsys):
        assert main(["sizes", fig1_file]) == 0
        out = capsys.readouterr().out
        assert "|V'| <= 2kn" in out
        assert "NO" not in out


class TestProvision:
    def test_provision_both_policies(self, fig1_file, capsys):
        for policy in ("semilightpath", "first-fit"):
            assert main(
                [
                    "provision", fig1_file,
                    "--load", "2", "--requests", "30", "--policy", policy,
                ]
            ) == 0
            out = capsys.readouterr().out
            assert f"policy={policy}" in out
            assert "P_block=" in out


class TestPlan:
    def test_uniform_default(self, tmp_path, capsys):
        from repro.io.serialization import network_to_json
        from repro.topology.reference import nsfnet_network

        net_file = tmp_path / "nsf.json"
        net_file.write_text(network_to_json(nsfnet_network(num_wavelengths=8)))
        code = main(["plan", str(net_file)])
        out = capsys.readouterr().out
        assert "carried" in out
        assert code in (0, 3)

    def test_demands_file(self, fig1_file, tmp_path, capsys):
        demands = tmp_path / "demands.json"
        demands.write_text(
            json.dumps([{"source": 1, "target": 7}, {"source": 5, "target": 7, "count": 2}])
        )
        assert main(["plan", fig1_file, "--demands", str(demands)]) == 0
        assert "carried 3/3" in capsys.readouterr().out

    def test_gravity_matrix(self, fig1_file, capsys):
        code = main(["plan", fig1_file, "--gravity", "10", "--ordering", "random", "--restarts", "3"])
        out = capsys.readouterr().out
        assert "carried" in out
        assert code in (0, 3)

    def test_rejection_exit_code(self, fig1_file, tmp_path, capsys):
        demands = tmp_path / "demands.json"
        # Node 7 has no out-links: 7 -> 1 is unroutable.
        demands.write_text(json.dumps([{"source": 7, "target": 1}]))
        assert main(["plan", fig1_file, "--demands", str(demands)]) == 3
        assert "rejected" in capsys.readouterr().out


class TestDot:
    def test_fig1(self, fig1_file, capsys):
        assert main(["dot", fig1_file, "--figure", "fig1"]) == 0
        assert capsys.readouterr().out.startswith("digraph G {")

    def test_fig2(self, fig1_file, capsys):
        assert main(["dot", fig1_file, "--figure", "fig2"]) == 0
        assert "λ1" in capsys.readouterr().out

    def test_fig3_requires_node(self, fig1_file, capsys):
        assert main(["dot", fig1_file, "--figure", "fig3"]) == 1
        assert main(["dot", fig1_file, "--figure", "fig3", "--node", "3"]) == 0

    def test_gst(self, fig1_file, capsys):
        assert main(
            ["dot", fig1_file, "--figure", "gst", "--source", "1", "--target", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "1'" in out and "7''" in out

    def test_gst_requires_endpoints(self, fig1_file, capsys):
        assert main(["dot", fig1_file, "--figure", "gst"]) == 1


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestVerify:
    def test_verify_clean_sweep(self, tmp_path, capsys):
        assert main([
            "verify", "--corpus", str(tmp_path / "empty"),
            "--scenarios", "3", "--seed", "0", "--max-nodes", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 corpus case(s) replayed" in out
        assert "3 seeded scenario(s)" in out
        assert "0 failure(s)" in out

    def test_verify_replays_golden_corpus(self, capsys):
        assert main([
            "verify", "--corpus", "tests/verify/corpus", "--scenarios", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "corpus case(s) replayed" in out
        assert "0 corpus" not in out


class TestFuzz:
    def test_fuzz_smoke(self, tmp_path, capsys):
        assert main([
            "fuzz", "--seconds", "0.5", "--seed", "0",
            "--corpus", str(tmp_path / "corpus"), "--max-nodes", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "scenario(s)" in out
        assert "0 failure(s)" in out
        # A clean run must not create corpus files.
        assert not (tmp_path / "corpus").exists()

    def test_fuzz_rejects_bad_budget(self, capsys):
        assert main(["fuzz", "--seconds", "0"]) == 1
        assert "--seconds" in capsys.readouterr().err


class TestMulticast:
    def test_fuzz_replays_the_corpus_first(self, tmp_path, capsys):
        from repro.multicast.verify import random_multicast_scenario
        from repro.verify.corpus import save_case

        corpus = tmp_path / "corpus"
        case = save_case(corpus, random_multicast_scenario(0))
        assert main([
            "multicast", "--seconds", "0.5", "--seed", "0",
            "--corpus", str(corpus),
        ]) == 0
        out = capsys.readouterr().out
        assert "1 corpus case(s) replayed (0 failed)" in out
        assert "0 failure(s)" in out
        assert [path.name for path in corpus.iterdir()] == [case.name]

    def test_failing_corpus_case_exits_4(self, tmp_path, capsys, monkeypatch):
        from repro.multicast.verify import (
            MulticastDisagreement,
            MulticastHarness,
            random_multicast_scenario,
        )
        from repro.verify.corpus import save_case

        corpus = tmp_path / "corpus"
        case = save_case(corpus, random_multicast_scenario(0))
        run = MulticastHarness.run

        def run_with_regression(self, scenario):
            # The saved case (seed 0) regressed; fuzzed scenarios did not.
            report = run(self, scenario)
            if scenario.seed == 0:
                report.disagreements.append(
                    MulticastDisagreement("cost", 0, (1,), "regressed")
                )
            return report

        monkeypatch.setattr(MulticastHarness, "run", run_with_regression)
        assert main([
            "multicast", "--seconds", "0.2", "--corpus", str(corpus),
        ]) == 4
        out = capsys.readouterr().out
        assert f"corpus case {case.name} FAILED:" in out
        assert "1 corpus case(s) replayed (1 failed)" in out


class TestExitCodes:
    def test_constants_are_stable_and_distinct(self):
        from repro import cli

        codes = {
            cli.EXIT_OK: 0,
            cli.EXIT_ERROR: 1,
            cli.EXIT_BOUNDS: 2,
            cli.EXIT_REJECTED: 3,
            cli.EXIT_DISAGREEMENT: 4,
            cli.EXIT_VIOLATION: 5,
        }
        assert all(actual == expected for actual, expected in codes.items())
        assert len(codes) == 6  # pairwise distinct


class TestChaos:
    def test_short_soak_holds_invariants(self, fig1_file, tmp_path, capsys):
        assert main([
            "chaos", fig1_file, "--seconds", "1", "--faults", "5",
            "--workers", "2", "--seed", "11",
            "--repro-dir", str(tmp_path / "repros"),
        ]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert "faults applied" in out
        # A clean soak must not persist any repro case.
        assert not (tmp_path / "repros").exists()

    def test_inject_cost_bug_self_test(self, fig1_file, tmp_path, capsys):
        assert main([
            "chaos", fig1_file, "--seconds", "0.8", "--faults", "4",
            "--workers", "2",
            "--repro-dir", str(tmp_path / "repros"),
            "--inject-cost-bug",
        ]) == 0
        out = capsys.readouterr().out
        assert "injected cost bug caught" in out
        assert list((tmp_path / "repros").glob("case-*.json"))

    def test_rejects_bad_budget(self, capsys):
        assert main(["chaos", "--seconds", "0"]) == 1
        assert "--seconds" in capsys.readouterr().err

    def test_rejects_bad_fault_count(self, capsys):
        assert main(["chaos", "--faults", "0"]) == 1
        assert "--faults" in capsys.readouterr().err

    def test_cluster_flag_rejects_cost_bug_combo(self, fig1_file, capsys):
        assert main([
            "chaos", fig1_file, "--cluster", "--inject-cost-bug",
        ]) == 1
        assert "--inject-cost-bug" in capsys.readouterr().err


class TestCluster:
    def test_smoke_holds_invariants(self, fig1_file, capsys):
        assert main([
            "chaos", fig1_file, "--cluster", "--seconds", "1.5",
            "--faults", "2", "--seed", "1998",
        ]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert "events_applied: 4" in out  # 2 faults + 2 recoveries

    def test_rejects_empty_tier(self, fig1_file, capsys):
        assert main(["chaos", fig1_file, "--cluster", "--shards", "0"]) == 1
        assert "--shards" in capsys.readouterr().err


class TestServe:
    def test_rejects_bad_ip(self, fig1_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", fig1_file, "--host", "not-an-ip"])
        assert excinfo.value.code == 2
        assert "not a valid IPv4 address" in capsys.readouterr().err

    def test_rejects_bad_port(self, fig1_file, capsys):
        for bad in ("65536", "-1", "http"):
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", fig1_file, "--port", bad])
            assert excinfo.value.code == 2

    def test_rejects_zero_workers(self, fig1_file, capsys):
        assert main(["serve", fig1_file, "--workers", "0"]) == 1
        assert "--workers" in capsys.readouterr().err

    def test_serve_missing_file(self, capsys):
        assert main(["serve", "/nonexistent.json"]) == 1


class TestServerOracleFlag:
    def test_fuzz_with_live_server_oracle(self, tmp_path, capsys):
        assert main([
            "fuzz", "--seconds", "2", "--seed", "1998", "--server",
            "--corpus", str(tmp_path / "corpus"), "--max-nodes", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "liang:server" in out
        assert "0 failure(s)" in out
        from repro.shortestpath.shared import leaked_segments

        assert leaked_segments() == []

    def test_verify_with_live_server_oracle(self, tmp_path, capsys):
        assert main([
            "verify", "--corpus", str(tmp_path / "empty"),
            "--scenarios", "2", "--seed", "0", "--max-nodes", "6",
            "--server",
        ]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out
