"""Tests for the chaos soak harness (repro.faults.chaos)."""

from __future__ import annotations

from repro.faults.chaos import ChaosSoak, SoakReport
from repro.verify.corpus import iter_corpus


class TestSoakReport:
    def test_ok_iff_no_violations(self):
        report = SoakReport(seed=0, duration=1.0)
        assert report.ok
        report.add_violation("boom")
        assert not report.ok

    def test_stored_violations_are_capped_but_counted(self):
        report = SoakReport(seed=0, duration=1.0)
        for index in range(SoakReport.MAX_STORED_VIOLATIONS + 50):
            report.add_violation(f"violation {index}")
        assert report.violations_total == SoakReport.MAX_STORED_VIOLATIONS + 50
        assert len(report.violations) == SoakReport.MAX_STORED_VIOLATIONS
        rendered = report.format()
        assert f"{SoakReport.MAX_STORED_VIOLATIONS + 50}" in rendered
        assert "first 200 shown" in rendered

    def test_format_mentions_the_headline_counts(self):
        report = SoakReport(seed=9, duration=30.0, queries=100, served_fresh=90)
        rendered = report.format()
        assert "seed=9" in rendered
        assert "100 queries" in rendered
        assert "all invariants held" in rendered


class TestChaosSoak:
    def test_short_clean_soak_holds_all_invariants(self, paper_net):
        soak = ChaosSoak(paper_net, seed=7, duration=1.5, num_faults=8)
        report = soak.run()
        assert report.ok, "\n".join(report.violations)
        assert report.queries > 0
        assert report.served_fresh > 0
        assert sum(report.faults_applied.values()) >= 8
        assert report.recovery_pairs_checked > 0
        # The drill must exercise a full breaker cycle.
        transitions = report.breaker_transitions
        assert ("closed", "open") in transitions
        assert ("half-open", "closed") in transitions

    def test_soak_is_deterministic_in_plan(self, paper_net):
        a = ChaosSoak(paper_net, seed=13, duration=0.5, num_faults=6)
        b = ChaosSoak(paper_net, seed=13, duration=0.5, num_faults=6)
        assert a.plan.to_json() == b.plan.to_json()

    def test_cost_perturbation_is_caught_and_persisted(self, paper_net, tmp_path):
        corpus = tmp_path / "corpus"
        soak = ChaosSoak(
            paper_net,
            seed=3,
            duration=0.8,
            num_faults=4,
            cost_perturbation=0.125,
            corpus_dir=corpus,
        )
        report = soak.run()
        assert not report.ok
        assert any("certificate" in v for v in report.violations)
        assert report.persisted, "a shrunk repro must be saved"
        cases = iter_corpus(corpus)
        assert len(cases) == 1
        assert len(cases[0].scenario.queries) == 1  # shrunk to one query

    def test_incremental_soak_parity_probes_hold(self, paper_net):
        soak = ChaosSoak(
            paper_net,
            seed=11,
            duration=1.0,
            num_faults=8,
        )
        report = soak.run()
        assert report.ok, "\n".join(report.violations)
        # Every network-resource fault triggered a probe, none diverged.
        assert report.parity_checks > 0
        assert report.parity_mismatches == 0
        # The delta layer actually carried load (recoveries of resources
        # dark at build time still legitimately rebuild).
        assert report.cache_patches > 0
        probes = report.event_log.of_kind("parity_check")
        assert len(probes) == report.parity_checks
        assert all(p["ok"] for p in probes)
        assert any(p["mode"] == "patched" for p in probes)
        # The byte-identical post-recovery invariant still holds.
        assert report.recovery_pairs_checked > 0
        assert "parity probe" in report.format()

    def test_event_log_audits_every_fault(self, paper_net):
        soak = ChaosSoak(paper_net, seed=5, duration=0.5, num_faults=5)
        report = soak.run()
        assert report.ok, "\n".join(report.violations)
        assert report.event_log is not None
        summary = report.event_log.summary()
        # Every plan event is audited; the breaker drill logs a few extra
        # injected exceptions on top.  The soak's own parity probes share
        # the log but are not injector events.
        for kind, count in report.faults_applied.items():
            assert summary.get(kind, 0) >= count
        injected = sum(
            count for kind, count in summary.items() if kind != "parity_check"
        )
        assert injected == soak.injector.applied
        assert summary.get("parity_check", 0) == report.parity_checks
