"""The rule-stats plane: accounting correctness, determinism, reporting.

Three layers of guarantees under test:

- **unit**: scoped sinks, payload round trips, delta/merge algebra, the
  on-disk accumulator, dead-rule pruning;
- **integration**: instrumented matchers/adblockers record hits without
  changing a single match outcome;
- **end to end**: the §4 replay produces byte-identical canonical
  payloads and report JSON across serial and forked execution, the
  report is whole when accounting is switched on after the stages ran,
  and stats-on never changes result bytes.
"""

import json
import pickle
from datetime import date

import pytest

from repro.analysis.coverage import CoverageAnalyzer
from repro.analysis.livecrawl import LiveCrawler
from repro.analysis.rulestats import (
    RuleStatsCollector,
    RuleStatsStore,
    ScopedRuleStats,
    build_rule_report,
    get_rule_stats,
    set_rule_stats,
    strip_timing,
)
from repro.core.rulegen import prune_dead_rules
from repro.experiments import rulereport
from repro.experiments.context import ExperimentContext
from repro.filterlist.history import FilterListHistory
from repro.filterlist.matcher import NetworkMatcher
from repro.filterlist.parser import parse_filter_list
from repro.filterlist.rules import NetworkRule
from repro.web.adblocker import Adblocker
from repro.web.dom import parse_html


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.create(scale=0.01)


@pytest.fixture()
def fresh_collector():
    """Install a fresh global collector; restore the previous one after."""
    previous = set_rule_stats(RuleStatsCollector())
    try:
        yield get_rule_stats()
    finally:
        set_rule_stats(previous)


@pytest.fixture()
def stats_off():
    previous = set_rule_stats(None)
    try:
        yield
    finally:
        set_rule_stats(previous)


RULES = [
    NetworkRule.parse("||ads.example.com^"),
    NetworkRule.parse("||tracker.net/pixel.gif"),
    NetworkRule.parse("/never-matches-anything/"),
]

URLS = [
    "http://ads.example.com/banner.js",
    "http://tracker.net/pixel.gif?x=1",
    "http://tracker.net/pixel.gif",
    "http://benign.org/app.js",
]


class TestScopedRuleStats:
    def test_record_call_accumulates(self):
        scope = ScopedRuleStats()
        scope.record_call(3, 500, RULES[0])
        scope.record_call(1, 700, None)
        assert scope.calls == 2
        assert scope.hits == {RULES[0].raw: 1}
        assert scope.cost.total == 2
        assert scope.latency_ns.total == 2
        assert scope.has_data()

    def test_element_hits(self):
        scope = ScopedRuleStats()
        scope.record_element_hit("##.overlay")
        scope.record_element_hit("##.overlay")
        assert scope.hits == {"##.overlay": 2}

    def test_payload_round_trip(self):
        scope = ScopedRuleStats()
        scope.checks["b"] = 2
        scope.checks["a"] = 1
        scope.record_call(2, 900, RULES[1])
        payload = scope.as_payload()
        assert list(payload["checks"]) == ["a", "b"]  # key-sorted
        other = ScopedRuleStats()
        other.merge_payload(payload)
        assert other.as_payload() == payload

    def test_merge_sums(self):
        a, b = ScopedRuleStats(), ScopedRuleStats()
        a.record_call(1, 300, RULES[0])
        b.record_call(4, 300, RULES[0])
        a.merge_payload(b.as_payload())
        assert a.calls == 2
        assert a.hits[RULES[0].raw] == 2
        assert a.cost.total == 2


class TestCollectorPayloads:
    def test_empty_scopes_are_omitted(self):
        collector = RuleStatsCollector()
        collector.scope("idle")
        collector.scope("busy").record_call(1, 100, None)
        assert list(collector.as_payload()["lists"]) == ["busy"]

    def test_delta_since_then_merge_reconstructs(self):
        """The worker protocol: snapshot, work, ship delta, parent merges."""
        parent = RuleStatsCollector()
        parent.scope("AAK").record_call(2, 100, RULES[0])
        worker = RuleStatsCollector()
        worker.merge_payload(parent.as_payload())  # forked copy
        snapshot = worker.snapshot()
        worker.scope("AAK").record_call(5, 100, RULES[1])
        worker.scope("CE").record_call(1, 100, None)
        parent.merge_payload(worker.delta_since(snapshot))

        direct = RuleStatsCollector()
        direct.scope("AAK").record_call(2, 100, RULES[0])
        direct.scope("AAK").record_call(5, 100, RULES[1])
        direct.scope("CE").record_call(1, 100, None)
        assert strip_timing(parent.as_payload()) == strip_timing(direct.as_payload())
        # Timing histograms merge too (totals match even if buckets are
        # timing-dependent in real runs; here the inputs are fixed).
        assert parent.as_payload() == direct.as_payload()

    def test_delta_is_empty_when_idle(self):
        collector = RuleStatsCollector()
        collector.scope("AAK").record_call(1, 100, None)
        assert collector.delta_since(collector.snapshot())["lists"] == {}

    def test_shard_merge_is_order_independent(self):
        deltas = []
        for rule, probed in ((RULES[0], 2), (RULES[1], 7), (None, 1)):
            shard = RuleStatsCollector()
            shard.scope("AAK").record_call(probed, 100, rule)
            deltas.append(shard.as_payload())
        forward, backward = RuleStatsCollector(), RuleStatsCollector()
        for delta in deltas:
            forward.merge_payload(delta)
        for delta in reversed(deltas):
            backward.merge_payload(delta)
        assert json.dumps(forward.as_payload()) == json.dumps(backward.as_payload())

    def test_canonical_payload_strips_timing(self):
        collector = RuleStatsCollector()
        collector.scope("AAK").record_call(1, 12345, RULES[0])
        canonical = collector.canonical_payload()
        assert "latency_ns" not in canonical["lists"]["AAK"]
        assert "cost" in canonical["lists"]["AAK"]

    def test_manifest_summary_totals(self):
        collector = RuleStatsCollector()
        scope = collector.scope("AAK")
        scope.record_call(3, 100, RULES[0])
        scope.record_call(2, 100, RULES[0])
        scope.checks.update({"a": 4})
        summary = collector.manifest_summary()
        assert summary["totals"] == {
            "calls": 2,
            "hits": 2,
            "checks": 4,
            "rules_hit": 1,
        }
        assert summary["lists"]["AAK"]["rules_checked"] == 1

    def test_absorb_into_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        collector = RuleStatsCollector()
        collector.scope("AAK").record_call(3, 100, RULES[0])
        registry = MetricsRegistry()
        collector.absorb_into(registry)
        data = registry.as_dict()
        assert data["counters"]["rules.hits"] == 1
        assert "rules.cost.AAK" in data["histograms"]
        assert "rules.latency_ns.AAK" in data["histograms"]


class TestGlobalCollector:
    def test_set_and_restore(self):
        mine = RuleStatsCollector()
        previous = set_rule_stats(mine)
        try:
            assert get_rule_stats() is mine
        finally:
            set_rule_stats(previous)

    def test_env_disabled_resolves_to_none(self, stats_off):
        assert get_rule_stats() is None


class TestMatcherIntegration:
    def test_outcomes_identical_with_stats_on(self):
        plain = NetworkMatcher(RULES)
        recorded = NetworkMatcher(RULES)
        recorded.rule_stats = ScopedRuleStats()
        for url in URLS:
            assert recorded.first_match(url) is plain.first_match(url)
            assert recorded.match(url).blocked == plain.match(url).blocked

    def test_hits_and_checks_recorded(self):
        matcher = NetworkMatcher(RULES)
        scope = matcher.rule_stats = ScopedRuleStats()
        for url in URLS:
            matcher.first_match(url)
        # One _first pass per hit, two (block + allow polarity) per miss:
        # three of the URLs hit, one misses.
        assert scope.calls == 5
        assert scope.hits[RULES[0].raw] == 1
        assert scope.hits[RULES[1].raw] == 2
        assert sum(scope.checks.values()) == scope.cost.sum
        assert scope.latency_ns.total == scope.calls

    def test_copy_carries_the_sink(self):
        matcher = NetworkMatcher(RULES)
        matcher.rule_stats = ScopedRuleStats()
        assert matcher.copy().rule_stats is matcher.rule_stats

    def test_disabled_costs_no_recording(self):
        matcher = NetworkMatcher(RULES)
        assert matcher.rule_stats is None
        matcher.first_match(URLS[0])  # must not raise, nothing recorded


class TestAdblockerElementHits:
    def test_element_rule_hits_reach_the_scope(self):
        filter_list = parse_filter_list(
            "##.adblock-overlay\n||ads.example.com^", name="test"
        )
        adblocker = Adblocker([filter_list])
        scope = adblocker.rule_stats = ScopedRuleStats()
        document = parse_html("<body><div class='adblock-overlay'></div></body>")
        triggered = adblocker.hide_elements(document, "http://site.com/")
        assert len(triggered) == 1
        assert scope.hits == {"##.adblock-overlay": 1}
        # The network matcher inherits the same sink via the property.
        adblocker.should_block("http://ads.example.com/a.js", "http://site.com/")
        assert scope.hits["||ads.example.com^"] == 1


class TestStore:
    KEY = {"schema": 1, "seed": 1, "scale": 0.01}

    def _payload(self, probed=2):
        collector = RuleStatsCollector()
        collector.scope("AAK").record_call(probed, 100, RULES[0])
        return collector.as_payload()

    def test_accumulates_across_merges(self, tmp_path):
        store = RuleStatsStore(tmp_path)
        store.merge_into(self.KEY, self._payload())
        path = store.merge_into(self.KEY, self._payload())
        assert path.name == f"rulestats-{store.key_digest(self.KEY)}.json"
        loaded = store.load(self.KEY)
        assert loaded["lists"]["AAK"]["calls"] == 2
        assert loaded["lists"]["AAK"]["hits"][RULES[0].raw] == 2

    def test_distinct_keys_do_not_collide(self, tmp_path):
        store = RuleStatsStore(tmp_path)
        store.merge_into(self.KEY, self._payload())
        store.merge_into({**self.KEY, "seed": 2}, self._payload())
        assert len(list(tmp_path.glob("rulestats-*.json"))) == 2
        merged = store.load_merged()
        assert merged["lists"]["AAK"]["calls"] == 2

    def test_missing_key_loads_none(self, tmp_path):
        assert RuleStatsStore(tmp_path).load(self.KEY) is None
        assert RuleStatsStore(tmp_path / "absent").load_merged()["lists"] == {}


class TestPrune:
    LIST_TEXT = "\n".join(
        [
            "||ads.example.com^",
            "||tracker.net/pixel.gif",
            "/never-matches-anything/",
            "@@||benign.org/app.js",
        ]
    )

    def test_prunes_unhit_rules(self):
        filter_list = parse_filter_list(self.LIST_TEXT, name="aak")
        result = prune_dead_rules(filter_list, {"||ads.example.com^": 3})
        assert result.kept == 1
        assert result.dropped == 3
        assert result.pruned.name == "aak-pruned"
        assert "/never-matches-anything/" in result.dropped_rules
        assert result.dropped_fraction == 0.75

    def test_keep_exceptions(self):
        filter_list = parse_filter_list(self.LIST_TEXT, name="aak")
        result = prune_dead_rules(
            filter_list, {"||ads.example.com^": 3}, keep_exceptions=True
        )
        kept_raws = [parsed.rule.raw for parsed in result.pruned.rules]
        assert "@@||benign.org/app.js" in kept_raws
        assert result.kept == 2

    def test_pruned_list_reproduces_decisions_on_observed_traffic(self):
        filter_list = parse_filter_list(self.LIST_TEXT, name="aak")
        full = NetworkMatcher(filter_list.network_rules)
        scope = full.rule_stats = ScopedRuleStats()
        for url in URLS:
            full.first_match(url)
        pruned_list = prune_dead_rules(filter_list, scope.hits).pruned
        pruned = NetworkMatcher(pruned_list.network_rules)
        for url in URLS:
            assert pruned.first_match(url) is full.first_match(url)


class TestRuleReport:
    @staticmethod
    def _history():
        history = FilterListHistory("AAK")
        history.add_revision(date(2014, 1, 1), "||ads.example.com^")
        history.add_revision(
            date(2015, 1, 1), "||ads.example.com^\n/never-matches-anything/"
        )
        return history

    def _payload(self):
        collector = RuleStatsCollector()
        scope = collector.scope("AAK")
        scope.record_call(2, 100, RULES[0])
        scope.checks.update({"/never-matches-anything/": 9, RULES[0].raw: 2})
        return collector.as_payload()

    def test_dead_rule_series_and_shares(self):
        report = build_rule_report(self._payload(), {"AAK": self._history()})
        entry = report.data["lists"]["AAK"]
        assert entry["rules_total"] == 2
        assert entry["dead_rules"] == 1
        assert entry["dead_fraction"] == 0.5
        assert [point["dead"] for point in entry["dead_rule_series"]] == [0, 1]
        assert entry["top_dead_cost"][0]["rule"] == "/never-matches-anything/"
        assert entry["dead_cost_share"] == pytest.approx(9 / 11, abs=1e-6)

    def test_report_without_history_still_has_totals(self):
        report = build_rule_report(self._payload(), {})
        entry = report.data["lists"]["AAK"]
        assert entry["hits_total"] == 1
        assert "rules_total" not in entry

    def test_overlap(self):
        other = FilterListHistory("CE")
        other.add_revision(date(2015, 1, 1), "||ads.example.com^\n##.ce-only")
        payload = self._payload()
        ce = RuleStatsCollector()
        ce.merge_payload(payload)
        ce.scope("CE").record_call(1, 100, RULES[0])
        report = build_rule_report(
            ce.as_payload(), {"AAK": self._history(), "CE": other}
        )
        (pair,) = report.data["overlap"]
        assert pair["lists"] == ["AAK", "CE"]
        assert pair["rules_shared"] == 1
        assert pair["hit_rules_shared"] == 1

    def test_canonical_json_excludes_timing(self):
        report = build_rule_report(self._payload(), {"AAK": self._history()})
        assert "latency_ns" not in report.to_json()
        assert "latency_ns" in report.to_json(include_timing=True)
        assert report.timing["AAK"]["latency_quantiles_ns"]["p50"] is not None

    def test_render_embeds_canonical_json(self):
        report = build_rule_report(self._payload(), {"AAK": self._history()})
        rendered = report.render()
        assert '"Filter the filters"' in rendered
        assert "== canonical JSON ==" in rendered
        assert report.to_json() in rendered


def _coverage_canonical(ctx, workers):
    """Run the §4.2 replay under a fresh collector; return (result, payload)."""
    collector = RuleStatsCollector()
    previous = set_rule_stats(collector)
    try:
        result = CoverageAnalyzer(ctx.histories).analyze(ctx.crawl, workers=workers)
    finally:
        set_rule_stats(previous)
    return result, json.dumps(collector.canonical_payload(), sort_keys=True)


def _live_canonical(ctx, workers):
    collector = RuleStatsCollector()
    previous = set_rule_stats(collector)
    try:
        result = LiveCrawler(ctx.world, ctx.histories).crawl(workers=workers)
    finally:
        set_rule_stats(previous)
    return result, json.dumps(collector.canonical_payload(), sort_keys=True)


class TestEndToEndDeterminism:
    def test_coverage_serial_vs_fork_parallel(self, ctx):
        serial_result, serial_payload = _coverage_canonical(ctx, workers=1)
        fork_result, fork_payload = _coverage_canonical(ctx, workers=2)
        assert serial_payload == fork_payload
        assert pickle.dumps(serial_result) == pickle.dumps(fork_result)
        assert json.loads(serial_payload)["lists"]  # non-trivial accounting

    def test_live_crawl_serial_vs_parallel(self, ctx):
        serial_result, serial_payload = _live_canonical(ctx, workers=1)
        fork_result, fork_payload = _live_canonical(ctx, workers=2)
        assert serial_payload == fork_payload
        assert pickle.dumps(serial_result) == pickle.dumps(fork_result)
        assert json.loads(serial_payload)["lists"]

    def test_stats_on_never_changes_results(self, ctx, stats_off):
        baseline = CoverageAnalyzer(ctx.histories).analyze(ctx.crawl, workers=1)
        with_stats, _ = _coverage_canonical(ctx, workers=1)
        assert pickle.dumps(baseline) == pickle.dumps(with_stats)

    def test_report_json_identical_across_modes(self, ctx):
        _, serial_payload = _coverage_canonical(ctx, workers=1)
        _, fork_payload = _coverage_canonical(ctx, workers=2)
        serial_report = build_rule_report(json.loads(serial_payload), ctx.histories)
        fork_report = build_rule_report(json.loads(fork_payload), ctx.histories)
        assert serial_report.to_json() == fork_report.to_json()
        assert serial_report.render() == fork_report.render()


class TestLateAccounting:
    """``rulereport`` switches accounting on after coverage and live ran,
    then re-drives both stages; forked workers must see the collector."""

    @staticmethod
    def late_report(monkeypatch, workers):
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        set_rule_stats(None)
        ctx = ExperimentContext.create(scale=0.01)
        ctx.coverage
        ctx.live
        report = rulereport.run(ctx)
        return report, rulereport.render(report)

    def test_parallel_report_is_whole_and_equals_serial(self, monkeypatch, stats_off):
        parallel, parallel_text = self.late_report(monkeypatch, workers=2)
        assert parallel.data["lists"]
        _, serial_text = self.late_report(monkeypatch, workers=1)
        assert parallel_text == serial_text
