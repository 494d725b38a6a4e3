"""End-to-end warm starts: the context resolves stages through the graph.

These are the PR's acceptance tests: a second process pointed at the
same ``REPRO_RUN_CACHE`` serves every stage and experiment from disk,
with values (and rendered-artifact digests) identical to the cold run.
"""

import hashlib
import importlib
import os

import pytest

import repro.experiments.fig1 as fig1
import repro.experiments.fig6 as fig6
import repro.experiments.sec43 as sec43
import repro.experiments.stability as stability
import repro.experiments.table1 as table1
from repro.__main__ import EXPERIMENTS
from repro.analysis.rulestats import set_rule_stats
from repro.experiments.context import ExperimentContext
from repro.filterlist.classify import targeted_domains
from repro.graph.store import scan_entries
from repro.obs.metrics import get_metrics, reset_metrics

SCALE = 0.02


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_CACHE", str(tmp_path))
    reset_metrics()
    return tmp_path


def fresh_ctx() -> ExperimentContext:
    """A brand-new context: the in-memory layer starts empty, as after a
    process restart (node keys never depend on process state)."""
    return ExperimentContext.create(scale=SCALE)


def assert_world_untouched(ctx: ExperimentContext) -> None:
    """The context's world built no site profile and minted no name."""
    assert ctx.world._profiles == {}
    assert ctx.world.population.minted() == []


@pytest.fixture(params=["serial", "workers-2"])
def pool_mode(request, monkeypatch):
    if request.param == "serial":
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_WORKERS", "2")


class TestStageWarmStart:
    def test_cold_then_warm_coverage(self, cache):
        cold = fresh_ctx()
        cold_result = cold.coverage
        assert [s.name for s in cold.stage_timings if s.cached] == []
        assert scan_entries(cache)  # nodes persisted

        warm = fresh_ctx()
        warm_result = warm.coverage
        cached = [s.name for s in warm.stage_timings if s.cached]
        assert cached == ["coverage"]  # upstream stages never materialise
        assert warm_result.http_series == cold_result.http_series
        assert warm_result.html_series == cold_result.html_series
        assert get_metrics().counter("graph.hits") >= 1

    def test_warm_values_equal_cold_values(self, cache):
        cold = fresh_ctx()
        cold.lists
        cold.corpus
        cold_features = cold.corpus_features("all")

        warm = fresh_ctx()
        assert sorted(warm.lists) == sorted(cold.lists)
        for key in cold.lists:
            cold_latest = cold.lists[key].latest().filter_list
            warm_latest = warm.lists[key].latest().filter_list
            assert [r.raw for r in warm_latest.network_rules] == [
                r.raw for r in cold_latest.network_rules
            ]
        assert warm.corpus_features("all") == cold_features

    def test_rendered_artifacts_byte_identical(self, cache):
        cold = fresh_ctx()
        cold_rendered = fig6.render(fig6.run(cold))
        warm = fresh_ctx()
        warm_rendered = fig6.render(fig6.run(warm))
        assert (
            hashlib.sha256(warm_rendered.encode()).hexdigest()
            == hashlib.sha256(cold_rendered.encode()).hexdigest()
        )

    def test_experiment_nodes_resolve_from_cache(self, cache):
        cold = fresh_ctx()
        graph = cold.graph
        graph.register_experiment("fig1", fig1)
        cold_rendered = graph.resolve("exp:fig1", lambda: fig1.render(fig1.run(cold)))

        warm = fresh_ctx()
        warm_graph = warm.graph
        warm_graph.register_experiment("fig1", fig1)
        ran = []
        rendered = warm_graph.resolve(
            "exp:fig1", lambda: ran.append(1) or fig1.render(fig1.run(warm))
        )
        assert ran == []  # the compute thunk never fired
        assert rendered == cold_rendered
        # The warm context materialised no stage at all.
        assert warm.stage_timings == []

    def test_disabled_graph_still_computes(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUN_CACHE", raising=False)
        ctx = fresh_ctx()
        assert not ctx.graph.enabled
        assert ctx.lists is not None
        assert [s.cached for s in ctx.stage_timings] == [False]


class TestWarmPathsBuildNoWorld:
    def test_warm_experiments_build_no_profile(self, cache, monkeypatch, request):
        # rulereport installs a process-wide rule-stats collector; later
        # tests get the previous one back.
        previous = set_rule_stats(None)
        request.addfinalizer(lambda: set_rule_stats(previous))
        # stability regenerates its own fixed worlds, never the
        # campaign's; one small seed keeps the cold fill cheap, and the
        # node key names exactly that configuration.
        monkeypatch.setattr(stability, "GRAPH_EXTRA", {"seeds": [7], "n_sites": 60})

        def render(module, ctx):
            if module is stability:
                return stability.render(stability.run(ctx, seeds=(7,), n_sites=60))
            return module.render(module.run(ctx))

        rendered = {}
        for _ in ("cold", "warm"):
            ctx = ExperimentContext.create(scale=0.01)
            for name in EXPERIMENTS:
                module = importlib.import_module(f"repro.experiments.{name}")
                ctx.graph.register_experiment(name, module)
                text = ctx.graph.resolve(f"exp:{name}", lambda: render(module, ctx))
                assert rendered.setdefault(name, text) == text
        assert len(rendered) == 14
        assert ctx.stage_timings == []
        rows = ctx.graph.manifest_section()["nodes"]
        assert {row["outcome"] for row in rows.values()} == {"hit"}
        assert_world_untouched(ctx)


def keep_only(cache, node_dir: str) -> None:
    """Drop every run-cache entry except one node's."""
    for entry in scan_entries(cache):
        if entry["node_dir"] != node_dir:
            os.remove(entry["path"])


class TestCachedLists:
    """A run whose only cached node is ``lists`` renders the cold bytes.

    Domain names are settled by mint order, and the list build mints the
    top segment and listgen's bucket samples; the ``lists`` node carries
    that mint table, so a run over cached lists names every domain (and
    answers every rank) as the run that built them.
    """

    def test_cached_lists_render_the_cold_bytes(self, cache, pool_mode):
        cold = fresh_ctx()
        cold_table1 = table1.render(table1.run(cold))
        cold_sec43 = sec43.render(sec43.run(cold))
        cold_names = [(r.rank, r.domain) for r in cold.world.live_domains()]
        keep_only(cache, "lists")

        warm = fresh_ctx()
        assert table1.render(table1.run(warm)) == cold_table1
        assert [(s.name, s.cached) for s in warm.stage_timings] == [("lists", True)]
        assert [(r.rank, r.domain) for r in warm.world.live_domains()] == cold_names
        assert sec43.render(sec43.run(warm)) == cold_sec43
        assert warm.world.population.minted() == cold.world.population.minted()

        targeted = {
            domain
            for history in cold.lists.values()
            for domain in targeted_domains(history.latest().rules)
        }
        for domain in targeted | {name for _, name in cold_names}:
            assert warm.world.population.rank_of(domain) == (
                cold.world.population.rank_of(domain)
            ), domain


class TestInvalidation:
    def test_one_line_patch_recomputes_only_downstream(self, cache, tmp_path,
                                                       monkeypatch):
        cold = fresh_ctx()
        cold.coverage  # populates archive, crawl, lists, coverage

        patch = tmp_path / "patch.txt"
        patch.write_text("! campaign hotfix\n||hotfix-tracker.example/ad.js\n")
        monkeypatch.setenv("REPRO_LIST_PATCH", str(patch))

        warm = fresh_ctx()
        warm.coverage
        by_name = {s.name: s for s in warm.stage_timings}
        # The crawl half of the fork is served from cache; the list half
        # (and everything downstream of it) recomputes.
        assert by_name["crawl"].cached is True
        assert "archive" not in by_name  # untouched on disk
        assert by_name["lists"].cached is False
        assert by_name["coverage"].cached is False
        # The patched rule actually entered the lists.
        latest = warm.lists["aak"].latest().filter_list
        assert any("hotfix-tracker" in r.raw for r in latest.network_rules)

    def test_corrupt_entry_falls_through_to_compute(self, cache):
        cold = fresh_ctx()
        cold.lists
        (entry,) = scan_entries(cache)
        raw = bytearray(open(entry["path"], "rb").read())
        raw[-1] ^= 0xFF
        open(entry["path"], "wb").write(bytes(raw))

        reset_metrics()
        warm = fresh_ctx()
        assert warm.lists is not None
        metrics = get_metrics()
        assert metrics.counter("graph.errors") == 1
        assert metrics.counter("graph.misses") == 1
        # The recompute overwrote the bad entry; a third context hits.
        reset_metrics()
        third = fresh_ctx()
        third.lists
        assert get_metrics().counter("graph.hits") == 1

    def test_invalidate_node_forces_recompute(self, cache):
        cold = fresh_ctx()
        cold.lists
        removed = cold.graph.invalidate("lists")
        assert removed == 1
        warm = fresh_ctx()
        warm.lists
        assert [s.cached for s in warm.stage_timings] == [False]


class TestManifestSection:
    def test_outcomes_cover_hits_and_stores(self, cache):
        cold = fresh_ctx()
        cold.lists
        section = cold.graph.manifest_section()
        assert section["cache_dir"] == str(cache)
        assert section["nodes"]["lists"]["outcome"] == "stored"

        warm = fresh_ctx()
        warm.lists
        warm_section = warm.graph.manifest_section()
        assert warm_section["nodes"]["lists"]["outcome"] == "hit"
        assert warm_section["nodes"]["lists"]["key"] == section["nodes"]["lists"]["key"]

    def test_section_validates_inside_a_manifest(self, cache, tmp_path):
        from repro.obs.manifest import RunManifest, validate_manifest

        ctx = fresh_ctx()
        ctx.lists
        manifest = RunManifest(tmp_path / "run.json")
        result = manifest.finalize(
            seed=ctx.world.seed, extra={"graph": ctx.graph.manifest_section()}
        )
        assert validate_manifest(result) == []
