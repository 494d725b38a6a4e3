"""Serve warm starts: a warm ``REPRO_RUN_CACHE`` boots the daemon's state
off disk with ZERO recomputed context stages — the PR's acceptance gate."""

import pytest

from repro.experiments.context import ExperimentContext
from repro.obs.metrics import get_metrics, reset_metrics
from repro.serve.daemon import resolve_serve_state

SCALE = 0.02


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_CACHE", str(tmp_path))
    reset_metrics()
    return tmp_path


def fresh_ctx() -> ExperimentContext:
    return ExperimentContext.create(scale=SCALE)


class TestServeWarmStart:
    def test_warm_boot_recomputes_no_stage(self, cache):
        cold_ctx = fresh_ctx()
        cold = resolve_serve_state(cold_ctx)
        assert len(cold_ctx.stage_timings) > 0  # the cold boot did real work
        assert get_metrics().counter("graph.stores") >= 2

        reset_metrics()
        warm_ctx = fresh_ctx()
        warm = resolve_serve_state(warm_ctx)
        # Both serve nodes hit; no context stage materialised at all, and
        # the world built no site profile and minted no domain name.
        assert warm_ctx.stage_timings == []
        assert warm_ctx.world._profiles == {}
        assert warm_ctx.world.population.minted() == []
        assert get_metrics().counter("graph.hits") >= 2
        assert get_metrics().counter("graph.misses") == 0

        assert warm.network_lines == cold.network_lines
        assert warm.element_lines == cold.element_lines
        assert warm.seed == cold.seed

    def test_warm_detector_predicts_identically(self, cache):
        cold = resolve_serve_state(fresh_ctx())
        warm = resolve_serve_state(fresh_ctx())
        probes = [
            "var bait = document.createElement('div'); bait.className = 'adsbox';",
            "function render() { return 42; }",
            "if (document.getElementById('ad') === null) { showWall(); }",
        ]
        assert list(warm.detector.predict(probes)) == list(
            cold.detector.predict(probes)
        )

    def test_warm_chain_serves_queries(self, cache):
        resolve_serve_state(fresh_ctx())
        warm = resolve_serve_state(fresh_ctx())
        chain = warm.build_chain()
        assert chain.current.online.adblocker.rule_count == len(
            warm.network_lines
        ) + len(warm.element_lines)
