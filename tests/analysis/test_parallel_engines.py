"""Parallel fan-outs must change wall-clock, never results.

The §3 history folds and the §4.3 live crawl fan out through
:func:`~repro.analysis.pool.map_shards` under ``workers`` > 1; both must
give what the serial run gives. (The §4 replay and §5 extraction have
their own serial-vs-parallel suites.)
"""

import pickle

import pytest

from repro.analysis.histfold import run_folds
from repro.analysis.livecrawl import LiveCrawler
from repro.experiments.context import ExperimentContext


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext.create(scale=0.01)


class TestHistfoldParallel:
    @staticmethod
    def jobs(ctx):
        from repro.analysis.evolution import composition_stats, evolution_series

        return [
            ("evo-aak", evolution_series, ctx.lists["aak"]),
            ("evo-ce", evolution_series, ctx.lists["combined_easylist"]),
            ("comp-aak", composition_stats, ctx.lists["aak"]),
            ("comp-el", composition_stats, ctx.lists["easylist"]),
        ]

    def test_results_equal_serial(self, ctx):
        """Fold results are value-equal (the folds' documented contract:
        rendered artifacts are byte-identical; the in-memory results
        cross a process boundary, so pickle *bytes* can differ through
        lost object sharing)."""
        assert run_folds(self.jobs(ctx), workers=2) == run_folds(
            self.jobs(ctx), workers=1
        )


class TestLiveCrawlParallel:
    def test_byte_identical_to_serial(self, ctx):
        serial = LiveCrawler(ctx.world, ctx.histories).crawl(workers=1)
        parallel = LiveCrawler(ctx.world, ctx.histories).crawl(workers=2)
        assert pickle.dumps(parallel) == pickle.dumps(serial)
