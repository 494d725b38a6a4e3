"""Benchmarks for the binary data plane and the parallel live crawl.

Quantifies the wins of ``REPRO_DATA_PLANE`` and ``REPRO_WORKERS``
against their baselines, asserting byte-identical results in the same
breath:

- **warm feature-store load**: packed mmap event segments vs the
  JSON-per-script cache;
- **request scan**: the columnar request table vs parsing HAR JSON;
- **§4.3 parallel live crawl**: two workers in one fan-out vs the
  serial crawl.

The crawl benchmarks run at 0.2 scale regardless of ``REPRO_SCALE``,
which also gives the repository round-trip assertion its large-crawl
variant (the default-scale variant lives in
``tests/wayback/test_store.py``). Timings compare best-of-N
``perf_counter`` runs of each plane; the winning plane is also run
through ``benchmark`` so the JSON artifact CI uploads carries it.
"""

import os
import pickle
import time

import numpy as np
import pytest

from repro.analysis.coverage import CoverageAnalyzer
from repro.analysis.livecrawl import LiveCrawler
from repro.core.featstore import FeatureStore
from repro.dataplane.requests import RequestTable
from repro.experiments.context import ExperimentContext
from repro.synthesis.scripts import generate_anti_adblock, generate_benign
from repro.wayback.store import DataRepository
from repro.web.har import HarFile

SCALE = 0.2


def best_of(runs, fn):
    """Best wall-clock of ``runs`` calls, plus the last result."""
    best = None
    result = None
    for _ in range(runs):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


@pytest.fixture(scope="module")
def big_ctx():
    return ExperimentContext.create(scale=SCALE)


@pytest.fixture(scope="module")
def saved_repo(big_ctx, tmp_path_factory):
    repo = DataRepository(tmp_path_factory.mktemp("crawl-repo"))
    repo.save(big_ctx.crawl, request_table=True)
    return repo


@pytest.fixture(scope="module")
def script_corpus():
    rng = np.random.default_rng(7)
    return [
        generate_anti_adblock(rng, pack_probability=0.3)
        if index % 3 == 0
        else generate_benign(rng)
        for index in range(600)
    ]


def test_bench_warm_feature_store_packed_vs_json(
    benchmark, script_corpus, tmp_path_factory
):
    """Warm feature-store load: packed + mmap ≥ 3× the JSON baseline."""
    root = tmp_path_factory.mktemp("featcache")

    def load(plane: str, packed: bool):
        return FeatureStore(
            cache_dir=str(root / plane), packed=packed
        ).events_for_corpus(script_corpus, workers=1)

    baseline = load("json", packed=False)  # cold: fills the JSON cache
    assert pickle.dumps(load("packed", packed=True)) == pickle.dumps(baseline)

    json_s, warm_json = best_of(3, lambda: load("json", packed=False))
    packed_s, warm_packed = best_of(3, lambda: load("packed", packed=True))
    assert pickle.dumps(warm_json) == pickle.dumps(baseline)
    assert pickle.dumps(warm_packed) == pickle.dumps(baseline)

    benchmark.extra_info["warm_json_s"] = json_s
    benchmark.extra_info["warm_packed_s"] = packed_s
    benchmark.extra_info["speedup"] = json_s / packed_s
    print(
        f"\n[featstore warm] json {json_s * 1000:.1f}ms "
        f"packed {packed_s * 1000:.1f}ms ({json_s / packed_s:.1f}x)"
    )
    benchmark.pedantic(lambda: load("packed", packed=True), rounds=3, iterations=1)
    assert json_s >= 3 * packed_s


def test_bench_request_scan_table_vs_har_json(benchmark, saved_repo):
    """Request-URL scan: the columnar table ≥ 3× parsing the HAR JSON."""
    har_paths = sorted(saved_repo.root.glob("*/*.har"))

    def scan_har_json():
        urls = 0
        for path in har_paths:
            har = HarFile.from_json(path.read_text(encoding="utf-8"))
            urls += len(har.request_urls())
        return urls

    def scan_table():
        urls = 0
        with RequestTable(saved_repo.table_path) as table:
            for domain, month in table.slots():
                urls += len(table.request_urls(domain, month))
        return urls

    json_s, json_urls = best_of(2, scan_har_json)
    table_s, table_urls = best_of(2, scan_table)
    assert table_urls == json_urls  # identical scan, different plane

    benchmark.extra_info["har_json_s"] = json_s
    benchmark.extra_info["table_s"] = table_s
    benchmark.extra_info["speedup"] = json_s / table_s
    print(
        f"\n[request scan] har-json {json_s:.2f}s "
        f"table {table_s:.2f}s ({json_s / table_s:.1f}x)"
    )
    benchmark.pedantic(scan_table, rounds=1, iterations=1)
    assert json_s >= 3 * table_s


def test_bench_repository_roundtrip_large(big_ctx, saved_repo):
    """0.2-scale round-trip: both load planes replay digest-identically."""
    loaded = saved_repo.load()
    replay = saved_repo.load_replay()
    assert [record.status for record in loaded.records] == [
        record.status for record in big_ctx.crawl.records
    ]
    baseline = CoverageAnalyzer(big_ctx.histories).analyze(big_ctx.crawl)
    from_json = CoverageAnalyzer(big_ctx.histories).analyze(loaded)
    from_table = CoverageAnalyzer(big_ctx.histories).analyze(replay)
    assert pickle.dumps(from_json) == pickle.dumps(from_table)
    assert from_json == baseline
    assert from_table == baseline


def _cold_crawler() -> LiveCrawler:
    """A crawler over a fresh world: the first crawl of a world builds its
    live pages, so a crawl over a world an earlier crawl warmed would time
    less work than ``repro sec43`` does."""
    ctx = ExperimentContext.create(scale=SCALE)
    return LiveCrawler(ctx.world, ctx.histories)


def test_bench_sec43_parallel_vs_serial(benchmark):
    """§4.3 with 2 workers: the serial crawl's bytes, and faster than it
    wherever two cores are there to run on."""
    serial_crawler, parallel_crawler = _cold_crawler(), _cold_crawler()
    serial_s, serial_result = best_of(1, lambda: serial_crawler.crawl(workers=1))
    parallel_s, parallel_result = best_of(1, lambda: parallel_crawler.crawl(workers=2))
    assert pickle.dumps(parallel_result) == pickle.dumps(serial_result)

    benchmark.extra_info["serial_s"] = serial_s
    benchmark.extra_info["parallel_s"] = parallel_s
    benchmark.extra_info["speedup"] = serial_s / parallel_s
    print(
        f"\n[sec43 2 workers, cold worlds] serial {serial_s:.2f}s "
        f"parallel {parallel_s:.2f}s ({serial_s / parallel_s:.2f}x)"
    )
    benchmark.pedantic(
        lambda crawler: crawler.crawl(workers=2),
        setup=lambda: ((_cold_crawler(),), {}),
        rounds=1,
    )
    if (os.cpu_count() or 1) >= 2:
        assert parallel_s < serial_s
