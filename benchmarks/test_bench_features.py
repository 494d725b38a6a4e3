"""Benchmarks for the §5 feature-extraction engine.

Quantifies the two tentpole wins of the content-addressed event store:

- **parse-once vs per-set**: deriving all three feature sets from one
  cached token-event stream versus re-parsing the corpus per set (the
  pre-engine behavior, still reachable via ``features_from_source``);
- **cold vs warm cache**: extraction against an empty on-disk cache
  versus a populated one (``REPRO_FEATURE_CACHE`` between CLI runs);
- **fresh-script extraction**: ``extract_events`` on scripts no cache has
  seen, the cost a served script pays on a verdict-cache miss, over an
  all ``eval``-packed corpus and an unpacked one. On the packed corpus the
  unpacker's gate never skips, so it shows the gate costs nothing there.

Results land in the ``--benchmark-json`` artifact CI uploads, alongside
the store's own hit/miss counters in ``extra_info``.
"""

import numpy as np
import pytest

from repro.core.features import FEATURE_SETS, features_from_source
from repro.core.featstore import FeatureStore, extract_events
from repro.synthesis.scripts import generate_anti_adblock, generate_benign


@pytest.fixture(scope="module")
def script_corpus():
    """A mixed corpus, sized so per-script parse cost dominates."""
    rng = np.random.default_rng(42)
    corpus = []
    for index in range(60):
        if index % 3 == 0:
            corpus.append(generate_anti_adblock(rng, pack_probability=0.3))
        else:
            corpus.append(generate_benign(rng))
    return corpus


def test_bench_per_set_reparse(benchmark, script_corpus):
    """Pre-engine behavior: one full parse per (script, feature set)."""

    def extract_each_set():
        out = {}
        for feature_set in FEATURE_SETS:
            out[feature_set] = [
                features_from_source(source, feature_set=feature_set)
                for source in script_corpus
            ]
        return out

    result = benchmark(extract_each_set)
    assert all(any(result[fs]) for fs in FEATURE_SETS)


def test_bench_parse_once_all_sets(benchmark, script_corpus):
    """Engine behavior: one parse, every feature set by kind-filtering."""

    def extract_shared():
        store = FeatureStore()
        return store.features_by_set(script_corpus, feature_sets=FEATURE_SETS)

    result = benchmark(extract_shared)
    assert all(any(result[fs]) for fs in FEATURE_SETS)


def test_bench_cold_disk_cache(benchmark, script_corpus, tmp_path_factory):
    """Extraction with an empty on-disk cache (parse + write entries)."""
    counter = iter(range(10_000))

    def cold_run():
        directory = tmp_path_factory.mktemp(f"cold{next(counter)}")
        store = FeatureStore(cache_dir=directory)
        features = store.features_for_corpus(script_corpus)
        return store, features

    store, features = benchmark(cold_run)
    assert store.stats.disk_writes > 0
    assert any(features)
    benchmark.extra_info["store_stats"] = store.stats.as_dict()


def test_bench_warm_disk_cache(benchmark, script_corpus, tmp_path):
    """Extraction against a populated cache (reads only, no parsing)."""
    FeatureStore(cache_dir=tmp_path).features_for_corpus(script_corpus)

    def warm_run():
        store = FeatureStore(cache_dir=tmp_path)
        features = store.features_for_corpus(script_corpus)
        return store, features

    store, features = benchmark(warm_run)
    assert store.stats.extracted == 0
    assert store.stats.disk_hits > 0
    assert any(features)
    benchmark.extra_info["store_stats"] = store.stats.as_dict()


@pytest.fixture(scope="module")
def fresh_corpora():
    """Anti-adblock scripts, every one ``eval``-packed or none of them."""
    corpora = {}
    for name, pack_probability in (("packed", 1.0), ("unpacked", 0.0)):
        rng = np.random.default_rng(43)
        corpora[name] = [
            generate_anti_adblock(rng, pack_probability=pack_probability) for _ in range(60)
        ]
    return corpora


@pytest.mark.parametrize("corpus", ["packed", "unpacked"])
def test_bench_fresh_script_extraction(benchmark, fresh_corpora, corpus):
    """Parse, unpack and walk each script, with no memo or disk cache."""
    sources = fresh_corpora[corpus]

    def extract_all():
        return [extract_events(source) for source in sources]

    entries = benchmark(extract_all)
    assert all(entry.events and not entry.parse_error for entry in entries)
    assert not any(entry.unpack_bailout for entry in entries)
    benchmark.extra_info["scripts"] = len(sources)
