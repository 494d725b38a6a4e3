"""The §5 feature engine: one parse per script, byte-identical everywhere.

Mirrors the §4 parallel-replay acceptance bar
(``tests/analysis/test_parallel_coverage.py``): sharded and warm-cache
extraction must reproduce the serial result *byte for byte* (pickle
equality), not approximately — and per-script failures must surface as
obs counters rather than silent empty feature sets.
"""

import hashlib
import json
import pickle

import numpy as np
import pytest

from repro.core.featstore import (
    EXTRACTOR_VERSION,
    FeatureStore,
    extract_events,
    get_feature_store,
    set_feature_store,
    source_digest,
)
from repro.core.features import features_for_corpus, features_from_source
from repro.experiments import table3
from repro.experiments.context import ExperimentContext
from repro.jsast.parser import parse
from repro.jsast.unpack import unpack_program
from repro.obs.manifest import RunManifest
from repro.obs.metrics import get_metrics, reset_metrics
from repro.obs.trace import disable_tracing, enable_tracing, get_tracer
from repro.synthesis.scripts import generate_anti_adblock, generate_benign
from repro.synthesis.world import SyntheticWorld, WorldConfig

WELL_FORMED = "if (window.adblock) { document.getElementById('ad').style.display = 'none'; }"
MALFORMED = "}{ this is not javascript ]["
#: Unpacking folds the payload to a constant string, which then fails to
#: parse — the unpack engine bails out and keeps the packed form.
BAILOUT = "var p = eval('}{' + '');"


@pytest.fixture(scope="module")
def corpus_sources():
    world = SyntheticWorld(WorldConfig(n_sites=120, live_top=400))
    ctx = ExperimentContext(world=world)
    return ctx.corpus.sources()


@pytest.fixture()
def isolated_store():
    """Run a test against a fresh shared store, restoring the old one."""
    store = FeatureStore()
    previous = set_feature_store(store)
    try:
        yield store
    finally:
        set_feature_store(previous)


class TestExtractEvents:
    def test_events_match_direct_extraction(self):
        entry = extract_events(WELL_FORMED)
        for feature_set in ("all", "literal", "keyword"):
            assert entry.features(feature_set) == features_from_source(
                WELL_FORMED, feature_set=feature_set
            )

    def test_parse_error_yields_empty_events(self):
        entry = extract_events(MALFORMED)
        assert entry.parse_error
        assert entry.events == ()
        assert entry.features("all") == set()

    def test_unparseable_eval_payload_is_a_bailout(self):
        entry = extract_events(BAILOUT, unpack=True)
        assert entry.unpack_bailout
        assert not entry.parse_error

    def test_no_unpack_no_bailout(self):
        assert not extract_events(BAILOUT, unpack=False).unpack_bailout


#: A hand-written Dean Edwards ``p,a,c,k,e,d`` packer; the generators and
#: the world's pages carry none.
DEAN_EDWARDS = (
    "eval(function(p,a,c,k,e,d){e=function(c){return c.toString(36)};"
    "while(c--){if(k[c]){p=p.replace(new RegExp('\\\\b'+e(c)+'\\\\b','g'),k[c])}}"
    "return p}('0 1=2.3(\\'4\\');1.5=\\'6\\';',7,7,"
    "'var|bait|document|createElement|div|className|adsbox'.split('|'),0,{}))"
)

#: sha256 of the pickled ``(extract_events(s, True), extract_events(s,
#: False))`` pairs over :func:`pinned_corpus`. No artifact digest covers
#: the unpacker (the world holds no packed script), so this pins it.
EXTRACTION_SHA256 = "4afbcdcbfc0191dca1022009e1524153ce0340219d37f297c1b39b7471475ed2"


def pinned_corpus():
    """Anti-adblock scripts (half eval-packed), benign ones, and a packer."""
    rng = np.random.default_rng(20261019)
    sources = []
    for _ in range(24):
        sources.append(generate_anti_adblock(rng, pack_probability=0.5))
        sources.append(generate_benign(rng))
    sources.append(DEAN_EDWARDS)
    return sources


class TestPinnedExtraction:
    def test_event_streams_match_the_pin(self):
        entries = [(extract_events(s, True), extract_events(s, False)) for s in pinned_corpus()]
        digest = hashlib.sha256(pickle.dumps(entries, protocol=4)).hexdigest()
        assert digest == EXTRACTION_SHA256

    def test_corpus_reaches_the_unpacker(self):
        results = [unpack_program(parse(source)) for source in pinned_corpus()]
        assert sum(result.was_packed for result in results) >= 5
        assert not all(result.was_packed for result in results)
        packer = results[-1]
        assert packer.rounds == 1
        assert packer.unpacked_sources == [
            "var bait=document.createElement('div');bait.className='adsbox';"
        ]

    def test_gated_unpack_equals_the_full_walk(self):
        for source in pinned_corpus():
            gated = unpack_program(parse(source))
            program = parse(source)
            program.dynamic_calls = None  # unknown calls: the full walk
            full = unpack_program(program)
            assert gated.program == full.program
            assert gated.rounds == full.rounds
            assert gated.unpacked_sources == full.unpacked_sources
            assert gated.failed_payloads == full.failed_payloads
            assert gated.hit_round_cap == full.hit_round_cap


class TestStoreAccounting:
    def test_duplicates_parse_once(self):
        store = FeatureStore()
        store.features_for_corpus([WELL_FORMED, BAILOUT, WELL_FORMED])
        assert store.stats.extracted == 2
        assert store.stats.memo_hits == 1

    def test_repeat_and_cross_set_calls_hit_the_memo(self):
        store = FeatureStore()
        first = store.features_for_corpus([WELL_FORMED], feature_set="all")
        second = store.features_for_corpus([WELL_FORMED], feature_set="keyword")
        assert store.stats.extracted == 1
        assert store.stats.memo_hits == 1
        assert second[0] <= first[0]

    def test_failures_surface_as_metrics_counters(self):
        reset_metrics()
        store = FeatureStore()
        features = store.features_for_corpus([WELL_FORMED, MALFORMED, BAILOUT])
        counters = get_metrics().as_dict()["counters"]
        assert counters["features.parse_errors"] == 1
        assert counters["features.unpack_bailouts"] == 1
        assert counters["features.extracted"] == 3
        assert store.stats.parse_errors == 1
        assert store.stats.unpack_bailouts == 1
        # The malformed script degrades to an empty set, not an exception.
        assert features[1] == set()
        reset_metrics()


class TestInternTableBounds:
    def test_intern_tables_are_rebuilt_after_memo_eviction(self):
        """The tables must not grow unboundedly as the LRU memo churns."""
        store = FeatureStore(memo_capacity=2, intern_limit=8)
        for index in range(40):
            store.features_for_corpus([f"var unique_name_{index} = {index};"])
        # A leak would retain strings from all 40 scripts; the rebuilt
        # tables hold only what the 2 live memo entries reference.
        live_strings = {
            part
            for entry in store._memo.values()
            for kind, text, contexts in entry.events
            for part in (kind, text, *contexts)
        }
        assert set(store._strings) <= live_strings

    def test_rebuild_preserves_sharing_and_results(self):
        bounded = FeatureStore(memo_capacity=2, intern_limit=1)
        unbounded = FeatureStore()
        sources = [f"var v{index} = {index};" for index in range(10)] + [WELL_FORMED]
        assert pickle.dumps(
            bounded.features_for_corpus(sources)
        ) == pickle.dumps(unbounded.features_for_corpus(sources))


class TestSerialParallelIdentity:
    def test_events_are_byte_identical(self, corpus_sources):
        serial = FeatureStore().events_for_corpus(corpus_sources, workers=1)
        parallel = FeatureStore().events_for_corpus(corpus_sources, workers=4)
        assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_features_are_byte_identical(self, corpus_sources):
        serial = FeatureStore().features_for_corpus(corpus_sources, workers=1)
        parallel = FeatureStore().features_for_corpus(corpus_sources, workers=4)
        assert serial == parallel

    def test_worker_count_larger_than_corpus_is_safe(self):
        sources = [WELL_FORMED, BAILOUT]
        wide = FeatureStore().events_for_corpus(sources, workers=64)
        narrow = FeatureStore().events_for_corpus(sources, workers=1)
        assert pickle.dumps(wide) == pickle.dumps(narrow)

    def test_sharded_run_reports_per_worker_payloads(self, corpus_sources):
        enable_tracing()
        try:
            FeatureStore().events_for_corpus(corpus_sources, workers=3)
            roots = get_tracer().roots
        finally:
            disable_tracing()
            get_tracer().reset()
        extract_spans = [r for r in roots if r.name == "features:extract"]
        assert len(extract_spans) == 1
        shards = [
            child
            for child in extract_spans[0].children
            if child.name.startswith("shard:")
        ]
        assert len(shards) == extract_spans[0].attributes["shards"] > 1
        assert sum(child.attributes["scripts"] for child in shards) > 0


class TestDiskCache:
    def test_cold_then_warm_is_byte_identical(self, corpus_sources, tmp_path):
        cold = FeatureStore(cache_dir=tmp_path)
        cold_events = cold.events_for_corpus(corpus_sources)
        assert cold.stats.disk_writes == cold.stats.extracted > 0

        warm = FeatureStore(cache_dir=tmp_path)
        warm_events = warm.events_for_corpus(corpus_sources)
        assert warm.stats.extracted == 0
        assert warm.stats.disk_hits == cold.stats.extracted
        assert pickle.dumps(warm_events) == pickle.dumps(cold_events)

    def test_warm_cache_matches_uncached_store(self, corpus_sources, tmp_path):
        plain = FeatureStore().events_for_corpus(corpus_sources)
        FeatureStore(cache_dir=tmp_path).events_for_corpus(corpus_sources)
        warm = FeatureStore(cache_dir=tmp_path).events_for_corpus(corpus_sources)
        assert pickle.dumps(plain) == pickle.dumps(warm)

    def test_entries_are_keyed_by_version_and_unpack(self, tmp_path):
        store = FeatureStore(cache_dir=tmp_path)
        store.events_for_corpus([WELL_FORMED], unpack=True)
        store.events_for_corpus([WELL_FORMED], unpack=False)
        digest = source_digest(WELL_FORMED)
        root = tmp_path / f"v{EXTRACTOR_VERSION}" / digest[:2]
        assert (root / f"{digest}.u1.json").exists()
        assert (root / f"{digest}.u0.json").exists()

    def test_corrupt_entry_falls_back_to_extraction(self, tmp_path):
        first = FeatureStore(cache_dir=tmp_path)
        first.events_for_corpus([WELL_FORMED])
        digest = source_digest(WELL_FORMED)
        path = tmp_path / f"v{EXTRACTOR_VERSION}" / digest[:2] / f"{digest}.u1.json"
        path.write_text("{not json")

        recovered = FeatureStore(cache_dir=tmp_path)
        events = recovered.events_for_corpus([WELL_FORMED])
        assert recovered.stats.disk_hits == 0
        assert recovered.stats.extracted == 1
        assert events[0].features("all") == features_from_source(WELL_FORMED)

    def test_wrong_version_payload_is_ignored(self, tmp_path):
        store = FeatureStore(cache_dir=tmp_path)
        store.events_for_corpus([WELL_FORMED])
        digest = source_digest(WELL_FORMED)
        path = tmp_path / f"v{EXTRACTOR_VERSION}" / digest[:2] / f"{digest}.u1.json"
        payload = json.loads(path.read_text())
        payload["v"] = EXTRACTOR_VERSION + 1
        path.write_text(json.dumps(payload))

        reread = FeatureStore(cache_dir=tmp_path)
        reread.events_for_corpus([WELL_FORMED])
        assert reread.stats.disk_hits == 0
        assert reread.stats.extracted == 1


class TestSharedStore:
    def test_features_for_corpus_uses_the_shared_store(self, isolated_store):
        features_for_corpus([WELL_FORMED])
        features_for_corpus([WELL_FORMED], feature_set="keyword")
        assert isolated_store.stats.extracted == 1
        assert isolated_store.stats.memo_hits == 1

    def test_set_feature_store_swaps_and_restores(self):
        replacement = FeatureStore()
        previous = set_feature_store(replacement)
        try:
            assert get_feature_store() is replacement
        finally:
            set_feature_store(previous)


class TestColdWarmArtifactDigests:
    """Whole-experiment acceptance: table3 renders and manifest artifact
    digests are identical between a cold-cache and a warm-cache run."""

    @staticmethod
    def _run_table3(cache_dir):
        world = SyntheticWorld(WorldConfig(n_sites=120, live_top=400))
        ctx = ExperimentContext(world=world)
        store = FeatureStore(cache_dir=cache_dir)
        previous = set_feature_store(store)
        try:
            rendered = table3.render(table3.run(ctx, n_folds=5))
        finally:
            set_feature_store(previous)
        return rendered, store.stats

    def test_digests_identical_and_warm_run_hits_disk(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold_rendered, cold_stats = self._run_table3(cache_dir)
        warm_rendered, warm_stats = self._run_table3(cache_dir)
        assert cold_rendered == warm_rendered
        assert cold_stats.disk_writes > 0
        assert warm_stats.disk_hits > 0
        assert warm_stats.extracted == 0

        digests = []
        for label, rendered in (("cold", cold_rendered), ("warm", warm_rendered)):
            manifest = RunManifest(tmp_path / label / "run.json")
            manifest.record_artifact("table3", rendered)
            data = manifest.finalize(experiments=["table3"])
            digests.append(data["artifacts"]["table3"]["sha256"])
        assert digests[0] == digests[1]
