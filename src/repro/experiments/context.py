"""Shared experiment context: one world, one crawl, reused by every driver.

The paper's artifacts all derive from the same measurement campaign, so
the drivers share a lazily-built :class:`ExperimentContext`. ``scale``
controls fidelity: 1.0 is paper scale (top-5K crawled, top-100K live);
the default 0.08 (400 sites / 8K live) reproduces every shape in seconds.
Set the ``REPRO_SCALE`` environment variable to override globally.

Every lazy stage resolves through the campaign's content-addressed
artifact graph (:mod:`repro.graph`): in-process memory first, then —
when ``REPRO_RUN_CACHE`` points at a run-cache directory — the persisted
node keyed by ``(inputs-digest, code-version)``, and only then an actual
compute. A stage served from the run cache is recorded with a
``cached`` attribute in its :class:`StageTiming`; a stage whose build
raises is recorded with an ``error`` attribute, so run manifests show
where a run died.
"""

from __future__ import annotations

import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..analysis.coverage import CoverageAnalyzer, CoverageResult
from ..analysis.livecrawl import LiveCrawler, LiveCrawlResult
from ..analysis.perf import PerfCounters, repro_workers
from ..core.corpus import Corpus, build_corpus
from ..filterlist.history import FilterListHistory
from ..filterlist.matcher import NetworkMatcher
from ..graph import ArtifactGraph, feature_node_name
from ..obs.config import list_patch_file, repro_scale
from ..obs.metrics import get_metrics
from ..obs.trace import span as trace_span
from ..resilience import ResiliencePolicy, default_resilience
from ..synthesis.listgen import FilterListGenerator, apply_list_patch, generate_all_lists
from ..synthesis.seeds import DEFAULT_SEED
from ..synthesis.world import SyntheticWorld, WorldConfig
from ..wayback.archive import WaybackArchive
from ..wayback.crawler import CrawlResult, WaybackCrawler

#: Canonical display names used across all drivers.
AAK = "Anti-Adblock Killer"
CE = "Combined EasyList"

logger = logging.getLogger("repro.experiments")


def default_scale() -> float:
    """Experiment scale from ``REPRO_SCALE`` (default 0.08)."""
    return repro_scale()


@dataclass
class StageTiming:
    """One completed pipeline stage of a context's lazy build chain."""

    name: str
    wall_s: float
    cpu_s: float
    #: Process peak RSS in KiB when the stage finished (``getrusage``;
    #: ``None`` where the ``resource`` module is unavailable). A high-water
    #: mark, so it attributes the *first* stage that reached a plateau.
    max_rss_kb: Optional[int] = None
    #: cpu_s / wall_s — ~1.0 means a serial CPU-bound stage; > 1 only
    #: happens via in-process threads, < 1 means waiting (or forked
    #: children doing the work, whose CPU is not counted here).
    cpu_util: Optional[float] = None
    #: The stage was served from the artifact-graph run cache (the
    #: timing covers loading the persisted node, not a recompute).
    cached: bool = False
    #: ``"ExcType: message"`` when the stage's build raised mid-way; the
    #: timing covers the work done up to the failure.
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }
        if self.max_rss_kb is not None:
            data["max_rss_kb"] = self.max_rss_kb
        if self.cpu_util is not None:
            data["cpu_util"] = self.cpu_util
        if self.cached:
            data["cached"] = True
        if self.error is not None:
            data["error"] = self.error
        return data


def _peak_rss_kb() -> Optional[int]:
    """Current process peak RSS in KiB, or ``None`` off-POSIX."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes there
        rss //= 1024
    return int(rss)


def default_workers() -> int:
    """Worker count for every batch fan-out, from ``REPRO_WORKERS``
    (default 1 = serial); serving never fans out."""
    return repro_workers()


@dataclass
class ExperimentContext:
    """Lazily materialised measurement campaign."""

    world: SyntheticWorld
    _lists: Optional[Dict[str, FilterListHistory]] = field(default=None, repr=False)
    _histories: Optional[Dict[str, FilterListHistory]] = field(default=None, repr=False)
    _archive: Optional[WaybackArchive] = field(default=None, repr=False)
    _crawl: Optional[CrawlResult] = field(default=None, repr=False)
    _coverage: Optional[CoverageResult] = field(default=None, repr=False)
    _analyzer: Optional[CoverageAnalyzer] = field(default=None, repr=False)
    _live: Optional[LiveCrawlResult] = field(default=None, repr=False)
    _corpus: Optional[Corpus] = field(default=None, repr=False)
    #: (feature_set, unpack) → per-script §5 features, shared by every
    #: driver so no experiment extracts the same pair twice.
    _corpus_features: Dict[Tuple[str, bool], List[Set[str]]] = field(
        default_factory=dict, repr=False
    )
    #: Completed lazy-build stages (lists, archive, crawl, coverage, …),
    #: in execution order; the run manifest and bench harness read these.
    stage_timings: List[StageTiming] = field(default_factory=list, repr=False)
    #: One resilience policy (retry/journal/fault settings) shared by the
    #: crawl, live and corpus stages; resolved from the ``REPRO_*`` knobs
    #: on first use unless injected explicitly.
    _resilience: Optional[ResiliencePolicy] = field(default=None, repr=False)
    #: The campaign's artifact graph (run-cache warm starts); built from
    #: ``REPRO_RUN_CACHE`` on first use unless injected explicitly.
    _graph: Optional[ArtifactGraph] = field(default=None, repr=False)

    # -- observability ------------------------------------------------------------

    @contextmanager
    def _stage(self, name: str, cached: bool = False, **attributes):
        """Time one lazy build as a named stage (span + metrics + log).

        Besides wall/CPU time, each stage records the process's peak RSS
        and its CPU utilization (cpu_s / wall_s) — as span attributes
        (so ``--trace`` shows them), as ``stage.*`` gauges, and on the
        :class:`StageTiming` the run manifest serializes. A stage whose
        body raises is still recorded, with the exception on its
        ``error`` attribute; ``cached=True`` marks a run-cache load.
        """
        logger.info("stage %s: starting%s", name, " (run-cache)" if cached else "")
        wall0, cpu0 = time.perf_counter(), time.process_time()
        wall = cpu = 0.0
        rss_kb: Optional[int] = None
        cpu_util: Optional[float] = None
        error: Optional[str] = None
        try:
            with trace_span(f"stage:{name}", cached=cached, **attributes) as stage_span:
                try:
                    yield
                except BaseException as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    stage_span.set(error=error)
                    raise
                finally:
                    wall = time.perf_counter() - wall0
                    cpu = time.process_time() - cpu0
                    rss_kb = _peak_rss_kb()
                    cpu_util = round(cpu / wall, 4) if wall > 0 else 0.0
                    stage_span.set(cpu_util=cpu_util)
                    if rss_kb is not None:
                        stage_span.set(max_rss_kb=rss_kb)
        finally:
            self.stage_timings.append(
                StageTiming(
                    name,
                    wall,
                    cpu,
                    max_rss_kb=rss_kb,
                    cpu_util=cpu_util,
                    cached=cached,
                    error=error,
                )
            )
            metrics = get_metrics()
            metrics.gauge(f"stage.{name}.wall_s", wall)
            metrics.gauge(f"stage.{name}.cpu_s", cpu)
            if cpu_util is not None:
                metrics.gauge(f"stage.{name}.cpu_util", cpu_util)
            if rss_kb is not None:
                metrics.gauge(f"stage.{name}.max_rss_kb", float(rss_kb))
            if error is None:
                logger.info("stage %s: finished in %.2fs", name, wall)
            else:
                logger.warning("stage %s: failed after %.2fs (%s)", name, wall, error)

    def stage_report(self) -> List[Dict[str, object]]:
        """Stage timings as JSON-ready dicts (manifest ``stages`` block)."""
        return [stage.as_dict() for stage in self.stage_timings]

    # -- construction ------------------------------------------------------------

    @classmethod
    def create(
        cls,
        scale: Optional[float] = None,
        seed: int = DEFAULT_SEED,
        config: Optional[WorldConfig] = None,
    ) -> "ExperimentContext":
        """Build a context for a scale factor (world sizes derive from it)."""
        if config is None:
            scale = default_scale() if scale is None else scale
            config = WorldConfig(
                n_sites=max(int(round(5000 * scale)), 50),
                live_top=max(int(round(100_000 * scale)), 500),
            )
        return cls(world=SyntheticWorld(config, seed=seed))

    # -- the artifact graph --------------------------------------------------------

    @property
    def graph(self) -> ArtifactGraph:
        """The campaign's artifact graph (``REPRO_RUN_CACHE``-backed)."""
        if self._graph is None:
            self._graph = ArtifactGraph.for_world(self.world)
        return self._graph

    def _resolve_stage(
        self, name: str, build: Callable[[], object], **attrs
    ):
        """Resolve one stage: graph memory → run cache → timed compute.

        A run-cache hit is timed as a ``cached`` stage (the wall time is
        the mmap + decode cost); a corrupt entry falls through to a
        normal compute, which is then persisted back.
        """
        graph = self.graph
        if graph.has(name):
            value = None
            hit = False
            with self._stage(name, cached=True, **attrs):
                hit, value = graph.fetch(name)
            if hit:
                return value
        with self._stage(name, **attrs):
            value = build()
        graph.put(name, value)
        return value

    # -- lazily built artifacts ----------------------------------------------------

    @property
    def resilience(self) -> ResiliencePolicy:
        """The campaign's resilience policy (env-resolved on first use)."""
        if self._resilience is None:
            self._resilience = default_resilience()
        return self._resilience

    def _build_lists(self) -> Tuple[Dict[str, FilterListHistory], List[Tuple[int, str]]]:
        histories = generate_all_lists(self.world)
        patch = list_patch_file()
        if patch is not None:
            applied = apply_list_patch(histories, patch)
            logger.info("applied %d patch rules from %s", applied, patch)
        return histories, self.world.population.minted()

    @property
    def lists(self) -> Dict[str, FilterListHistory]:
        """Histories keyed 'aak', 'easylist', 'awrl', 'combined_easylist'.

        The node also carries the world's domain-mint table as the list
        build left it. Name collisions are settled by mint order, so
        the table is restored on every resolution: a run over cached
        lists then ranks their domains (Table 1) and names the live
        crawl's tail exactly as the run that built them.
        """
        if self._lists is None:
            histories, minted = self._resolve_stage("lists", self._build_lists)
            self.world.population.restore(minted)
            self._lists = histories
        return self._lists

    @property
    def histories(self) -> Dict[str, FilterListHistory]:
        """The two lists §4 replays, under their display names.

        Cached, so every consumer shares one dict object.
        """
        if self._histories is None:
            self._histories = {AAK: self.lists["aak"], CE: self.lists["combined_easylist"]}
        return self._histories

    @property
    def generator(self) -> FilterListGenerator:
        """A FilterListGenerator over this context's world."""
        return FilterListGenerator(self.world)

    @property
    def archive(self) -> WaybackArchive:
        """The populated Wayback archive (built on first access)."""
        if self._archive is None:
            self._archive = self._resolve_stage(
                "archive", self.world.build_archive, sites=self.world.config.n_sites
            )
        return self._archive

    def _build_crawl(self) -> CrawlResult:
        crawler = WaybackCrawler(self.archive, resilience=self.resilience)
        return crawler.crawl(
            [site.domain for site in self.world.sites],
            self.world.config.start,
            self.world.config.end,
        )

    @property
    def crawl(self) -> CrawlResult:
        """The 60-month top-segment crawl (built on first access).

        On a run-cache hit the crawl loads without touching the archive
        stage at all — the archive node stays on disk until some
        consumer actually needs it.
        """
        if self._crawl is None:
            graph = self.graph
            if not graph.has("crawl"):
                # Build upstream outside the stage so timings stay distinct.
                self.archive
            self._crawl = self._resolve_stage(
                "crawl", self._build_crawl, sites=self.world.config.n_sites
            )
        return self._crawl

    @property
    def analyzer(self) -> CoverageAnalyzer:
        """The coverage analyzer over the two §4 lists."""
        if self._analyzer is None:
            self._analyzer = CoverageAnalyzer(self.histories)
        return self._analyzer

    def _build_coverage(self) -> CoverageResult:
        coverage = self.analyzer.analyze(self.crawl)
        # The replay engine's counters feed the unified registry as one
        # source among many (only when the replay actually ran).
        get_metrics().absorb("replay", self.analyzer.perf)
        return coverage

    @property
    def coverage(self) -> CoverageResult:
        """The §4.2 coverage result (computed on first access).

        Honours ``REPRO_WORKERS``: >1 shards the replay across a process
        pool; the merged result is identical to the serial one.
        """
        if self._coverage is None:
            graph = self.graph
            if not graph.has("coverage"):
                # Materialise upstream artifacts first so each stage's
                # span and timing cover only its own work.
                self.crawl
                self.analyzer
            self._coverage = self._resolve_stage(
                "coverage", self._build_coverage, workers=repro_workers()
            )
        return self._coverage

    @property
    def perf(self) -> PerfCounters:
        """Replay perf counters (records/s, probe counts, cache hits)."""
        return self.analyzer.perf

    def _build_live(self) -> LiveCrawlResult:
        return LiveCrawler(self.world, self.histories).crawl(
            resilience=self.resilience
        )

    @property
    def live(self) -> LiveCrawlResult:
        """The §4.3 live-crawl result (computed on first access)."""
        if self._live is None:
            graph = self.graph
            if not graph.has("live"):
                self.histories
            self._live = self._resolve_stage(
                "live", self._build_live, top=self.world.config.live_top
            )
        return self._live

    def _build_corpus(self) -> Corpus:
        lists = self.lists
        rules = []
        for key in ("aak", "combined_easylist"):
            latest = lists[key].latest()
            if latest is not None:
                rules.extend(latest.filter_list.network_rules)
        matcher = NetworkMatcher(rules)
        pages = [
            self.world.snapshot(site, self.world.config.end)
            for site in self.world.sites
        ]
        return build_corpus(
            pages, matcher, seed=self.world.seed, resilience=self.resilience
        )

    @property
    def corpus(self) -> Corpus:
        """The §5 training corpus: top-segment scripts labeled by the lists."""
        if self._corpus is None:
            graph = self.graph
            if not graph.has("corpus"):
                self.lists
            self._corpus = self._resolve_stage("corpus", self._build_corpus)
        return self._corpus

    def corpus_features(
        self, feature_set: str = "all", unpack: bool = True
    ) -> List[Set[str]]:
        """Per-script §5 features of the corpus (extracted at most once).

        Backed by the shared content-addressed feature store *and* the
        artifact graph: each ``(feature_set, unpack)`` pair is its own
        ``features:<set>:<u>`` node with its own stage timing, resolved
        memory → run cache → extraction (the first extraction parses
        every corpus script once; further sets are cheap filters over
        the store's cached token events).
        """
        key = (feature_set, unpack)
        cached = self._corpus_features.get(key)
        if cached is None:
            node = feature_node_name(feature_set, unpack)

            def build() -> List[Set[str]]:
                from ..core.featstore import get_feature_store

                return get_feature_store().features_for_corpus(
                    self.corpus.sources(), feature_set=feature_set, unpack=unpack
                )

            graph = self.graph
            if not graph.has(node):
                # Build upstream outside the stage so timings stay distinct.
                self.corpus
            cached = self._resolve_stage(
                node,
                build,
                feature_set=feature_set,
                unpack=unpack,
                workers=repro_workers(),
            )
            self._corpus_features[key] = cached
        return cached


_SHARED: Dict[float, ExperimentContext] = {}


def shared_context(scale: Optional[float] = None) -> ExperimentContext:
    """A process-wide context cache so drivers/benchmarks share the crawl."""
    key = default_scale() if scale is None else scale
    if key not in _SHARED:
        _SHARED[key] = ExperimentContext.create(scale=key)
    return _SHARED[key]
