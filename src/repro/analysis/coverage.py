"""§4 — retrospective filter-list coverage over the archived crawl.

Implements the paper's matching pipeline: per crawled month, truncate the
Wayback prefixes from each site's HAR request URLs and evaluate the
*contemporaneous* revision of each filter list (HTTP request rules); open
the stored HTML in the simulated browser with the adblocker subscribed to
the same revision (HTML element rules). Produces Figure 6(a)/(b) series,
Figure 5's exclusion accounting, and Figure 7's rule-addition-delay CDF.

The replay is engineered as a parallel, memoized engine:

- every record's matcher inputs (truncated URLs, index tokens, resource
  types, third-party flags) are precomputed once into a
  :class:`~repro.analysis.profile.RequestProfile` and reused across the
  block/allow passes, lists, and revisions;
- revision matchers are derived incrementally from their predecessor via
  the rule delta (consecutive revisions share almost all rules) and held
  in bounded LRU caches so paper scale runs in fixed memory;
- ``REPRO_WORKERS`` (or the ``workers`` argument) shards the record loop
  and the Figure 7 final-matcher scan across a ``ProcessPoolExecutor``
  along domain boundaries, with a deterministic merge that reproduces the
  serial result exactly. The default is serial, so results stay
  bit-identical by default.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from datetime import date
from html import unescape
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..filterlist.history import FilterListHistory, Revision
from ..obs.trace import span as trace_span
from ..filterlist.matcher import NetworkMatcher
from ..filterlist.parser import FilterList
from ..filterlist.rules import ElementRule
from ..filterlist.selectors import SelectorParseError, parse_selector_group
from ..wayback.crawler import CrawlRecord, CrawlResult
from ..web.adblocker import Adblocker
from ..web.dom import parse_html
from .perf import LRUCache, PerfCounters, matcher_cache_size, repro_workers
from .pool import fork_context, map_shards, split_shards
from .profile import RequestProfile, UrlProfile, profile_record
from .rulestats import get_rule_stats


@dataclass
class CoverageResult:
    """Everything §4.2 reports for one crawl × a set of list histories."""

    #: list name -> month -> number of sites triggering HTTP rules
    http_series: Dict[str, Dict[date, int]] = field(default_factory=dict)
    #: list name -> month -> number of sites triggering HTML rules
    html_series: Dict[str, Dict[date, int]] = field(default_factory=dict)
    #: list name -> domain -> first month it was detected (HTTP or HTML)
    first_detected: Dict[str, Dict[str, date]] = field(default_factory=dict)
    #: domain -> first month anti-adblock requests were observed at all
    site_first_seen: Dict[str, date] = field(default_factory=dict)
    #: list name -> domain -> fraction/flag: detected via third-party URL
    third_party_detection: Dict[str, Dict[str, bool]] = field(default_factory=dict)

    def third_party_share(self, list_name: str) -> float:
        """Share of a list's detected sites whose match was third-party."""
        flags = self.third_party_detection.get(list_name, {})
        if not flags:
            return 0.0
        return sum(1 for v in flags.values() if v) / len(flags)


# -- worker-process plumbing ---------------------------------------------------
#
# The fork-first pool, contiguous sharding, and worker-state seeding live
# in ``analysis.pool`` (shared with the §5 feature-extraction engine).
# Each worker builds one CoverageAnalyzer over the histories, then runs
# shard tasks against it.


def _make_worker_analyzer(histories: Dict[str, FilterListHistory]) -> "CoverageAnalyzer":
    return CoverageAnalyzer(histories)


def _shard_telemetry(analyzer: "CoverageAnalyzer", fn):
    """Run a shard body, returning (result, perf delta, span payload).

    The payload is a flat dict the parent grafts onto its span tree as a
    pre-closed child (worker processes cannot share the parent's tracer),
    so sharded runs keep per-worker wall/CPU attribution.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    before = analyzer.perf.snapshot()
    collector = get_rule_stats()
    rule_snapshot = collector.snapshot() if collector is not None else None
    partial = fn()
    delta = analyzer.perf.since(before)
    payload = {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "records": delta.records,
        "match_calls": delta.match_calls,
    }
    if collector is not None:
        rule_delta = collector.delta_since(rule_snapshot)
        if rule_delta["lists"]:
            payload["rule_stats"] = rule_delta
    return partial, delta, payload


def _absorb_shard_rule_stats(payload: dict) -> None:
    """Merge a shard payload's rule-stats delta into the parent collector.

    Workers accumulate into their own process-global collector and ship
    the delta inside the telemetry payload; popping it here keeps the
    span tree free of bulk data while the parent's collector converges
    to exactly the serial run's state (sums commute).
    """
    rule_delta = payload.pop("rule_stats", None)
    if rule_delta:
        collector = get_rule_stats()
        if collector is not None:
            collector.merge_payload(rule_delta)


def _analyze_shard(analyzer, records: List[CrawlRecord], html_rules: bool):
    return _shard_telemetry(
        analyzer, lambda: analyzer._analyze_records(records, html_rules)
    )


def _delays_shard(analyzer, items):
    return _shard_telemetry(analyzer, lambda: analyzer._delays_for_items(items))


class _ElementRuleScreen:
    """Conservative substring pre-filter for HTML element rules.

    Parsing a record's HTML dominates the replay's serial cost, yet most
    archived pages cannot trigger *any* element rule of any revision. A
    selector chain can only match a document whose raw markup contains one
    of the chain's literals (an id, class, or attribute value), so one
    combined regex over the page source decides whether parsing can be
    skipped. The screen errs on the side of parsing: chains without a
    clean ``[\\w-]`` literal force parsing for every record, and pages
    containing ``&`` are re-screened against their entity-unescaped form.
    """

    def __init__(self, histories: Dict[str, FilterListHistory]) -> None:
        literals: Set[str] = set()
        self.parse_all = False
        seen: Set[str] = set()
        for history in histories.values():
            for revision in history:
                for rule in revision.filter_list.element_rules:
                    if rule.is_exception or rule.selector in seen:
                        continue
                    seen.add(rule.selector)
                    try:
                        group = parse_selector_group(rule.selector)
                    except SelectorParseError:
                        continue  # the adblocker skips unparsable selectors
                    for chain in group:
                        literal = self._chain_literal(chain)
                        if literal is None:
                            self.parse_all = True
                        else:
                            literals.add(literal)
        self._regex = (
            re.compile("|".join(re.escape(lit) for lit in sorted(literals)))
            if literals
            else None
        )

    _CLEAN_LITERAL = re.compile(r"[\w-]+\Z")

    @classmethod
    def _chain_literal(cls, chain) -> Optional[str]:
        """One literal the chain's match requires in the markup, if any."""
        for part in reversed(chain.parts):
            candidates = []
            if part.id:
                candidates.append(part.id)
            candidates.extend(part.classes)
            for _, op, value in part.attributes:
                if value and op in ("=", "^=", "$=", "*=", "~="):
                    candidates.append(value)
            for candidate in candidates:
                if cls._CLEAN_LITERAL.match(candidate):
                    return candidate
        return None

    def may_trigger(self, html: str) -> bool:
        """Whether any element rule could possibly fire on this markup."""
        if self.parse_all:
            return True
        if self._regex is None:
            return False
        if self._regex.search(html) is not None:
            return True
        if "&" in html:
            return self._regex.search(unescape(html)) is not None
        return False


class CoverageAnalyzer:
    """Replays contemporaneous filter-list versions over a crawl."""

    def __init__(self, histories: Dict[str, FilterListHistory]) -> None:
        self.histories = histories
        #: perf counters for every replay this analyzer runs (merged
        #: across worker shards when the run is parallel).
        self.perf = PerfCounters()
        capacity = matcher_cache_size()
        self._matcher_cache: LRUCache = LRUCache(capacity)
        self._adblocker_cache: LRUCache = LRUCache(capacity)
        self._element_screen: Optional[_ElementRuleScreen] = None

    # -- caches -------------------------------------------------------------

    def _revision(self, list_name: str, month: date) -> Optional[Revision]:
        return self.histories[list_name].version_at(month)

    def _matcher(self, list_name: str, revision: Revision) -> NetworkMatcher:
        """The revision's matcher: cached, else derived from its
        predecessor's matcher by the rule delta, else built from scratch."""
        key = (list_name, revision.date)
        cached = self._matcher_cache.get(key)
        if cached is not None:
            self.perf.matcher_cache_hits += 1
            self._scope_rule_stats(cached, list_name)
            return cached
        history = self.histories[list_name]
        network_rules = revision.filter_list.network_rules
        matcher: Optional[NetworkMatcher] = None
        index = history.index_of_date(revision.date)
        if index is not None and index > 0:
            base = self._matcher_cache.get((list_name, history[index - 1].date))
            if base is not None:
                added, removed = history.network_rule_delta(index)
                derived = base.apply_delta(added, removed)
                # Line-set deltas collapse duplicate rules; fall back to a
                # full build if the derived rule count disagrees.
                if len(derived) == len(network_rules):
                    matcher = derived
                    self.perf.matcher_incremental_builds += 1
        if matcher is None:
            matcher = NetworkMatcher(network_rules, stats=self.perf)
            self.perf.matcher_full_builds += 1
        self._scope_rule_stats(matcher, list_name)
        self._matcher_cache.put(key, matcher)
        return matcher

    @staticmethod
    def _scope_rule_stats(sink, list_name: str) -> None:
        """Point a matcher/adblocker at the list's rule-stats scope.

        Re-asserted on every cache retrieval (one global read + attribute
        store) so engines stay correct even if the collector is installed
        after the caches warmed; a ``None`` collector keeps the sink's
        disabled fast path."""
        collector = get_rule_stats()
        sink.rule_stats = (
            collector.scope(list_name) if collector is not None else None
        )

    def _adblocker(self, list_name: str, revision: Revision) -> Adblocker:
        key = (list_name, revision.date)
        cached = self._adblocker_cache.get(key)
        if cached is not None:
            self.perf.adblocker_cache_hits += 1
            self._scope_rule_stats(cached, list_name)
            return cached
        element_only = FilterList(name=list_name)
        element_only.rules = [
            parsed
            for parsed in revision.filter_list.rules
            if isinstance(parsed.rule, ElementRule)
        ]
        adblocker = Adblocker([element_only])
        self._scope_rule_stats(adblocker, list_name)
        self.perf.adblocker_builds += 1
        self._adblocker_cache.put(key, adblocker)
        return adblocker

    def _final_matchers(self) -> Dict[str, NetworkMatcher]:
        """One matcher per list over its latest revision (Figure 7 scans)."""
        matchers: Dict[str, NetworkMatcher] = {}
        for name, history in self.histories.items():
            latest = history.latest()
            if latest is not None:
                matchers[name] = self._matcher(name, latest)
        return matchers

    # -- matching one record ----------------------------------------------------

    @staticmethod
    def record_urls(record: CrawlRecord) -> List[str]:
        """Original request URLs of a crawl record (archive prefix stripped)."""
        return record.truncated_urls()

    def http_match(
        self,
        list_name: str,
        record: CrawlRecord,
        profile: Optional[RequestProfile] = None,
    ) -> Optional[Tuple[str, bool]]:
        """First URL of the record blocked by the contemporaneous list.

        Returns ``(matched_url, is_third_party)`` or ``None``. A website is
        anti-adblocking for a list when any of its request URLs is blocked
        by the list's HTTP rules (§4.2). ``profile`` lets callers thread a
        precomputed :class:`RequestProfile` through; otherwise the record's
        memoized profile is used.
        """
        revision = self._revision(list_name, record.month)
        if revision is None:
            return None
        matcher = self._matcher(list_name, revision)
        if profile is None:
            profile = profile_record(record, self.perf)
        page_domain = record.domain
        for url_profile in profile.urls:
            if matcher.match_profile(url_profile, page_domain).blocked:
                return url_profile.url, url_profile.third_party
        return None

    def html_match(
        self, list_name: str, record: CrawlRecord, document=None
    ) -> bool:
        """Whether the stored page triggers the list's HTML element rules.

        ``document`` lets callers share one parsed DOM across lists (the
        hiding flags it accumulates do not affect trigger detection).
        """
        revision = self._revision(list_name, record.month)
        if revision is None or not record.html:
            return False
        adblocker = self._adblocker(list_name, revision)
        if document is None:
            document = parse_html(record.html)
        triggered = adblocker.hide_elements(document, f"http://{record.domain}/")
        return bool(triggered)

    # -- full analysis --------------------------------------------------------------

    def analyze(
        self,
        crawl: CrawlResult,
        html_rules: bool = True,
        workers: Optional[int] = None,
    ) -> CoverageResult:
        """Run the §4.2 pipeline over every usable crawl record.

        ``workers`` (default: the ``REPRO_WORKERS`` env var, itself
        defaulting to 1) shards the record loop across processes; any
        sharded run merges to exactly the serial result.

        Each call is an independent run: the analyzer's perf counters
        reset on entry, so back-to-back ``analyze()`` calls never
        accumulate stale counts (matcher/adblocker caches persist —
        only the *accounting* restarts).
        """
        workers = repro_workers() if workers is None else max(int(workers), 1)
        self.perf.reset()
        with trace_span(
            "replay:analyze", workers=workers, records=len(crawl.records)
        ) as span:
            if workers > 1 and len(crawl.records) > 1:
                result = self._analyze_parallel(crawl, html_rules, workers, span)
            else:
                result = self._analyze_records(crawl.records, html_rules)
            # Months with zero matches still need series entries.
            months = sorted({record.month for record in crawl.records})
            for name in self.histories:
                for month in months:
                    result.http_series[name].setdefault(month, 0)
                    result.html_series[name].setdefault(month, 0)
            span.set(usable_records=self.perf.records, elapsed_s=self.perf.elapsed)
        return result

    def _empty_result(self) -> CoverageResult:
        result = CoverageResult()
        for name in self.histories:
            result.http_series[name] = {}
            result.html_series[name] = {}
            result.first_detected[name] = {}
            result.third_party_detection[name] = {}
        return result

    def _analyze_records(
        self, records: Sequence[CrawlRecord], html_rules: bool
    ) -> CoverageResult:
        """The serial replay core (also each worker's shard body)."""
        started = time.perf_counter()
        result = self._empty_result()
        final_matchers = self._final_matchers()
        if html_rules and self._element_screen is None:
            self._element_screen = _ElementRuleScreen(self.histories)
        # URLs already scanned (negatively) against a final matcher for a
        # domain: request sets repeat month over month, so only new URLs
        # need the Figure 7 presence probe.
        final_negative: Dict[Tuple[str, str], Set[str]] = {}
        for record in records:
            if not record.usable:
                continue
            self.perf.records += 1
            profile = profile_record(record, self.perf)
            # Anti-adblock *presence* proxy: any request matching any rule
            # (either polarity) of any final list version — used for
            # Figure 7's "anti-adblocker added to the website" dates.
            if record.domain not in result.site_first_seen:
                for name, matcher in final_matchers.items():
                    seen_negative = final_negative.setdefault(
                        (name, record.domain), set()
                    )
                    fresh = [
                        up for up in profile.urls if up.url not in seen_negative
                    ]
                    if self._any_match_profile(matcher, record.domain, fresh):
                        result.site_first_seen.setdefault(record.domain, record.month)
                        break
                    seen_negative.update(up.url for up in fresh)
            may_html = (
                html_rules
                and bool(record.html)
                and self._element_screen.may_trigger(record.html)
            )
            document = parse_html(record.html) if may_html else None
            if may_html:
                self.perf.html_parses += 1
            for name in self.histories:
                matched = self.http_match(name, record, profile)
                html_hit = may_html and self.html_match(name, record, document)
                if matched is not None:
                    result.http_series[name][record.month] = (
                        result.http_series[name].get(record.month, 0) + 1
                    )
                if html_hit:
                    result.html_series[name][record.month] = (
                        result.html_series[name].get(record.month, 0) + 1
                    )
                if matched is not None or html_hit:
                    result.first_detected[name].setdefault(record.domain, record.month)
                    if matched is not None:
                        result.third_party_detection[name].setdefault(
                            record.domain, matched[1]
                        )
        self.perf.elapsed += time.perf_counter() - started
        return result

    def _slim_records(
        self, groups: List[List[CrawlRecord]], html_rules: bool
    ) -> List[List[CrawlRecord]]:
        """Shard payloads: records without HAR bodies, with truncated URLs
        precomputed and HTML pre-screened (blank HTML can trigger nothing),
        so per-shard pickling stays proportional to what workers replay."""
        screen = self._element_screen
        slimmed: List[List[CrawlRecord]] = []
        for group in groups:
            slim_group: List[CrawlRecord] = []
            for record in group:
                keep_html = (
                    html_rules
                    and bool(record.html)
                    and screen.may_trigger(record.html)
                )
                clone = CrawlRecord(
                    domain=record.domain,
                    month=record.month,
                    status=record.status,
                    har=None,
                    html=record.html if keep_html else "",
                    capture_date=record.capture_date,
                )
                clone._truncated_urls = (
                    record.truncated_urls() if record.usable else []
                )
                slim_group.append(clone)
            slimmed.append(slim_group)
        return slimmed

    def _map_shards(self, shards: List[list], task, extra=()):
        """Run one worker task per shard via the shared fork-first pool."""
        return map_shards(
            shards,
            task,
            state=self.histories,
            make_worker_state=_make_worker_analyzer,
            extra=extra,
        )

    def _analyze_parallel(
        self, crawl: CrawlResult, html_rules: bool, workers: int, span=None
    ) -> CoverageResult:
        """Shard the record loop by domain across a process pool."""
        started = time.perf_counter()
        groups = crawl.domain_groups()
        if fork_context() is not None:
            # Forked workers inherit the records; they screen and profile
            # their own shards in parallel.
            shards = split_shards(groups, workers)
        else:  # pragma: no cover - non-fork platforms
            if html_rules and self._element_screen is None:
                self._element_screen = _ElementRuleScreen(self.histories)
            shards = split_shards(self._slim_records(groups, html_rules), workers)
        if len(shards) <= 1:
            return self._analyze_records(crawl.records, html_rules)
        if span is not None:
            span.set(shards=len(shards))
        partials = self._map_shards(shards, _analyze_shard, extra=(html_rules,))
        # Intern month objects so the merged result's object graph (and
        # therefore its pickled bytes) matches the serial run, where equal
        # dates are one shared object from the crawl's month range.
        canon: Dict[date, date] = {}
        for record in crawl.records:
            canon.setdefault(record.month, record.month)
        intern = lambda d: canon.setdefault(d, d)  # noqa: E731
        merged = self._empty_result()
        for index, (partial, shard_perf, payload) in enumerate(partials):
            _absorb_shard_rule_stats(payload)
            if span is not None:
                span.add_child_payload(f"shard:{index}", **payload)
            for name in self.histories:
                series = merged.http_series[name]
                for month, count in partial.http_series[name].items():
                    month = intern(month)
                    series[month] = series.get(month, 0) + count
                series = merged.html_series[name]
                for month, count in partial.html_series[name].items():
                    month = intern(month)
                    series[month] = series.get(month, 0) + count
                # Shards are domain-disjoint: plain unions are exact.
                for domain, month in partial.first_detected[name].items():
                    merged.first_detected[name][domain] = intern(month)
                merged.third_party_detection[name].update(
                    partial.third_party_detection[name]
                )
            for domain, month in partial.site_first_seen.items():
                merged.site_first_seen[domain] = intern(month)
            shard_perf.elapsed = 0.0
            self.perf.merge(shard_perf)
        self.perf.elapsed += time.perf_counter() - started
        return merged

    @staticmethod
    def _any_blocked_profile(
        matcher: NetworkMatcher, page_domain: str, urls: Sequence[UrlProfile]
    ) -> bool:
        for url_profile in urls:
            if matcher.match_profile(url_profile, page_domain).blocked:
                return True
        return False

    @staticmethod
    def _any_match_profile(
        matcher: NetworkMatcher, page_domain: str, urls: Sequence[UrlProfile]
    ) -> bool:
        """Any-polarity matching: blocking *or* exception rules count.

        Figure 7 asks when a list first *defined a rule for* an
        anti-adblocker; an exception rule whitelisting the site's bait (the
        numerama pattern) is such a rule even though it never blocks.
        """
        for url_profile in urls:
            if matcher.first_match_profile(url_profile, page_domain) is not None:
                return True
        return False

    # -- Figure 7 ------------------------------------------------------------------

    def detection_delays(
        self,
        crawl: CrawlResult,
        coverage: Optional[CoverageResult] = None,
        workers: Optional[int] = None,
    ) -> Dict[str, List[int]]:
        """Days between a site's anti-adblock appearance and each list's
        earliest matching revision (negative = rule predated the site).
        """
        workers = repro_workers() if workers is None else max(int(workers), 1)
        if coverage is None:
            coverage = self.analyze(crawl, html_rules=False, workers=workers)
        with trace_span("replay:delays", workers=workers) as span:
            # The final request set per domain (union over usable months).
            profiles_by_domain: Dict[str, Dict[str, UrlProfile]] = {}
            for record in crawl.records:
                if record.usable:
                    profile = profile_record(record, self.perf)
                    bucket = profiles_by_domain.setdefault(record.domain, {})
                    for url_profile in profile.urls:
                        bucket.setdefault(url_profile.url, url_profile)
            items = [
                (domain, first_seen, list(profiles_by_domain.get(domain, {}).values()))
                for domain, first_seen in coverage.site_first_seen.items()
            ]
            span.set(sites=len(items))
            if workers > 1 and len(items) > 1:
                shards = split_shards([[item] for item in items], workers)
                partials = self._map_shards(shards, _delays_shard)
                delays: Dict[str, List[int]] = {name: [] for name in self.histories}
                for index, (partial, shard_perf, payload) in enumerate(partials):
                    _absorb_shard_rule_stats(payload)
                    span.add_child_payload(f"shard:{index}", **payload)
                    for name, values in partial.items():
                        delays[name].extend(values)
                    shard_perf.elapsed = 0.0
                    self.perf.merge(shard_perf)
                return delays
            return self._delays_for_items(items)

    def _delays_for_items(
        self, items: Sequence[Tuple[str, date, List[UrlProfile]]]
    ) -> Dict[str, List[int]]:
        """The Figure 7 scan over (domain, first_seen, url profiles) items."""
        delays: Dict[str, List[int]] = {}
        for name, history in self.histories.items():
            delays[name] = []
            latest = history.latest()
            if latest is None:
                continue
            final_matcher = self._matcher(name, latest)
            for domain, first_seen, urls in items:
                if not self._any_match_profile(final_matcher, domain, urls):
                    continue
                rule_date = self._earliest_matching_revision(
                    name, history, domain, urls
                )
                if rule_date is not None:
                    delays[name].append((rule_date - first_seen).days)
        return delays

    def _earliest_matching_revision(
        self,
        list_name: str,
        history: FilterListHistory,
        domain: str,
        urls: Sequence[UrlProfile],
    ) -> Optional[date]:
        """Binary-search the revision history for the first matching version."""
        revisions = history.revisions
        low, high = 0, len(revisions) - 1
        if high < 0:
            return None
        if not self._revision_matches(list_name, revisions[high], domain, urls):
            return None
        earliest: Optional[date] = None
        while low <= high:
            mid = (low + high) // 2
            if self._revision_matches(list_name, revisions[mid], domain, urls):
                earliest = revisions[mid].date
                high = mid - 1
            else:
                low = mid + 1
        return earliest

    def _revision_matches(
        self,
        list_name: str,
        revision: Revision,
        domain: str,
        urls: Sequence[UrlProfile],
    ) -> bool:
        matcher = self._matcher(list_name, revision)
        return self._any_match_profile(matcher, domain, urls)


def missing_snapshot_series(crawl: CrawlResult) -> Dict[date, Dict[str, int]]:
    """Figure 5: per-month partial / not-archived / outdated counts."""
    return crawl.missing_counts_by_month()
