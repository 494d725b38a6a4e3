"""The synthetic web: sites, anti-adblock adoption, and archive building.

This module replaces the live Web and five years of history that the paper
measures. It generates a ranked population of websites, an anti-adblock
adoption process over 2011–2016 (mostly third-party vendor scripts, some
self-hosted), per-month page snapshots, and a populated
:class:`~repro.wayback.archive.WaybackArchive` exhibiting the archive
pathologies of §4.1 (exclusions, outdated gaps, redirects, anti-bot
partial captures).

Everything is deterministic given the world seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Dict, List, Optional

import numpy as np

from ..wayback.archive import ExclusionReason, WaybackArchive
from ..web.page import PageSnapshot, Script, Subresource
from .alexa import DomainPopulation, RankedDomain
from .categories import CategorizationService
from .scripts import (
    ANTI_ADBLOCK_FAMILIES,
    BENIGN_FAMILIES,
    V2_FAMILIES,
    _BAIT_URLS,
    _NOTICE_IDS,
    generate_benign,
)
from .seeds import DEFAULT_SEED, rng_for
from .vendors import Vendor, choose_first_party_family, choose_vendor


@dataclass
class WorldConfig:
    """Tunable parameters of the synthetic world.

    Defaults are scaled down from the paper (top-5K crawled, top-100K
    live) so tests and benchmarks run in seconds; pass
    ``n_sites=5000, live_top=100000`` for paper scale. All *fractions*
    mirror the paper's reported counts normalised by 5,000.
    """

    n_sites: int = 1000
    live_top: int = 20000
    start: date = date(2011, 8, 1)
    end: date = date(2016, 7, 1)
    live_date: date = date(2017, 4, 1)

    # Anti-adblock adoption.
    adoption_by_end: float = 0.118
    vendor_fraction: float = 0.80
    static_notice_fraction: float = 0.25
    tail_adoption_factor: float = 0.85  # adoption falloff beyond the top segment

    # Archive pathology (fractions of the crawled segment).
    robots_excluded: float = 153 / 5000
    admin_excluded: float = 26 / 5000
    undefined_excluded: float = 54 / 5000
    never_archived: float = 0.012
    archive_preexisting: float = 0.72
    archive_stop_fraction: float = 0.10
    redirect_adoption: float = 0.05  # sites whose captures turn 3XX over time
    anti_bot_by_end: float = 78 / 5000
    anti_bot_at_start: float = 23 / 5000
    capture_hit_rate: float = 0.95

    # Page content.
    min_benign_scripts: int = 3
    max_benign_scripts: int = 7
    #: Sites that ship *silent* adblock-measurement code: detection logic
    #: that only logs and never interrupts the user. Filter lists do not
    #: target these (they remove warnings, not measurements), so such
    #: scripts sit in the ML corpus's negative pool — the paper's
    #: irreducible false-positive surface (cf. Mughees et al.: far more
    #: sites detect adblockers than visibly react).
    silent_detector_fraction: float = 0.18
    #: Sites whose main ``app.bundle.js`` concatenates several scripts;
    #: a share of bundles inline a detection fragment. Lists cannot block
    #: a site's application bundle without breaking the site, so these
    #: always sit in the negative pool — a second false-positive surface.
    bundle_fraction: float = 0.5
    bundle_contamination: float = 0.35

    def months(self) -> List[date]:
        """First-of-month dates across the crawl window."""
        from ..wayback.crawler import month_range

        return month_range(self.start, self.end)


#: Cumulative anti-adblock adoption shape by year (fraction of eventual
#: adopters deployed by each year's end). The steep 2014–2016 ramp matches
#: the paper's Figure 6(a).
_ADOPTION_CDF = (
    (date(2011, 12, 31), 0.005),
    (date(2012, 12, 31), 0.035),
    (date(2013, 12, 31), 0.11),
    (date(2014, 12, 31), 0.31),
    (date(2015, 12, 31), 0.63),
    (date(2016, 7, 1), 0.89),
    (date(2017, 4, 1), 1.00),
)

#: Deployments on/after this date use second-generation detection scripts
#: (new idioms: MutationObserver baits, XHR status probes) — the live
#: crawl's distribution shift relative to the retrospective training data.
_V2_FROM = date(2016, 8, 1)


@dataclass
class Deployment:
    """One site's anti-adblock deployment."""

    deployed_on: date
    family: str
    vendor: Optional[Vendor] = None
    bait_path: str = "/ads.js"
    notice_id: Optional[str] = None
    script_source: str = ""
    script_url: str = ""

    @property
    def is_third_party(self) -> bool:
        """Whether the deployment uses a third-party vendor."""
        return self.vendor is not None


@dataclass
class SiteProfile:
    """Everything static about one synthetic website."""

    domain: str
    rank: int
    category: str
    deployment: Optional[Deployment] = None
    benign_scripts: List[Script] = field(default_factory=list)
    base_resources: List[Subresource] = field(default_factory=list)

    # Archive behaviour.
    excluded: Optional[ExclusionReason] = None
    archive_start: Optional[date] = None  # None = never archived
    archive_end: Optional[date] = None  # captures stop after this
    redirect_from: Optional[date] = None  # captures are 3XX after this
    anti_bot_from: Optional[date] = None  # partial captures possible after

    @property
    def url(self) -> str:
        """The site's homepage URL."""
        return f"http://{self.domain}/"

    @property
    def uses_anti_adblock(self) -> bool:
        """Whether the site ever deploys anti-adblocking."""
        return self.deployment is not None

    def deployed_by(self, when: date) -> bool:
        """Whether the anti-adblocker is live on the given date."""
        return self.deployment is not None and self.deployment.deployed_on <= when


class SyntheticWorld:
    """The full simulated web, seeded and deterministic."""

    def __init__(self, config: Optional[WorldConfig] = None, seed: int = DEFAULT_SEED) -> None:
        self.config = config or WorldConfig()
        self.seed = seed
        self.population = DomainPopulation(seed, top_size=self.config.n_sites)
        self.categories = CategorizationService(seed)
        self._profiles: Dict[int, SiteProfile] = {}
        #: Snapshot cache: page content varies only with deployment and
        #: redirect state, so monthly captures share snapshot objects.
        self._snapshot_cache: Dict[tuple, PageSnapshot] = {}
        self._sites: Optional[List[SiteProfile]] = None

    # -- site construction -----------------------------------------------------

    @property
    def sites(self) -> List[SiteProfile]:
        """The crawled top segment's profiles in rank order.

        Built on first read, so a process that only loads finished
        artifacts (a warm run or serve boot) builds no profile and mints
        no domain name.
        """
        if self._sites is None:
            self._sites = [
                self.profile_for_rank(rank) for rank in range(1, self.config.n_sites + 1)
            ]
        return self._sites

    def profile_for_rank(self, rank: int) -> SiteProfile:
        """The (cached) site profile at ``rank``, built on first request."""
        if rank not in self._profiles:
            self._profiles[rank] = self._build_profile(rank)
        return self._profiles[rank]

    def _build_profile(self, rank: int) -> SiteProfile:
        config = self.config
        domain = self.population.domain_at(rank)
        rng = rng_for(self.seed, "site", rank)
        profile = SiteProfile(
            domain=domain, rank=rank, category=self.categories.categorize(domain)
        )
        self._assign_archive_behaviour(profile, rng)
        self._assign_content(profile, rng)
        self._assign_adoption(profile, rng)
        return profile

    def _assign_archive_behaviour(self, profile: SiteProfile, rng: np.random.Generator) -> None:
        config = self.config
        draw = rng.random()
        if draw < config.robots_excluded:
            profile.excluded = ExclusionReason.ROBOTS_TXT
            return
        if draw < config.robots_excluded + config.admin_excluded:
            profile.excluded = ExclusionReason.ADMIN_REQUEST
            return
        if draw < config.robots_excluded + config.admin_excluded + config.undefined_excluded:
            profile.excluded = ExclusionReason.UNDEFINED
            return
        if rng.random() < config.never_archived:
            profile.archive_start = None
            return
        if rng.random() < config.archive_preexisting:
            profile.archive_start = config.start
        else:
            # Archive coverage begins some time inside the window.
            window_days = (config.end - config.start).days
            offset = int(rng.integers(0, max(window_days, 1)))
            profile.archive_start = config.start + timedelta(days=offset)
        if rng.random() < config.archive_stop_fraction:
            start = profile.archive_start
            stop_window = (config.end - start).days
            if stop_window > 365:
                offset = int(rng.integers(180, stop_window))
                profile.archive_end = start + timedelta(days=offset)
        if rng.random() < config.redirect_adoption:
            window_days = (config.end - config.start).days
            offset = int(rng.integers(window_days // 3, window_days))
            profile.redirect_from = config.start + timedelta(days=offset)
        anti_bot_rate = config.anti_bot_by_end
        if rng.random() < anti_bot_rate:
            window_days = (config.end - config.start).days
            # A share of anti-bot sites had the policy from the start.
            early = rng.random() < config.anti_bot_at_start / anti_bot_rate
            offset = 0 if early else int(rng.integers(0, window_days))
            profile.anti_bot_from = config.start + timedelta(days=offset)

    def _assign_content(self, profile: SiteProfile, rng: np.random.Generator) -> None:
        config = self.config
        domain = profile.domain
        # Tail sites (beyond the crawled top segment) are only ever matched
        # by URL during the live crawl, so their benign script *sources* are
        # never read — skip generating them. Anti-adblock sources are still
        # generated (the §5 live test classifies them).
        lightweight = profile.rank > config.n_sites
        n_benign = int(rng.integers(config.min_benign_scripts, config.max_benign_scripts + 1))
        families = list(BENIGN_FAMILIES)
        for index in range(n_benign):
            family = str(families[int(rng.integers(0, len(families)))])
            url = f"http://static.{domain}/js/{family}-{index}.js"
            source = (
                ""
                if lightweight
                else generate_benign(rng_for(self.seed, "benign", domain, index), family)
            )
            profile.benign_scripts.append(Script(source=source, url=url))
        if lightweight:
            profile.base_resources = [
                Subresource(
                    url=f"http://static.{domain}/css/main.css",
                    resource_type="stylesheet",
                    size=8000,
                ),
                Subresource(
                    url="http://www.google-analytics.com/analytics.js",
                    resource_type="script",
                    size=1500,
                ),
            ]
            return
        if rng.random() < config.bundle_fraction:
            bundle_rng = rng_for(self.seed, "bundle", domain)
            parts = [
                generate_benign(bundle_rng)
                for _ in range(int(bundle_rng.integers(2, 4)))
            ]
            if bundle_rng.random() < config.bundle_contamination:
                family = str(
                    bundle_rng.choice(["html_bait", "can_run_ads", "http_bait"])
                )
                parts.append(ANTI_ADBLOCK_FAMILIES[family](bundle_rng))
            profile.benign_scripts.append(
                Script(
                    source="\n".join(parts),
                    url=f"http://static.{domain}/js/app.bundle.js",
                )
            )
        if rng.random() < config.silent_detector_fraction:
            family = str(rng.choice(["html_bait", "http_bait", "pagefair_like"]))
            source = ANTI_ADBLOCK_FAMILIES[family](
                rng_for(self.seed, "silent", domain)
            )
            profile.benign_scripts.append(
                Script(source=source, url=f"http://static.{domain}/js/metrics-core.js")
            )
        profile.base_resources = [
            Subresource(url=f"http://static.{domain}/css/main.css", resource_type="stylesheet", size=int(rng.integers(4000, 30000))),
            Subresource(url=f"http://static.{domain}/img/logo.png", resource_type="image", size=int(rng.integers(2000, 20000))),
            Subresource(url=f"http://static.{domain}/img/hero.jpg", resource_type="image", size=int(rng.integers(10000, 80000))),
            Subresource(url="http://www.google-analytics.com/analytics.js", resource_type="script", size=1500),
        ]

    def _adoption_date(self, rng: np.random.Generator) -> date:
        u = rng.random()
        previous_date, previous_cdf = self.config.start, 0.0
        for milestone, cumulative in _ADOPTION_CDF:
            if u <= cumulative:
                span = (milestone - previous_date).days
                fraction = (u - previous_cdf) / max(cumulative - previous_cdf, 1e-9)
                return previous_date + timedelta(days=int(span * fraction))
            previous_date, previous_cdf = milestone, cumulative
        return self.config.end

    def _adoption_probability(self, rank: int) -> float:
        if rank <= self.config.n_sites:
            return self.config.adoption_by_end
        return self.config.adoption_by_end * self.config.tail_adoption_factor

    def _assign_adoption(self, profile: SiteProfile, rng: np.random.Generator) -> None:
        config = self.config
        if rng.random() >= self._adoption_probability(profile.rank):
            return
        deployed_on = self._adoption_date(rng)
        script_rng = rng_for(self.seed, "aab-script", profile.domain)
        if rng.random() < config.vendor_fraction:
            vendor = choose_vendor(script_rng, deployed_on)
            if vendor is None:
                # No vendor existed yet; the early adopter self-hosts.
                self._first_party_deployment(profile, deployed_on, script_rng)
                return
            family = self._maybe_v2(vendor.family, deployed_on, script_rng)
            source = ANTI_ADBLOCK_FAMILIES[family](script_rng)
            deployment = Deployment(
                deployed_on=deployed_on,
                family=family,
                vendor=vendor,
                script_source=source,
                script_url=vendor.script_url,
                bait_path=str(script_rng.choice(_BAIT_URLS)),
            )
        else:
            self._first_party_deployment(profile, deployed_on, script_rng)
            deployment = profile.deployment
        if script_rng.random() < config.static_notice_fraction:
            deployment.notice_id = str(script_rng.choice(_NOTICE_IDS))
        profile.deployment = deployment

    @staticmethod
    def _maybe_v2(family: str, deployed_on: date, rng: np.random.Generator) -> str:
        """Late deployments ship the vendor's second-generation script."""
        if deployed_on >= _V2_FROM and family in V2_FAMILIES and rng.random() < 0.8:
            return V2_FAMILIES[family]
        return family

    def _first_party_deployment(
        self, profile: SiteProfile, deployed_on: date, rng: np.random.Generator
    ) -> None:
        family = self._maybe_v2(choose_first_party_family(rng), deployed_on, rng)
        source = ANTI_ADBLOCK_FAMILIES[family](rng)
        bait_path = str(rng.choice(_BAIT_URLS))
        profile.deployment = Deployment(
            deployed_on=deployed_on,
            family=family,
            vendor=None,
            script_source=source,
            script_url=f"http://{profile.domain}/js/detector.js",
            bait_path=bait_path,
        )

    # -- snapshots ---------------------------------------------------------------

    def snapshot(self, profile: SiteProfile, when: date) -> PageSnapshot:
        """The page the site serves on ``when``.

        Snapshots are cached per (site, deployed?, redirecting?) state —
        treat them as immutable.
        """
        key = (
            profile.rank,
            profile.deployed_by(when),
            profile.redirect_from is not None and when >= profile.redirect_from,
        )
        if key not in self._snapshot_cache:
            self._snapshot_cache[key] = self._build_snapshot(profile, when)
        return self._snapshot_cache[key]

    def _build_snapshot(self, profile: SiteProfile, when: date) -> PageSnapshot:
        if profile.redirect_from is not None and when >= profile.redirect_from:
            return PageSnapshot(
                url=profile.url,
                status=301,
                redirect_to=f"https://www.{profile.domain}/",
            )
        subresources = list(profile.base_resources)
        scripts: List[Script] = []
        for script in profile.benign_scripts:
            scripts.append(script)
            subresources.append(
                Subresource(url=script.url, resource_type="script", size=len(script.source))
            )
        notice_html = ""
        deployment = profile.deployment
        if deployment is not None and profile.deployed_by(when):
            scripts.append(
                Script(
                    source=deployment.script_source,
                    url=deployment.script_url,
                    vendor=deployment.vendor.name if deployment.vendor else "",
                    is_anti_adblock=True,
                )
            )
            subresources.extend(self._deployment_requests(profile, deployment))
            if deployment.notice_id is not None:
                notice_html = (
                    f'<div id="{deployment.notice_id}" class="adblock-overlay" '
                    f'style="display:none">Please disable your adblocker to '
                    f"support {profile.domain}.</div>"
                )
        html = self._render_html(profile, scripts, notice_html)
        return PageSnapshot(
            url=profile.url,
            html=html,
            subresources=subresources,
            scripts=scripts,
        )

    def _deployment_requests(
        self, profile: SiteProfile, deployment: Deployment
    ) -> List[Subresource]:
        """Requests the anti-adblock deployment triggers at load time.

        The paper's crawler ran a full browser, so dynamically created bait
        requests appear in its HARs; we enumerate them statically here.
        """
        requests = [
            Subresource(url=deployment.script_url, resource_type="script", size=len(deployment.script_source))
        ]
        vendor = deployment.vendor
        if vendor is not None:
            if deployment.family == "pagefair_like":
                requests.append(
                    Subresource(
                        url=f"http://asset.{vendor.domain}/measure.gif?ab=0",
                        resource_type="image",
                        size=43,
                    )
                )
            if deployment.family in ("pagefair_like", "http_bait"):
                requests.append(
                    Subresource(
                        url=f"http://{profile.domain}{deployment.bait_path}",
                        resource_type="script",
                        size=120,
                    )
                )
            if deployment.family == "ab_test_detect":
                requests.append(
                    Subresource(
                        url=f"http://log.{vendor.domain}/event?ab=0",
                        resource_type="image",
                        size=43,
                    )
                )
        else:
            # Self-hosted deployments probe a first-party bait URL.
            requests.append(
                Subresource(
                    url=f"http://{profile.domain}{deployment.bait_path}",
                    resource_type="script",
                    size=120,
                )
            )
        return requests

    @staticmethod
    def _render_html(profile: SiteProfile, scripts: List[Script], notice_html: str) -> str:
        script_tags = "\n".join(
            f'<script src="{script.url}"></script>' for script in scripts if script.url
        )
        return f"""<!DOCTYPE html>
<html lang="en">
<head>
<title>{profile.domain}</title>
<link rel="stylesheet" href="http://static.{profile.domain}/css/main.css">
{script_tags}
</head>
<body>
<div id="header" class="site-header">{profile.domain}</div>
<div id="content" class="main-content">
<p>Welcome to {profile.domain} — {profile.category}.</p>
<img src="http://static.{profile.domain}/img/hero.jpg">
</div>
{notice_html}
<div id="footer" class="site-footer">&copy; {profile.domain}</div>
</body>
</html>"""

    def _anti_bot_snapshot(self, profile: SiteProfile) -> PageSnapshot:
        """The tiny error page an anti-bot site serves the archive crawler."""
        return PageSnapshot(
            url=profile.url,
            html="<html><head><title>403</title></head><body>Access denied.</body></html>",
            subresources=[],
            scripts=[],
        )

    # -- archive building ------------------------------------------------------

    def build_archive(self) -> WaybackArchive:
        """Populate a Wayback archive with monthly captures of every site."""
        from ..obs.metrics import get_metrics
        from ..obs.trace import span as trace_span

        archive = WaybackArchive()
        months = self.config.months()
        stored = excluded = 0
        with trace_span("archive:build", sites=len(self.sites)) as span:
            for profile in self.sites:
                if profile.excluded is not None:
                    archive.exclude(profile.domain, profile.excluded)
                    excluded += 1
                    continue
                if profile.archive_start is None:
                    continue
                capture_rng = rng_for(self.seed, "capture", profile.domain)
                for month in months:
                    if month < profile.archive_start:
                        continue
                    if profile.archive_end is not None and month > profile.archive_end:
                        continue
                    if capture_rng.random() > self.config.capture_hit_rate:
                        continue
                    capture_day = month + timedelta(days=int(capture_rng.integers(0, 25)))
                    partial = (
                        profile.anti_bot_from is not None
                        and capture_day >= profile.anti_bot_from
                        and capture_rng.random() < 0.75
                    )
                    snapshot = (
                        self._anti_bot_snapshot(profile)
                        if partial
                        else self.snapshot(profile, capture_day)
                    )
                    archive.store(profile.domain, capture_day, snapshot, partial=partial)
                    stored += 1
            span.set(snapshots=stored, excluded_sites=excluded)
        metrics = get_metrics()
        metrics.count("archive.snapshots", stored)
        metrics.count("archive.excluded_sites", excluded)
        return archive

    # -- the live web (§4.3) -----------------------------------------------------

    def live_domains(self) -> List[RankedDomain]:
        """The live crawl's domain list (top ``live_top`` ranks)."""
        return self.population.top(self.config.live_top)

    def live_snapshot(self, rank: int) -> Optional[PageSnapshot]:
        """The page served on the live-crawl date, or ``None`` if the site
        is unreachable (the paper reached 99,396 of 100K)."""
        profile = self.profile_for_rank(rank)
        rng = rng_for(self.seed, "live", rank)
        if rng.random() < 0.006:
            return None
        if profile.redirect_from is not None:
            # On the live web the browser follows the redirect and still
            # loads the page.
            profile = SiteProfile(
                domain=profile.domain,
                rank=profile.rank,
                category=profile.category,
                deployment=profile.deployment,
                benign_scripts=profile.benign_scripts,
                base_resources=profile.base_resources,
            )
        return self.snapshot(profile, self.config.live_date)
