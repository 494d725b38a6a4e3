"""Tests for the synthetic world and filter-list history generator."""

from datetime import date, timedelta

import pytest

from repro.jsast import parse
from repro.synthesis.alexa import DomainPopulation
from repro.synthesis.listgen import FilterListGenerator, generate_all_lists
from repro.synthesis.world import SyntheticWorld, WorldConfig

SMALL = WorldConfig(n_sites=200, live_top=400)


@pytest.fixture(scope="module")
def world():
    return SyntheticWorld(SMALL)


@pytest.fixture(scope="module")
def lists(world):
    return generate_all_lists(world)


class TestWorldConstruction:
    def test_site_count(self, world):
        assert len(world.sites) == 200

    def test_deterministic(self, world):
        other = SyntheticWorld(SMALL)
        assert [s.domain for s in other.sites] == [s.domain for s in world.sites]
        assert [s.uses_anti_adblock for s in other.sites] == [
            s.uses_anti_adblock for s in world.sites
        ]

    def test_adoption_rate_in_band(self, world):
        adopters = [s for s in world.sites if s.uses_anti_adblock]
        rate = len(adopters) / len(world.sites)
        assert 0.05 <= rate <= 0.18

    def test_vendor_share(self, world):
        adopters = [s for s in world.sites if s.uses_anti_adblock]
        vendor = [s for s in adopters if s.deployment.is_third_party]
        assert len(vendor) / len(adopters) > 0.6

    def test_vendor_not_deployed_before_launch(self, world):
        for site in world.sites:
            deployment = site.deployment
            if deployment is not None and deployment.vendor is not None:
                assert deployment.deployed_on >= deployment.vendor.launched

    def test_every_site_has_benign_scripts(self, world):
        assert all(site.benign_scripts for site in world.sites)

    def test_all_script_sources_parse(self, world):
        for site in world.sites[:40]:
            for script in site.benign_scripts:
                if script.source:
                    parse(script.source)
            if site.deployment is not None:
                parse(site.deployment.script_source)


class TestLazySites:
    def test_new_world_builds_nothing(self):
        world = SyntheticWorld(SMALL)
        assert world._profiles == {}
        assert world.population.minted() == []

    def test_sites_equal_profiles_by_rank_in_order(self, world):
        fresh = SyntheticWorld(SMALL)
        by_rank = [fresh.profile_for_rank(rank) for rank in range(1, SMALL.n_sites + 1)]
        assert world.sites == by_rank
        assert [site.rank for site in world.sites] == list(range(1, SMALL.n_sites + 1))

    def test_profile_fetched_before_sites_is_reused(self):
        world = SyntheticWorld(SMALL)
        early = world.profile_for_rank(3)
        assert world.sites[2] is early
        assert world.sites is world.sites


class TestMintTable:
    # At seed 1702, ranks 54 and 150 first draw the same name; whichever
    # is minted second takes a numeric suffix, so names follow mint order.

    def test_minted_restore_round_trip(self):
        source = DomainPopulation(seed=1702)
        source.domain_at(150)
        source.top(200)
        table = source.minted()
        assert table[0] == (150, source.domain_at(150))

        restored = DomainPopulation(seed=1702)
        restored.restore(table)
        assert restored.minted() == table
        assert [restored.rank_of(name) for _, name in table] == [r for r, _ in table]
        # Later mints see the restored names, as they did in the source.
        assert [restored.domain_at(r) for r in range(200, 400)] == [
            source.domain_at(r) for r in range(200, 400)
        ]
        # Without the table, rank order hands the shared name to rank 54.
        rank_order = DomainPopulation(seed=1702)
        assert [rank_order.domain_at(r) for r in (54, 150)] != [
            source.domain_at(r) for r in (54, 150)
        ]

    def test_conflicting_restore_raises(self):
        population = DomainPopulation(seed=1702)
        population.top(200)
        other = DomainPopulation(seed=1702)
        other.domain_at(150)
        with pytest.raises(ValueError, match="rank 150"):
            population.restore(other.minted())
        with pytest.raises(ValueError, match="minted for rank 54"):
            population.restore([(1000, population.domain_at(54))])


class TestSnapshots:
    def test_snapshot_before_deployment_has_no_anti_adblock(self, world):
        adopter = next(s for s in world.sites if s.uses_anti_adblock)
        before = adopter.deployment.deployed_on - timedelta(days=40)
        if before < world.config.start:
            pytest.skip("deployment too early to have a pre-deployment month")
        snapshot = world.snapshot(adopter, before)
        assert not snapshot.uses_anti_adblock

    def test_snapshot_after_deployment_has_anti_adblock(self, world):
        adopter = next(s for s in world.sites if s.uses_anti_adblock)
        snapshot = world.snapshot(adopter, world.config.end)
        assert snapshot.uses_anti_adblock
        assert any(
            r.url == adopter.deployment.script_url for r in snapshot.subresources
        )

    def test_static_notice_rendered(self, world):
        noticed = [
            s
            for s in world.sites
            if s.deployment is not None and s.deployment.notice_id is not None
        ]
        if not noticed:
            pytest.skip("no static-notice adopters at this scale/seed")
        site = noticed[0]
        snapshot = world.snapshot(site, world.config.end)
        assert site.deployment.notice_id in snapshot.html

    def test_redirect_snapshot(self, world):
        redirector = next(
            (s for s in world.sites if s.redirect_from is not None), None
        )
        if redirector is None:
            pytest.skip("no redirect sites at this scale/seed")
        snapshot = world.snapshot(redirector, world.config.end)
        assert snapshot.status == 301
        assert snapshot.redirect_to

    def test_snapshot_html_parses(self, world):
        from repro.web.dom import parse_html

        snapshot = world.snapshot(world.sites[0], world.config.end)
        document = parse_html(snapshot.html)
        assert document.body is not None


class TestArchive:
    def test_archive_has_exclusions_and_captures(self, world):
        archive = world.build_archive()
        assert archive.total_captures() > 0
        # Excluded fractions are small but usually nonzero at 200 sites.
        assert len(archive.excluded_domains()) <= 15

    def test_excluded_sites_never_captured(self, world):
        archive = world.build_archive()
        for domain in archive.excluded_domains():
            assert archive.captures_for(domain) == []


class TestLiveWeb:
    def test_live_snapshot_mostly_reachable(self, world):
        reachable = sum(
            1 for rank in range(1, 300) if world.live_snapshot(rank) is not None
        )
        assert reachable >= 290

    def test_tail_profiles_lightweight(self, world):
        profile = world.profile_for_rank(world.config.n_sites + 5)
        assert all(not s.source for s in profile.benign_scripts)

    def test_tail_adopters_have_script_source(self, world):
        for rank in range(world.config.n_sites + 1, world.config.live_top + 1):
            profile = world.profile_for_rank(rank)
            if profile.deployment is not None:
                assert profile.deployment.script_source
                return
        pytest.skip("no tail adopters at this scale")


class TestListGeneration:
    def test_all_lists_present(self, lists):
        assert set(lists) == {"aak", "easylist", "awrl", "combined_easylist"}

    def test_aak_window(self, lists):
        aak = lists["aak"]
        assert aak.first_date >= date(2014, 1, 1)
        assert aak.last_date <= date(2016, 12, 1)

    def test_easylist_starts_2011(self, lists):
        assert lists["easylist"].first_date == date(2011, 5, 1)

    def test_lists_grow(self, lists):
        for history in lists.values():
            first = len(history[0].rules)
            last = len(history.latest().rules)
            assert last >= first

    def test_rules_all_parse(self, lists):
        # Every emitted revision was built through parse_filter_list with
        # default (lenient) settings; assert none of the rules were dropped.
        for history in lists.values():
            for revision in history:
                assert not revision.filter_list.errors

    def test_vendor_rule_present(self, lists):
        latest = lists["aak"].latest()
        raws = {r.raw for r in latest.rules}
        assert "||pagefair.com^$third-party" in raws

    def test_overlap_nonempty(self, world):
        generator = FilterListGenerator(world)
        assert len(generator.overlap_domains) > 0

    def test_combined_easylist_is_superset(self, lists):
        combined = lists["combined_easylist"].latest()
        easylist = lists["easylist"].latest()
        awrl = lists["awrl"].latest()
        assert len(combined.rules) == len(easylist.rules) + len(awrl.rules)
