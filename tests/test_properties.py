"""Property-based tests (hypothesis) on core data structures and invariants."""

import json
import string

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chi2 import chi_square_scores
from repro.core.vectorize import Vectorizer
from repro.analysis.comparison import cdf
from repro.filterlist.matcher import NetworkMatcher
from repro.filterlist.parser import parse_filter_list
from repro.filterlist.rules import NetworkRule, domain_matches
from repro.jsast.tokenizer import tokenize
from repro.wayback.rewrite import parse_timestamp, format_timestamp, truncate_wayback, wayback_url
from repro.web.har import HarFile
from repro.web.http import Exchange, Request, Response
from repro.web.url import is_third_party, registered_domain, split_url

# -- strategies -------------------------------------------------------------

label = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8).filter(
    lambda s: not s[0].isdigit() and not s.endswith("-")
)
domain = st.builds(lambda a, b: f"{a}.{b}", label, st.sampled_from(["com", "net", "org", "io", "tv"]))
subdomain = st.builds(lambda sub, dom: f"{sub}.{dom}", label, domain)
path_segment = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=6)
url = st.builds(
    lambda dom, segments, ext: f"http://{dom}/" + "/".join(segments) + ext,
    st.one_of(domain, subdomain),
    st.lists(path_segment, min_size=0, max_size=3),
    st.sampled_from(["", ".js", ".css", ".png", ".html"]),
)

dates = st.dates(min_value=__import__("datetime").date(2000, 1, 2), max_value=__import__("datetime").date(2030, 12, 31))


# -- tokenizer ----------------------------------------------------------------


class TestTokenizerProperties:
    @given(st.text(alphabet=string.printable, max_size=40))
    @settings(max_examples=150)
    def test_string_literal_roundtrip(self, text):
        escaped = (
            text.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace(" ", "\\u2028")
            .replace(" ", "\\u2029")
        )
        token = tokenize(f'"{escaped}"')[0]
        assert token.kind == "string"
        assert token.value == text.replace("\x0b", "\x0b").replace("\x0c", "\x0c")

    @given(st.floats(min_value=0, max_value=1e15, allow_nan=False))
    @settings(max_examples=100)
    def test_number_roundtrip(self, value):
        token = tokenize(repr(value))[0]
        assert token.kind == "number"
        assert token.value == float(repr(value))

    @given(st.lists(st.sampled_from(["var", "x", "42", "+", "(", ")", ";", "'s'"]), max_size=15))
    @settings(max_examples=100)
    def test_token_concatenation_never_crashes(self, pieces):
        source = " ".join(pieces)
        tokens = tokenize(source)
        assert tokens[-1].kind == "eof"


# -- URLs ------------------------------------------------------------------------


class TestUrlProperties:
    @given(url)
    @settings(max_examples=200)
    def test_registered_domain_idempotent(self, value):
        once = registered_domain(value)
        assert registered_domain(once) == once

    @given(url)
    @settings(max_examples=200)
    def test_own_domain_never_third_party(self, value):
        assert not is_third_party(value, registered_domain(value))

    @given(url)
    @settings(max_examples=200)
    def test_split_host_is_lowercase_and_in_url(self, value):
        parts = split_url(value)
        assert parts.host == parts.host.lower()
        assert parts.host in value

    @given(st.one_of(domain, subdomain))
    @settings(max_examples=100)
    def test_domain_matches_reflexive(self, value):
        assert domain_matches(value, value)

    @given(label, domain)
    @settings(max_examples=100)
    def test_subdomain_matches_parent(self, sub, parent):
        assert domain_matches(f"{sub}.{parent}", parent)


# -- wayback rewriting ------------------------------------------------------------


class TestWaybackProperties:
    @given(url, dates)
    @settings(max_examples=200)
    def test_truncate_inverts_rewrite(self, original, when):
        assert truncate_wayback(wayback_url(original, when)) == original

    @given(dates)
    @settings(max_examples=100)
    def test_timestamp_roundtrip(self, when):
        assert parse_timestamp(format_timestamp(when)) == when


# -- filter rules ---------------------------------------------------------------


class TestFilterRuleProperties:
    @given(domain, st.lists(path_segment, min_size=0, max_size=2))
    @settings(max_examples=150)
    def test_domain_anchor_matches_own_site(self, dom, segments):
        rule = NetworkRule.parse(f"||{dom}^")
        target = f"http://{dom}/" + "/".join(segments)
        assert rule.matches(target)

    @given(domain, domain)
    @settings(max_examples=150)
    def test_exception_always_dominates(self, dom_a, dom_b):
        rules = [
            NetworkRule.parse(f"||{dom_a}^"),
            NetworkRule.parse(f"@@||{dom_a}^"),
            NetworkRule.parse(f"||{dom_b}^"),
        ]
        matcher = NetworkMatcher(rules)
        assert not matcher.match(f"http://{dom_a}/x.js").blocked

    @given(st.lists(domain, min_size=1, max_size=20, unique=True), url)
    @settings(max_examples=100)
    def test_matcher_agrees_with_bruteforce(self, rule_domains, target):
        rules = [NetworkRule.parse(f"||{d}^") for d in rule_domains]
        matcher = NetworkMatcher(rules)
        brute = any(rule.matches(target) for rule in rules)
        assert bool(matcher.match(target).blocked) == brute


# -- HAR ---------------------------------------------------------------------------


class TestFilterListParserFuzz:
    """Real adblockers tolerate bad rules, and so must the parser: any
    text parses, malformed lines land in ``errors``."""

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(max_size=300))
    def test_arbitrary_text_never_raises(self, text):
        parse_filter_list(text, cache=False)

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.text(alphabet="|^$*@#!?,.=~/-_:+()[]{}'\"ab1 ", max_size=40),
            max_size=12,
        )
    )
    def test_rule_shaped_text_never_raises(self, lines):
        parse_filter_list("\n".join(lines), cache=False)


class TestHarProperties:
    @given(st.lists(url, min_size=0, max_size=8), st.lists(st.integers(0, 5000), min_size=8, max_size=8))
    @settings(max_examples=100)
    def test_json_roundtrip_preserves_urls_and_sizes(self, urls, sizes):
        har = HarFile(page_url="http://page.com/")
        for target, size in zip(urls, sizes):
            har.add(Exchange(request=Request(url=target), response=Response(body="y" * size)))
        restored = HarFile.from_json(har.to_json())
        assert restored.request_urls() == har.request_urls()
        assert restored.total_size == har.total_size
        json.loads(har.to_json())  # valid JSON

    @given(st.lists(url, min_size=0, max_size=6), st.lists(url, min_size=0, max_size=6))
    @settings(max_examples=100)
    def test_merge_is_union(self, urls_a, urls_b):
        har_a = HarFile(page_url="http://p.com/")
        har_b = HarFile(page_url="http://p.com/")
        for target in urls_a:
            har_a.add(Exchange(request=Request(url=target), response=Response()))
        for target in urls_b:
            har_b.add(Exchange(request=Request(url=target), response=Response()))
        merged = har_a.merge(har_b)
        seen = set()
        expected = [u for u in urls_a + urls_b if not (u in seen or seen.add(u))]
        assert merged.request_urls() == expected


# -- ML primitives ----------------------------------------------------------------


class TestMlProperties:
    @given(
        st.integers(min_value=4, max_value=30),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60)
    def test_chi2_nonnegative_and_bounded(self, n, m, seed):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 2, size=(n, m))
        y = rng.integers(0, 2, size=n)
        scores = chi_square_scores(X, y)
        assert (scores >= -1e-12).all()
        assert (scores <= n + 1e-9).all()

    @given(
        st.lists(
            st.sets(st.sampled_from(["a", "b", "c", "d", "e", "f"]), max_size=6),
            min_size=4,
            max_size=30,
        ),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60)
    def test_vectorizer_output_binary_and_stable(self, feature_sets, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, size=len(feature_sets))
        vectorizer = Vectorizer(top_k=None)
        X = vectorizer.fit_transform(feature_sets, labels)
        assert set(np.unique(X)) <= {0, 1}
        assert np.array_equal(vectorizer.transform(feature_sets), X)

    @given(st.lists(st.integers(-2000, 2000), max_size=50))
    @settings(max_examples=100)
    def test_cdf_monotone_and_bounded(self, values):
        points = cdf(values)
        probabilities = [p for _, p in points]
        assert probabilities == sorted(probabilities)
        assert all(0.0 <= p <= 1.0 for p in probabilities)


# -- filter-list linter --------------------------------------------------------


class TestLintProperties:
    @given(domain, path_segment)
    @settings(max_examples=100)
    def test_anchor_always_shadows_subpath(self, dom, segment):
        from repro.filterlist.lint import shadows
        from repro.filterlist.rules import NetworkRule

        broad = NetworkRule.parse(f"||{dom}^")
        narrow = NetworkRule.parse(f"||{dom}/{segment}.js")
        assert shadows(broad, narrow)
        assert not shadows(narrow, broad)

    @given(st.lists(domain, min_size=1, max_size=12, unique=True))
    @settings(max_examples=60)
    def test_lint_clean_on_distinct_anchor_rules(self, domains):
        from repro.filterlist.lint import lint_rules
        from repro.filterlist.rules import NetworkRule

        rules = [NetworkRule.parse(f"||{d}^") for d in domains]
        report = lint_rules(rules)
        # Distinct registered domains can only shadow one another when one
        # is a subdomain of another; our generated names never are.
        assert report.of_kind("duplicate") == []
        assert report.of_kind("shadowed") == []

    @given(st.lists(domain, min_size=1, max_size=8, unique=True), domain)
    @settings(max_examples=60)
    def test_deduplicate_idempotent(self, existing_domains, fresh):
        from repro.filterlist.lint import deduplicate_against
        from repro.filterlist.rules import NetworkRule

        existing = [NetworkRule.parse(f"||{d}^") for d in existing_domains]
        candidates = [NetworkRule.parse(f"||{d}/x.js") for d in existing_domains]
        candidates.append(NetworkRule.parse(f"||{fresh}.fresh-tld.example^"))
        kept, _ = deduplicate_against(candidates, existing)
        kept_again, dropped_again = deduplicate_against(kept, existing)
        assert [r.raw for r in kept_again] == [r.raw for r in kept]


# -- incremental history engine --------------------------------------------------


#: Parseable rule lines of rotating Figure 1 type built from random domains.
rule_line = st.builds(
    lambda d, kind: [
        f"||{d}^",
        f"@@||{d}^$script",
        f"{d}###x",
        f"/ads-{d.split('.')[0]}$domain={d}",
        f"##.c-{d.split('.')[0]}",
    ][kind],
    domain,
    st.integers(0, 4),
)


class TestHistoryProperties:
    @given(
        pool=st.lists(rule_line, min_size=4, max_size=20, unique=True),
        ops=st.lists(
            st.tuples(
                st.lists(st.integers(0, 100), max_size=5),  # add (pool indices)
                st.lists(st.integers(0, 100), max_size=3),  # remove (pool indices)
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_delta_roundtrip_and_streaming_series(self, pool, ops):
        from datetime import date, timedelta

        from repro.filterlist.history import FilterListHistory, RevisionDelta
        from repro.filterlist.parser import ParsedRuleCache, set_rule_cache

        previous_cache = set_rule_cache(ParsedRuleCache(capacity=4096))
        try:
            start = date(2014, 1, 1)
            base = pool[: max(1, len(pool) // 2)]
            history = FilterListHistory("prop")
            history.add_revision(start, "\n".join(base) + "\n")
            current = list(base)
            expected = [list(current)]
            for step, (add_idx, rem_idx) in enumerate(ops, start=1):
                added = [pool[j % len(pool)] for j in add_idx]
                removed = sorted({pool[j % len(pool)] for j in rem_idx})
                history.add_revision(
                    start + timedelta(days=step),
                    RevisionDelta(added=added, removed=removed),
                )
                gone = set(removed)
                current = [line for line in current if line not in gone] + added
                expected.append(list(current))

            # Applying the delta chain reconstructs every revision exactly
            # (order and multiplicity, not just set membership).
            for index, lines in enumerate(expected):
                assert history[index].rule_lines() == lines

            # delta(i) applied to revision i-1 reproduces revision i's set.
            for index in range(1, len(history)):
                delta = history.delta(index)
                previous = set(history[index - 1].rule_lines())
                reconstructed = (previous - set(delta.removed)) | set(delta.added)
                assert reconstructed == set(history[index].rule_lines())

            # Streaming folds are pinned equal to the full-scan reference.
            assert history.rule_type_series() == history.rule_type_series_full_scan()
            assert (
                history.total_rules_series() == history.total_rules_series_full_scan()
            )
            assert (
                history.domain_first_appearance()
                == history.domain_first_appearance_full_scan()
            )
        finally:
            set_rule_cache(previous_cache)

    @given(
        texts=st.lists(
            st.lists(rule_line, min_size=0, max_size=8),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_full_text_histories_fold_equal_to_reference(self, texts):
        from datetime import date, timedelta

        from repro.filterlist.history import FilterListHistory

        start = date(2015, 1, 1)
        history = FilterListHistory("prop")
        for step, lines in enumerate(texts):
            history.add_revision(start + timedelta(days=step), "\n".join(lines) + "\n")
        assert history.rule_type_series() == history.rule_type_series_full_scan()
        assert history.total_rules_series() == history.total_rules_series_full_scan()
        assert (
            history.domain_first_appearance()
            == history.domain_first_appearance_full_scan()
        )
