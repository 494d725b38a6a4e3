"""Epoch-swap hot reload: O(delta) swaps that never drop a query."""

import threading

from repro.serve.reload import EpochChain, partition_rule_lines

NETWORK_LINES = ["||ads.example.com^", "||tracker.example/pixel.gif"]
ELEMENT_LINES = ["##.adsbox"]


def make_chain(stub_detector):
    network, element, _ = partition_rule_lines(NETWORK_LINES + ELEMENT_LINES)
    return EpochChain(stub_detector, network, element)


class TestPartition:
    def test_splits_and_skips(self):
        network, element, skipped = partition_rule_lines(
            [
                "||ads.example.com^",
                "##.adsbox",
                "example.com##.banner",
                "! a comment",
                "[Adblock Plus 2.0]",
                "   ",
            ]
        )
        assert [r.raw for r in network] == ["||ads.example.com^"]
        assert [r.raw for r in element] == ["##.adsbox", "example.com##.banner"]
        assert skipped == 3


class TestEpochSwap:
    def test_reload_changes_answers(self, stub_detector):
        chain = make_chain(stub_detector)
        blocker = chain.current.online.adblocker
        assert blocker.should_block("https://ads.example.com/banner.js")
        assert not blocker.should_block("https://newads.example.net/unit.js")

        summary = chain.reload(["||newads.example.net^"], ["||ads.example.com^"])
        assert summary == {
            "epoch": 1, "added": 1, "removed": 1, "skipped": 0, "drained": True,
        }
        blocker = chain.current.online.adblocker
        assert not blocker.should_block("https://ads.example.com/banner.js")
        assert blocker.should_block("https://newads.example.net/unit.js")

    def test_reload_skips_junk_lines(self, stub_detector):
        chain = make_chain(stub_detector)
        summary = chain.reload(["! note", "||x.example^"], [])
        assert summary["added"] == 1
        assert summary["skipped"] == 1

    def test_element_rules_reload(self, stub_detector):
        chain = make_chain(stub_detector)
        chain.reload(["##.sponsor-wall"], ["##.adsbox"])
        raws = [r.raw for r in chain.current.online.adblocker._element_rules]
        assert "##.sponsor-wall" in raws
        assert "##.adsbox" not in raws

    def test_detector_and_verdict_cache_survive_swaps(self, stub_detector):
        chain = make_chain(stub_detector)
        chain.verdict_cache["digest"] = True
        chain.reload(["||x.example^"], [])
        assert chain.current.online.detector is stub_detector
        assert chain.current.online._verdict_cache is chain.verdict_cache

    def test_epoch_zero_has_empty_history(self, stub_detector):
        chain = make_chain(stub_detector)
        assert chain.current.index == 0
        assert chain.retired == 0


class TestDraining:
    def test_inflight_query_finishes_on_its_epoch(self, stub_detector):
        chain = make_chain(stub_detector)
        epoch = chain.acquire()  # a query in flight on epoch 0

        done = threading.Event()

        def reloader():
            chain.reload(["||y.example^"], [], wait=True, timeout=5.0)
            done.set()

        thread = threading.Thread(target=reloader, daemon=True)
        thread.start()
        # The swap is immediate: new queries land on epoch 1 while the
        # old query still holds epoch 0.
        for _ in range(100):
            if chain.current.index == 1:
                break
            threading.Event().wait(0.01)
        assert chain.current.index == 1
        assert not done.is_set()  # reloader is waiting on the drain
        assert epoch.online.adblocker.should_block("https://ads.example.com/a.js")

        epoch.release()
        assert done.wait(5.0)
        assert epoch.drained.is_set()
        assert chain.retired == 1

    def test_drain_timeout_reports_undrained(self, stub_detector):
        """A held epoch past the timeout: swap succeeds, drain honestly fails."""
        chain = make_chain(stub_detector)
        epoch = chain.acquire()  # held across the whole reload
        summary = chain.reload(["||w.example^"], [], wait=True, timeout=0.05)
        assert summary["drained"] is False
        assert chain.retired == 0  # not counted as retired until it drains
        assert chain.current.index == 1  # the swap itself still happened
        epoch.release()
        assert epoch.drained.wait(1.0)

    def test_draining_epoch_rejects_new_queries(self, stub_detector):
        chain = make_chain(stub_detector)
        old = chain.current
        chain.reload([], ["||ads.example.com^"])
        assert old.acquire() is False
        assert chain.acquire() is chain.current

    def test_acquire_retries_across_swap(self, stub_detector):
        chain = make_chain(stub_detector)
        for _ in range(3):
            chain.reload(["||z{0}.example^".format(chain.current.index)], [])
        epoch = chain.acquire()
        assert epoch.index == 3
        epoch.release()
