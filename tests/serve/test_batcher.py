"""The RequestBatcher's collector loop against a fake engine.

The collector answers every batch inline through ``answer_batch``. The
behaviours pinned here: a burst larger than one batch is answered in
order, ``close()`` answers what is already queued, and a batch that
raises costs only the query at fault while the collector keeps running.
"""

import threading
import time

from repro.obs.metrics import get_metrics
from repro.serve.batcher import RequestBatcher


def _answer(query):
    if query.get("boom"):
        raise RecursionError("maximum recursion depth exceeded")
    return {"ok": True, "op": query.get("op"), "url": query.get("url")}


class FakeEngine:
    """Engine double: answers by echoing each query's url, after a delay."""

    def __init__(self, delay=0.0):
        self.delay = delay
        self.batches = []

    def answer_batch(self, queries, batched=True):
        self.batches.append(len(queries))
        time.sleep(self.delay)
        return [_answer(query) for query in queries]


def _queries(count):
    return [{"op": "url", "url": f"https://x.example/{i}"} for i in range(count)]


class TestPipelinedDelivery:
    def test_burst_spanning_batches_answers_in_order(self):
        engine = FakeEngine()
        batcher = RequestBatcher(engine, batch_size=4, wait_ms=1.0)
        batcher.start()
        try:
            queries = _queries(10)
            answers = batcher.ask_many(queries, timeout=5.0)
        finally:
            batcher.close()
        assert [a["url"] for a in answers] == [q["url"] for q in queries]
        assert engine.batches == [4, 4, 2]

    def test_close_flushes_a_pending_future(self):
        """``close()`` answers every query already queued."""
        engine = FakeEngine(delay=0.05)
        batcher = RequestBatcher(engine, batch_size=4, wait_ms=1.0)
        batcher.start()
        result = {}

        def client():
            result["answers"] = batcher.ask_many(_queries(8), timeout=5.0)

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not engine.batches and time.monotonic() < deadline:
            time.sleep(0.001)  # until the first batch is being answered
        batcher.close()
        thread.join(5.0)
        assert not thread.is_alive()
        assert [a["ok"] for a in result["answers"]] == [True] * 8
        assert not batcher.alive


class TestRaisingBatch:
    def test_inline_batch_answers_the_neighbours_and_keeps_collecting(self):
        engine = FakeEngine()
        batcher = RequestBatcher(engine, batch_size=8, wait_ms=1.0)
        batcher.start()
        try:
            burst = _queries(3)
            burst[1]["boom"] = True
            answers = batcher.ask_many(burst, timeout=5.0)
            later = batcher.ask_many(_queries(2), timeout=5.0)
            assert batcher.alive
        finally:
            batcher.close()
        assert [a["ok"] for a in answers] == [True, False, True]
        assert answers[1]["error"] == "internal error: RecursionError"
        assert [a["ok"] for a in later] == [True, True]
        assert get_metrics().counter("serve.internal_errors") == 1
