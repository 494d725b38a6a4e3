"""The RequestBatcher's collector loop against a fake pool engine.

The pooled path pipelines: batch N scores in a worker while batch N+1
fills. The regression pinned here is the end of a burst — the final
batch's future is pending, every synchronous client is blocked on its
answers, so no new query will ever arrive to wake the collector. The
collector must deliver a pending future as soon as it completes, not
when the next batch (never) shows up.
"""

import threading
import time

from repro.obs.metrics import get_metrics
from repro.serve.batcher import RequestBatcher


def _answers(queries):
    return [{"ok": True, "op": q.get("op")} for q in queries]


class _FakeFuture:
    """Resolves to the batch's answers after a worker-like delay."""

    def __init__(self, queries, delay):
        self._queries = queries
        self._event = threading.Event()
        timer = threading.Timer(delay, self._event.set)
        timer.daemon = True
        timer.start()

    def done(self):
        return self._event.is_set()

    def result(self, timeout=None):
        self._event.wait(timeout)
        return _answers(self._queries)


class FakePoolEngine:
    """Engine double whose submit path completes off-thread, like a pool."""

    def __init__(self, delay=0.05):
        self.delay = delay
        self.pool_batches = 0
        self.inline_batches = 0

    def submit_batch(self, queries):
        return _FakeFuture(list(queries), self.delay)

    def collect(self, future):
        self.pool_batches += 1
        return future.result()

    def answer_batch(self, queries, batched=True):
        self.inline_batches += 1
        return _answers(queries)


def _queries(count):
    return [{"op": "url", "url": f"https://x.example/{i}"} for i in range(count)]


class TestPipelinedDelivery:
    def test_final_pending_batch_delivers_without_new_traffic(self):
        """One full batch, no successor: the stall the 60s timeout used to eat."""
        engine = FakePoolEngine(delay=0.05)
        batcher = RequestBatcher(engine, batch_size=4, wait_ms=1.0)
        batcher.start()
        try:
            t0 = time.monotonic()
            answers = batcher.ask_many(_queries(4), timeout=5.0)
            elapsed = time.monotonic() - t0
        finally:
            batcher.close()
        assert [a["ok"] for a in answers] == [True] * 4
        assert engine.pool_batches == 1
        # Pre-fix this stalled until the ask_many timeout and answered
        # "query timed out in queue"; post-fix it is delay-bound.
        assert elapsed < 2.0

    def test_burst_spanning_batches_answers_in_order(self):
        engine = FakePoolEngine(delay=0.02)
        batcher = RequestBatcher(engine, batch_size=4, wait_ms=1.0)
        batcher.start()
        try:
            queries = _queries(10)
            answers = batcher.ask_many(queries, timeout=5.0)
        finally:
            batcher.close()
        assert len(answers) == 10
        assert all(a["ok"] for a in answers)
        assert engine.pool_batches == 3  # 4 + 4 + 2, all via the pool

    def test_close_flushes_a_pending_future(self):
        engine = FakePoolEngine(delay=0.05)
        batcher = RequestBatcher(engine, batch_size=4, wait_ms=1.0)
        batcher.start()
        result = {}

        def client():
            result["answers"] = batcher.ask_many(_queries(4), timeout=5.0)

        thread = threading.Thread(target=client, daemon=True)
        thread.start()
        time.sleep(0.02)  # let the batch get collected and submitted
        batcher.close()
        thread.join(5.0)
        assert [a["ok"] for a in result["answers"]] == [True] * 4


def _raises_on_boom(queries):
    if any(q.get("boom") for q in queries):
        raise RecursionError("maximum recursion depth exceeded")
    return _answers(queries)


class RaisingEngine(FakePoolEngine):
    """A batch holding a ``boom`` query raises, inline or from the pool."""

    def __init__(self, pooled):
        super().__init__(delay=0.01)
        self.pooled = pooled

    def submit_batch(self, queries):
        return super().submit_batch(queries) if self.pooled else None

    def collect(self, future):
        super().collect(future)
        return _raises_on_boom(future._queries)

    def answer_batch(self, queries, batched=True):
        self.inline_batches += 1
        return _raises_on_boom(queries)


class TestRaisingBatch:
    def _run(self, pooled):
        engine = RaisingEngine(pooled)
        batcher = RequestBatcher(engine, batch_size=8, wait_ms=1.0)
        batcher.start()
        try:
            burst = _queries(3)
            burst[1]["boom"] = True
            answers = batcher.ask_many(burst, timeout=5.0)
            later = batcher.ask_many(_queries(2), timeout=5.0)
        finally:
            batcher.close()
        return answers, later

    def test_inline_batch_answers_the_neighbours_and_keeps_collecting(self):
        answers, later = self._run(pooled=False)
        assert [a["ok"] for a in answers] == [True, False, True]
        assert answers[1]["error"] == "internal error: RecursionError"
        assert [a["ok"] for a in later] == [True, True]
        assert get_metrics().counter("serve.internal_errors") == 1

    def test_pool_batch_whose_collect_raises_is_answered_singly(self):
        answers, later = self._run(pooled=True)
        assert [a["ok"] for a in answers] == [True, False, True]
        assert [a["ok"] for a in later] == [True, True]
        assert get_metrics().counter("serve.internal_errors") == 1
