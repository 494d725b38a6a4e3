"""Query engine and request batcher: the serve daemon's data path.

Three execution paths, all answering byte-identically to the offline
:class:`~repro.core.online.OnlineAdblocker`:

- **naive** — one query per call, exactly the offline code path (the
  loadgen benchmark's baseline);
- **batched** — a *prewarm* pass collects the batch's unique uncached
  script sources and scores them with ONE ``detector.predict`` call, so
  the per-call vectorise/kernel overhead is paid once per batch instead
  of once per script; ``visit``/``scan_scripts`` then run against a warm
  verdict cache. This is where the ≥3× loadgen speedup comes from;
- **pooled** — whole batches dispatched to
  :class:`~repro.analysis.pool.PersistentPool` workers via ``submit``
  (pipelined: the batcher collects batch N+1 while the pool scores
  batch N). Workers fork with epoch 0 and fold the parent's raw-line
  delta history forward (:meth:`~repro.serve.reload.EpochChain.fold_to`),
  so a hot reload reaches them with the next batch.

The :class:`RequestBatcher` is the admission queue between protocol
handler threads and the engine: a handler enqueues a connection's
pipelined group of queries at once and blocks on their slots, a single
collector thread lingers up to ``REPRO_SERVE_WAIT_MS`` to fill batches
of ``REPRO_SERVE_BATCH``, and every query's queue-to-answer latency
lands in the ``serve.latency_ns`` histogram. A batch that raises (inline,
or a pool batch whose result raises) is answered again one query at a
time, so only the query at fault gets an error frame; each such query
ticks ``serve.internal_errors`` and the collector keeps running.
"""

from __future__ import annotations

import logging
import threading
import time
import traceback
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.online import OnlineAdblocker, source_digest
from ..obs.config import serve_batch_size, serve_wait_ms
from ..obs.hist import ns_buckets
from ..obs.metrics import get_metrics
from . import protocol
from .reload import EpochChain

logger = logging.getLogger("repro.serve.batcher")

#: Innermost traceback frames logged for a failed query (a RecursionError's
#: full traceback runs to tens of thousands of frames).
LOG_FRAMES = 8


# -- answering (shared by parent and pool workers) -------------------------------


def answer_query(online: OnlineAdblocker, query: Dict[str, Any]) -> Dict[str, Any]:
    """Answer one decoded query against one epoch's adblocker."""
    op = query.get("op")
    try:
        if op == "url":
            url = query.get("url")
            if not isinstance(url, str) or not url:
                return protocol.error_response("url: missing 'url'", op)
            blocked = online.adblocker.should_block(
                url,
                page_url=query.get("page_url", "") or "",
                resource_type=query.get("resource_type", "other") or "other",
            )
            return protocol.ok_response(op, blocked=bool(blocked))
        if op == "script":
            source = query.get("source")
            if not isinstance(source, str):
                return protocol.error_response("script: missing 'source'", op)
            from ..web.page import Script

            flagged = bool(online.scan_scripts([Script(source=source)]))
            return protocol.ok_response(op, flagged=flagged)
        if op == "page":
            snapshot = protocol.snapshot_from_wire(query.get("page"))
            result = online.visit(snapshot)
            return protocol.ok_response(
                op, result=protocol.visit_result_to_wire(result)
            )
        return protocol.error_response(f"not a query op: {op!r}", op)
    except protocol.ProtocolError as exc:
        return protocol.error_response(str(exc), op)


def _query_sources(query: Dict[str, Any]):
    """Script sources a query may need verdicts for (prewarm candidates)."""
    op = query.get("op")
    if op == "script":
        source = query.get("source")
        if isinstance(source, str) and source:
            yield source
    elif op == "page":
        page = query.get("page")
        if isinstance(page, dict):
            for item in page.get("scripts", []):
                source = item.get("source") if isinstance(item, dict) else None
                if isinstance(source, str) and source:
                    yield source


def prewarm_verdicts(online: OnlineAdblocker, queries: Sequence[Dict[str, Any]]) -> int:
    """Score the batch's unique uncached script sources in ONE predict call.

    Deduplicates by the same digest :meth:`OnlineAdblocker._verdict`
    uses, so the subsequent per-query path is all cache hits. Scoring a
    page script that rule-filtering would have blocked anyway only adds
    a cache entry — responses are unchanged, which is what the parity
    tests pin.
    """
    pending: List[Tuple[str, str]] = []
    seen = set()
    cache = online._verdict_cache
    for query in queries:
        for source in _query_sources(query):
            digest = source_digest(source)
            if digest in cache or digest in seen:
                continue
            seen.add(digest)
            pending.append((digest, source))
    if not pending:
        return 0
    predictions = online.detector.predict([source for _, source in pending])
    for (digest, _), flag in zip(pending, predictions):
        cache[digest] = bool(flag)
    return len(pending)


# -- pool worker side ------------------------------------------------------------


def _make_worker_chain(published: Dict[str, Any]) -> EpochChain:
    """Build a worker's epoch-0 chain from the fork-published serve state."""
    return EpochChain(
        published["detector"],
        published["network_rules"],
        published["element_rules"],
    )


def _serve_worker_task(chain: EpochChain, payload: Dict[str, Any]):
    """Worker body: fold to the batch's epoch, prewarm, answer.

    The payload carries the parent's full raw-line delta history; the
    worker's cached chain replays only the unseen suffix, so reload cost
    per worker is O(delta) once, amortised across later batches.
    """
    chain.fold_to(payload["deltas"])
    queries = payload["queries"]
    epoch = chain.acquire()
    try:
        prewarmed = prewarm_verdicts(epoch.online, queries)
        answers = [answer_query(epoch.online, query) for query in queries]
        epoch.online.adblocker.log.clear()
    finally:
        epoch.release()
    return {"answers": answers, "prewarmed": prewarmed, "epoch": epoch.index}


class _BatchFuture:
    """A pool batch in flight: holds its epoch until the answers land."""

    def __init__(self, inner, epoch) -> None:
        self._inner = inner
        self._epoch = epoch
        self._released = False

    def done(self) -> bool:
        return self._inner.done()

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        try:
            return self._inner.result(timeout)
        finally:
            if not self._released:
                self._released = True
                self._epoch.release()


# -- the engine ------------------------------------------------------------------


class ServeEngine:
    """Answers query batches against the chain's current epoch.

    ``pool`` (a :class:`~repro.analysis.pool.PersistentPool` with the
    serve state published) enables the fan-out path; without it batches
    run inline. ``batched=False`` per call disables the prewarm pass —
    that is the benchmark's one-query-per-call baseline, not a mode the
    daemon serves in.
    """

    def __init__(self, chain: EpochChain, pool=None) -> None:
        self.chain = chain
        self.pool = pool

    def answer_batch(
        self, queries: Sequence[Dict[str, Any]], batched: bool = True
    ) -> List[Dict[str, Any]]:
        """Answer a batch inline (the no-pool and fallback path)."""
        metrics = get_metrics()
        epoch = self.chain.acquire()
        try:
            if batched:
                prewarmed = prewarm_verdicts(epoch.online, queries)
                if prewarmed:
                    metrics.count("serve.prewarmed", prewarmed)
            answers = [answer_query(epoch.online, query) for query in queries]
            # The daemon is long-lived: the per-visit rule log would grow
            # without bound, and no serve response reads it.
            epoch.online.adblocker.log.clear()
        finally:
            epoch.release()
        metrics.count("serve.queries", len(queries))
        metrics.count("serve.batches")
        return answers

    def submit_batch(self, queries: Sequence[Dict[str, Any]]) -> Optional[_BatchFuture]:
        """Dispatch a batch to a pool worker; ``None`` means run inline.

        The returned future's ``result()`` yields the answer list; the
        acquired epoch is held until then, so a concurrent reload drains
        only after the pool has answered — zero dropped queries.
        """
        if self.pool is None:
            return None
        epoch = self.chain.acquire()
        payload = {
            "epoch": epoch.index,
            "deltas": list(self.chain.deltas[: epoch.index]),
            "queries": list(queries),
        }
        inner = self.pool.submit(
            _serve_worker_task, payload, key="serve", make=_make_worker_chain
        )
        if inner is None:  # pragma: no cover - non-fork platforms
            epoch.release()
            return None
        return _BatchFuture(inner, epoch)

    def collect(self, future: _BatchFuture) -> List[Dict[str, Any]]:
        """Resolve a pool batch and absorb its accounting."""
        outcome = future.result()
        metrics = get_metrics()
        metrics.count("serve.queries", len(outcome["answers"]))
        metrics.count("serve.batches")
        metrics.count("serve.pool_batches")
        if outcome["prewarmed"]:
            metrics.count("serve.prewarmed", outcome["prewarmed"])
        return outcome["answers"]


# -- the batcher -----------------------------------------------------------------


class _Slot:
    """One waiting query: the handler thread blocks on ``event``."""

    __slots__ = ("event", "answer", "enqueued_ns")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.answer: Optional[Dict[str, Any]] = None
        self.enqueued_ns = time.perf_counter_ns()


class RequestBatcher:
    """Admission queue + collector loop between handlers and the engine."""

    def __init__(
        self,
        engine: ServeEngine,
        batch_size: Optional[int] = None,
        wait_ms: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.batch_size = batch_size if batch_size is not None else serve_batch_size()
        self.wait_s = (wait_ms if wait_ms is not None else serve_wait_ms()) / 1000.0
        self._queue: deque = deque()
        self._cv = threading.Condition()
        self._closed = False
        self._thread: Optional[threading.Thread] = None

    # -- handler side --------------------------------------------------------

    def ask(self, query: Dict[str, Any], timeout: Optional[float] = None) -> Dict[str, Any]:
        """Enqueue one query and block until its batch answers."""
        slot = _Slot()
        with self._cv:
            if self._closed:
                return protocol.error_response("daemon is shutting down", query.get("op"))
            self._queue.append((query, slot))
            get_metrics().gauge("serve.queue_depth", len(self._queue))
            self._cv.notify_all()
        if not slot.event.wait(timeout):
            return protocol.error_response("query timed out in queue", query.get("op"))
        return slot.answer

    def ask_many(
        self, queries: Sequence[Dict[str, Any]], timeout: Optional[float] = None
    ) -> List[Dict[str, Any]]:
        """Enqueue a whole ``batch`` frame at once; answers stay in order.

        All queries land in the queue under one lock acquisition, so the
        collector sees the full frame immediately — no linger needed to
        fill the batch. This is the server side of the protocol-level
        batched path.
        """
        slots = [_Slot() for _ in queries]
        with self._cv:
            if self._closed:
                return [
                    protocol.error_response("daemon is shutting down", q.get("op"))
                    for q in queries
                ]
            for query, slot in zip(queries, slots):
                self._queue.append((query, slot))
            get_metrics().gauge("serve.queue_depth", len(self._queue))
            self._cv.notify_all()
        deadline = None if timeout is None else time.monotonic() + timeout
        answers: List[Dict[str, Any]] = []
        for query, slot in zip(queries, slots):
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if not slot.event.wait(remaining):
                answers.append(
                    protocol.error_response("query timed out in queue", query.get("op"))
                )
            else:
                answers.append(slot.answer)
        return answers

    # -- collector side ------------------------------------------------------

    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="serve-batcher", daemon=True
            )
            self._thread.start()

    def close(self, timeout: float = 10.0) -> None:
        """Stop the collector after flushing everything already queued."""
        with self._cv:
            self._closed = True
            self._cv.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def _collect(
        self, pending: Optional[_BatchFuture] = None
    ) -> List[Tuple[Dict[str, Any], _Slot]]:
        """Block for the first query, then linger to fill the batch.

        While a pool batch is in flight (``pending``), the empty-queue
        wait is bounded to short ticks and returns empty the moment the
        future completes, so the loop can deliver those answers. Without
        the bound, the final batch of a burst would wait here for the
        *next* query — which never arrives, because every synchronous
        client is blocked on exactly that batch's answers.
        """
        with self._cv:
            while not self._queue and not self._closed:
                if pending is not None and pending.done():
                    return []
                self._cv.wait(0.002 if pending is not None else 0.1)
            if not self._queue:
                return []
            deadline = time.monotonic() + self.wait_s
            while len(self._queue) < self.batch_size and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cv.wait(remaining)
            count = min(len(self._queue), self.batch_size)
            batch = [self._queue.popleft() for _ in range(count)]
            get_metrics().gauge("serve.queue_depth", len(self._queue))
            return batch

    @staticmethod
    def _deliver(entries: List[Tuple[Dict[str, Any], _Slot]], answers: List[Dict[str, Any]]) -> None:
        metrics = get_metrics()
        now = time.perf_counter_ns()
        for (_, slot), answer in zip(entries, answers):
            slot.answer = answer
            metrics.hist("serve.latency_ns", now - slot.enqueued_ns, ns_buckets())
            slot.event.set()

    def _answer_singly(
        self, queries: Sequence[Dict[str, Any]], failure: Exception
    ) -> List[Dict[str, Any]]:
        """Answer the queries of a batch that raised ``failure`` one at a time.

        Only a query that raises on its own gets an error frame (and a
        ``serve.internal_errors`` tick); its neighbours are answered.
        """
        logger.warning(
            "a batch of %d queries raised %s; answering them one at a time",
            len(queries), type(failure).__name__,
        )
        answers: List[Dict[str, Any]] = []
        for query in queries:
            try:
                answers.extend(self.engine.answer_batch([query]))
            except Exception as exc:
                get_metrics().count("serve.internal_errors")
                logger.error(
                    "%s query failed:\n%s",
                    query.get("op"),
                    "".join(traceback.format_exception(exc, limit=-LOG_FRAMES)),
                )
                answers.append(protocol.error_response(
                    f"internal error: {type(exc).__name__}", query.get("op")
                ))
        return answers

    def _answer_inline(self, queries: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Answer a batch inline; if it raises, answer its queries singly."""
        try:
            return self.engine.answer_batch(queries)
        except Exception as exc:
            return self._answer_singly(queries, exc)

    def _deliver_pooled(self, entries: List[Tuple[Dict[str, Any], _Slot]], future) -> None:
        """Deliver a pool batch; if it raised, answer its queries singly."""
        try:
            answers = self.engine.collect(future)
        except Exception as exc:
            answers = self._answer_singly([query for query, _ in entries], exc)
        self._deliver(entries, answers)

    def _loop(self) -> None:
        metrics = get_metrics()
        #: One pool batch in flight while the next one fills (pipelining).
        pending: Optional[Tuple[List, Any]] = None
        while True:
            batch = self._collect(pending[1] if pending is not None else None)
            if not batch:
                if pending is not None:
                    self._deliver_pooled(*pending)
                    pending = None
                    continue
                if self._closed:
                    return
                continue
            metrics.hist("serve.batch_size", len(batch))
            queries = [query for query, _ in batch]
            future = self.engine.submit_batch(queries)
            if pending is not None:
                self._deliver_pooled(*pending)
                pending = None
            if future is None:
                self._deliver(batch, self._answer_inline(queries))
            else:
                pending = (batch, future)
