"""Spans around the program's public calls, installed from the benchmark's side.

Only traced runs import this module: the launcher installs the wrappers
into a fresh program process before handing control to the program's
own entry point, and dumps everything recorded when that entry point
returns. Nothing under ``src/`` is edited; each wrapper replaces one
public function or method (and every module-level alias of it).

Each wrapped call records a span: name, start, end, self time (its
duration minus the part its child spans cover), and the enclosing span.
Calls that run thousands of times ("hot" leaves such as URL matching or
JS parsing) are aggregated per parent span instead of stored one by one.
On the serve path the client's query id rides in the query; every span
of one query (decode, dispatch, queue wait, encode) is keyed by it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter_ns


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self.t0 = _clock()
        #: Non-hot spans, one dict each.
        self.spans: List[Dict[str, Any]] = []
        #: Hot spans: (name, parent span id) -> [calls, outer_ns, self_ns].
        self.agg: Dict[tuple, List[int]] = {}
        #: Counters recorded at the same boundaries (records, bytes, ...).
        self.counts: Dict[str, float] = {}
        #: Serve: query id -> {"decode"|"dispatch"|"wait"|"encode": ns}.
        self.requests: Dict[Any, Dict[str, int]] = {}
        #: Serve: one row per answer_batch call: [self_ns, size].
        self.batches: List[List[int]] = []
        self._enqueued: Dict[int, tuple] = {}

    # -- the span stack (one per thread) --------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, hot: bool) -> list:
        frame = [name, hot, _clock(), 0, 0 if hot else next(self._ids)]
        self._stack().append(frame)
        return frame

    def exit(self, frame: list) -> int:
        """Close ``frame``; returns its duration in ns."""
        end = _clock()
        stack = self._stack()
        stack.pop()
        name, hot, start, child_ns, span_id = frame
        duration = end - start
        parent = 0
        nested = False
        for outer in reversed(stack):
            if outer[0] == name:
                nested = True
            if not parent and not outer[1]:
                parent = outer[4]
        if stack:
            stack[-1][3] += duration
        with self._lock:
            if hot:
                slot = self.agg.get((name, parent))
                if slot is None:
                    slot = self.agg[(name, parent)] = [0, 0, 0]
                slot[0] += 1
                if not nested:
                    slot[1] += duration
                slot[2] += duration - child_ns
            else:
                span = {
                    "id": span_id,
                    "name": name,
                    "start_ns": start - self.t0,
                    "end_ns": end - self.t0,
                    "self_ns": duration - child_ns,
                    "parent": parent,
                    "nested": nested,
                }
                self.spans.append(span)
        return duration

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    # -- serve request ids ------------------------------------------------------

    @property
    def request_id(self) -> Any:
        return getattr(self._local, "rid", None)

    @request_id.setter
    def request_id(self, rid: Any) -> None:
        self._local.rid = rid

    def request_field(self, rid: Any, field: str, value: int) -> None:
        if rid is None:
            return
        with self._lock:
            self.requests.setdefault(rid, {})[field] = value

    def enqueued(self, query: Any) -> None:
        self._enqueued[id(query)] = (self.request_id, _clock())

    def batch_started(self, queries) -> None:
        now = _clock()
        for query in queries:
            rid, at = self._enqueued.pop(id(query), (None, now))
            self.request_field(rid, "wait", now - at)

    def dump(self, path: str, **extra: Any) -> None:
        payload = {
            "spans": self.spans,
            "agg": [[name, parent, *slot] for (name, parent), slot in self.agg.items()],
            "counts": self.counts,
            "requests": [[rid, fields] for rid, fields in self.requests.items()],
            "batches": self.batches,
        }
        payload.update(extra)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# -- wrapper factories -------------------------------------------------------------


def spanned(rec: Recorder, name: str, hot: bool = False,
            after: Optional[Callable[..., None]] = None) -> Callable:
    """A factory wrapping a callable in one span (``after`` sees the result)."""

    def factory(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = rec.enter(name, hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.exit(frame)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    return factory


def patch_method(cls: type, attr: str, factory: Callable) -> None:
    setattr(cls, attr, factory(cls.__dict__[attr]))


def patch_function(module: str, attr: str, factory: Callable) -> None:
    """Wrap a module-level function and every ``repro`` alias of it."""
    original = getattr(importlib.import_module(module), attr)
    wrapped = factory(original)
    for name, loaded in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(loaded, attr, None) is original:
            setattr(loaded, attr, wrapped)


#: Modules imported before patching, so every by-name alias exists.
_PRELOAD = (
    "repro.experiments.context",
    "repro.core.online",
    "repro.core.featstore",
    "repro.core.features",
    "repro.analysis.coverage",
    "repro.analysis.livecrawl",
    "repro.web.browser",
    "repro.jsast",
    "repro.graph.core",
    "repro.serve.batcher",
    "repro.serve.daemon",
    "repro.serve.reload",
)


def install(rec: Recorder, experiments=()) -> None:
    """Wrap every public call the per-layer metrics time."""
    for module in _PRELOAD + tuple(f"repro.experiments.{name}" for name in experiments):
        importlib.import_module(module)

    from repro.analysis.coverage import CoverageAnalyzer
    from repro.analysis.livecrawl import LiveCrawler
    from repro.core.adaboost import AdaBoostClassifier
    from repro.core.featstore import FeatureStore
    from repro.core.online import OnlineAdblocker
    from repro.core.pipeline import AntiAdblockDetector
    from repro.core.svm import SVC
    from repro.filterlist.matcher import NetworkMatcher
    from repro.graph.core import ArtifactGraph
    from repro.serve.batcher import RequestBatcher, ServeEngine
    from repro.serve.daemon import ServeDaemon
    from repro.serve.reload import EpochChain
    from repro.synthesis.world import SyntheticWorld
    from repro.wayback.crawler import WaybackCrawler
    from repro.web.adblocker import Adblocker

    # synthesis
    patch_method(SyntheticWorld, "__init__", spanned(rec, "synthesis.world"))
    patch_function("repro.synthesis.listgen", "generate_all_lists", spanned(rec, "synthesis.lists"))
    patch_method(SyntheticWorld, "build_archive", spanned(rec, "synthesis.archive"))

    # wayback
    def crawled(args, result):
        rec.count("wayback.crawl.records", len(result.records))

    patch_method(WaybackCrawler, "crawl", spanned(rec, "wayback.crawl", after=crawled))

    # filterlist
    for attr in ("match", "match_profile", "first_match", "first_match_profile"):
        patch_method(NetworkMatcher, attr, spanned(rec, "filterlist.match", hot=True))
    patch_method(NetworkMatcher, "apply_delta", spanned(rec, "filterlist.delta", hot=True))
    patch_method(NetworkMatcher, "__init__", spanned(rec, "filterlist.build", hot=True))

    # analysis (the replay's own PerfCounters are read after each analyze)
    def replayed(args, result):
        perf = args[0].perf
        rec.count("analysis.perf.match_calls", perf.match_calls)
        rec.count("analysis.perf.candidates_probed", perf.candidates_probed)
        rec.count("analysis.perf.matcher_cache_hits", perf.matcher_cache_hits)
        rec.count(
            "analysis.perf.matcher_lookups",
            perf.matcher_cache_hits + perf.matcher_full_builds + perf.matcher_incremental_builds,
        )
        rec.count("analysis.perf.profile_hits", perf.profile_hits)
        rec.count("analysis.perf.profile_lookups", perf.profile_hits + perf.profile_builds)

    patch_method(CoverageAnalyzer, "analyze", spanned(rec, "analysis.replay", after=replayed))
    patch_method(LiveCrawler, "crawl", spanned(rec, "analysis.live"))

    # web
    def decided(args, result):
        rec.count("web.should_block.blocked", 1 if result else 0)

    patch_method(Adblocker, "should_block", spanned(rec, "web.should_block", hot=True, after=decided))
    patch_method(Adblocker, "hide_elements", spanned(rec, "web.hide", hot=True))
    patch_function("repro.web.dom", "parse_html", spanned(rec, "web.dom.parse", hot=True))

    # jsast (the pipeline unpacks parsed programs: unpack_program is the
    # call it makes; unpack_source is its source-text front end)
    patch_function("repro.jsast.parser", "parse", spanned(rec, "jsast.parse", hot=True))
    patch_function("repro.jsast.unpack", "unpack_program", spanned(rec, "jsast.unpack", hot=True))
    patch_function("repro.jsast.unpack", "unpack_source", spanned(rec, "jsast.unpack", hot=True))

    # core
    patch_function("repro.core.corpus", "build_corpus", spanned(rec, "core.corpus"))
    patch_method(FeatureStore, "features_for_corpus", spanned(rec, "core.features", hot=True))
    patch_method(SVC, "fit", spanned(rec, "core.fit", hot=True))
    patch_method(AdaBoostClassifier, "fit", spanned(rec, "core.fit", hot=True))

    def predicted(args, result):
        rec.count("core.predict.scripts", len(args[1]))

    patch_method(AntiAdblockDetector, "predict", spanned(rec, "core.predict", hot=True, after=predicted))

    def scanned(args, result):
        rec.count("core.scan.lookups", sum(1 for script in args[1] if script.source))

    patch_method(OnlineAdblocker, "scan_scripts", spanned(rec, "core.scan", hot=True, after=scanned))

    # graph
    def stored(args, result):
        rec.count("graph.store.bytes", result)

    patch_function("repro.graph.store", "store_entry", spanned(rec, "graph.store", after=stored))
    patch_function("repro.graph.store", "load_entry", spanned(rec, "graph.load"))

    # experiments: the self time of each exp:<name> resolve
    resolve = ArtifactGraph.__dict__["resolve"]

    @functools.wraps(resolve)
    def traced_resolve(self, name, compute):
        if not name.startswith("exp:"):
            return resolve(self, name, compute)
        frame = rec.enter(f"experiments.{name[4:]}", False)
        try:
            return resolve(self, name, compute)
        finally:
            rec.exit(frame)

    ArtifactGraph.resolve = traced_resolve

    _install_serve(rec, ServeDaemon, RequestBatcher, ServeEngine, EpochChain)


def _install_serve(rec: Recorder, ServeDaemon, RequestBatcher, ServeEngine, EpochChain) -> None:
    from repro.serve import protocol

    decode = protocol.decode_line

    @functools.wraps(decode)
    def traced_decode(line):
        frame = rec.enter("serve.decode", True)
        try:
            message = decode(line)
        finally:
            duration = rec.exit(frame)
        rid = message.get("id") if isinstance(message, dict) else None
        rec.request_id = rid
        rec.request_field(rid, "decode", duration)
        return message

    protocol.decode_line = traced_decode

    encode = protocol.encode

    @functools.wraps(encode)
    def traced_encode(message):
        frame = rec.enter("serve.encode", True)
        try:
            return encode(message)
        finally:
            rec.request_field(rec.request_id, "encode", rec.exit(frame))

    protocol.encode = traced_encode

    dispatch = ServeDaemon.__dict__["dispatch"]

    @functools.wraps(dispatch)
    def traced_dispatch(self, message):
        frame = rec.enter("serve.dispatch", True)
        try:
            return dispatch(self, message)
        finally:
            rec.request_field(rec.request_id, "dispatch", rec.exit(frame))

    ServeDaemon.dispatch = traced_dispatch

    ask = RequestBatcher.__dict__["ask"]

    @functools.wraps(ask)
    def traced_ask(self, query, timeout=None):
        rec.enqueued(query)
        return ask(self, query, timeout)

    RequestBatcher.ask = traced_ask

    answer = ServeEngine.__dict__["answer_batch"]

    @functools.wraps(answer)
    def traced_answer(self, queries, batched=True):
        rec.batch_started(queries)
        frame = rec.enter("serve.answer", True)
        try:
            return answer(self, queries, batched)
        finally:
            duration = rec.exit(frame)
            rec.batches.append([duration - frame[3], len(queries)])

    ServeEngine.answer_batch = traced_answer

    def prewarmed(args, result):
        rec.count("serve.prewarm.scripts", result)

    patch_function("repro.serve.batcher", "prewarm_verdicts",
                   spanned(rec, "serve.prewarm", hot=True, after=prewarmed))
    patch_method(EpochChain, "reload", spanned(rec, "serve.reload"))
