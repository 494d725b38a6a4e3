"""The §5 feature-extraction engine: parse once, derive cheaply, cache hard.

Table 3 alone evaluates 18 detector configurations, and before this
engine each one re-tokenized, re-parsed, and re-unpacked the entire
script corpus even though every feature set (*all*/*literal*/*keyword*)
derives from the same AST. Following the paper's own pipeline (Fig. 8)
and prior static detectors (Zozzle, Revolver), the cacheable unit here is
the per-script **token event stream** (:func:`~repro.core.features.token_events`):
a feature-set-agnostic intermediate from which any feature set falls out
by kind-filtering. Three layers keep extraction off the hot path:

1. **In-process memo** — events are content-addressed by
   ``(sha256(source), unpack)``, so duplicate scripts and repeated
   extractions (every Table 3 configuration, the detector's fit/predict
   round trips, sec5live after table3) collapse to at most one parse per
   distinct script per unpack flag.
2. **Process pool** — cache misses shard across the fork-based
   ``REPRO_WORKERS`` pool (the same machinery as the §4 replay,
   :mod:`repro.analysis.pool`), with a contiguous-shard merge that makes
   the parallel result byte-identical to the serial one.
3. **On-disk cache** — with ``REPRO_FEATURE_CACHE=<dir>`` set, events
   persist keyed by ``(sha256(source), EXTRACTOR_VERSION, unpack)``, so
   repeated CLI runs, benchmarks, and CI jobs hit warm entries instead
   of re-parsing. The format is one JSON file per script by default, or
   packed mmap-able event segments (:mod:`repro.dataplane.events`) under
   ``REPRO_DATA_PLANE=1`` — same keys, same canonicalised entries, so
   the two formats produce pickle-identical results. Bump
   :data:`EXTRACTOR_VERSION` whenever extraction semantics change —
   stale entries are invalidated by key.

Per-script failures are not silent: parse errors and unpack bailouts
surface as ``features.parse_errors`` / ``features.unpack_bailouts``
counters in the unified metrics registry (and in :class:`StoreStats`).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..analysis.perf import LRUCache
from ..analysis.pool import map_shards, split_shards
from ..dataplane.events import PackedEventCache
from ..jsast.parser import ParseError, parse
from ..jsast.tokenizer import TokenizeError
from ..jsast.unpack import unpack_program
from ..obs.config import data_plane_enabled, feature_cache_dir, repro_workers
from ..obs.metrics import get_metrics
from ..obs.trace import span as trace_span
from .features import FEATURE_SETS, TokenEvent, features_from_events, token_events

#: Version of the extraction semantics baked into cached event streams.
#: Part of every cache key: bumping it orphans (never corrupts) old disk
#: entries, which is the whole invalidation story.
EXTRACTOR_VERSION = 1


@dataclass(frozen=True)
class ScriptEvents:
    """The cached intermediate for one script × unpack flag."""

    events: Tuple[TokenEvent, ...]
    #: the script failed to parse; ``events`` is empty (the §5 corpus
    #: convention: unparseable scripts contribute no features)
    parse_error: bool = False
    #: unpacking gave up on a dynamic payload or hit the round cap;
    #: features come from the partially unpacked tree
    unpack_bailout: bool = False

    def features(self, feature_set: str = "all") -> Set[str]:
        """Derive one feature set from the event stream."""
        return features_from_events(self.events, feature_set)


@dataclass
class StoreStats:
    """Counters for one store's lifetime (mirrored into ``features.*``)."""

    #: scripts actually parsed/unpacked/walked (cache misses)
    extracted: int = 0
    #: lookups answered by the in-process memo (incl. duplicate sources)
    memo_hits: int = 0
    #: lookups answered by the on-disk cache
    disk_hits: int = 0
    #: event streams persisted to the on-disk cache
    disk_writes: int = 0
    #: scripts that failed to parse (ParseError/TokenizeError)
    parse_errors: int = 0
    #: scripts whose unpacking bailed out (unparseable payload/round cap)
    unpack_bailouts: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def source_digest(source: str) -> str:
    """SHA-256 hex digest of a script source (the content address)."""
    return hashlib.sha256(source.encode("utf-8", "replace")).hexdigest()


def extract_events(source: str, unpack: bool = True) -> ScriptEvents:
    """Parse (and optionally unpack) one script into its event stream."""
    try:
        program = parse(source)
    except (ParseError, TokenizeError):
        return ScriptEvents(events=(), parse_error=True)
    bailout = False
    if unpack:
        result = unpack_program(program)
        program = result.program
        bailout = result.bailed_out
    return ScriptEvents(events=tuple(token_events(program)), unpack_bailout=bailout)


#: Per-thread depth of :func:`serial_extraction` blocks.
_SERIAL = threading.local()


@contextmanager
def serial_extraction():
    """Extract in the calling thread, whatever ``REPRO_WORKERS`` says.

    The serve path scores fresh scripts under this: a daemon answers
    every batch inline, and a shard, a daemonic process, may not fork.
    """
    _SERIAL.depth = getattr(_SERIAL, "depth", 0) + 1
    try:
        yield
    finally:
        _SERIAL.depth -= 1


# -- worker-shard task (module level for pickling) -------------------------------


def _extract_shard(_state, shard: List[str], unpack: bool):
    """Extract one shard of sources; returns (entries, span payload)."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    entries = [extract_events(source, unpack) for source in shard]
    payload = {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
        "scripts": len(entries),
    }
    return entries, payload


class FeatureStore:
    """Content-addressed, parallel, disk-backed token-event store."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        memo_capacity: int = 16384,
        intern_limit: int = 1 << 20,
        packed: Optional[bool] = None,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else None
        # Disk-cache format: packed mmap-able event segments
        # (repro.dataplane) when ``packed`` — defaulting to the
        # REPRO_DATA_PLANE knob — else one JSON file per script. Entries
        # loaded through either format canonicalise identically.
        self.packed = data_plane_enabled() if packed is None else bool(packed)
        self._packed_cache: Optional[PackedEventCache] = None
        self._memo = LRUCache(memo_capacity)
        self.stats = StoreStats()
        # Interning tables: every entry (freshly extracted, unpickled from
        # a worker, or loaded from disk) is canonicalised through these, so
        # equal strings/context tuples are one shared object per store and
        # serial / parallel / warm-cache assemblies pickle byte-identically.
        # Bounded: past ``intern_limit`` distinct strings the tables are
        # rebuilt from the live memo entries, so evicted entries' strings
        # do not accumulate for the store's (process-long) lifetime.
        self._intern_limit = max(int(intern_limit), 1)
        self._strings: Dict[str, str] = {}
        self._context_tuples: Dict[Tuple[str, ...], Tuple[str, ...]] = {}

    # -- accounting ---------------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        if delta:
            setattr(self.stats, name, getattr(self.stats, name) + delta)
            get_metrics().count(f"features.{name}", delta)

    # -- canonicalisation ---------------------------------------------------

    def _intern(self, text: str) -> str:
        return self._strings.setdefault(text, text)

    def _canonical_contexts(self, contexts: Tuple[str, ...]) -> Tuple[str, ...]:
        cached = self._context_tuples.get(contexts)
        if cached is None:
            # Store a tuple of *interned* strings, so equal values share
            # objects no matter which path (fresh/worker/disk) built them.
            cached = tuple(self._intern(context) for context in contexts)
            self._context_tuples[cached] = cached
        return cached

    def _canonical(self, entry: ScriptEvents) -> ScriptEvents:
        events = tuple(
            (
                self._intern(kind),
                self._intern(text),
                self._canonical_contexts(contexts),
            )
            for kind, text, contexts in entry.events
        )
        return ScriptEvents(
            events=events,
            parse_error=entry.parse_error,
            unpack_bailout=entry.unpack_bailout,
        )

    # -- the on-disk cache --------------------------------------------------

    def _entry_path(self, digest: str, unpack: bool) -> Path:
        suffix = "u1" if unpack else "u0"
        return (
            self.cache_dir
            / f"v{EXTRACTOR_VERSION}"
            / digest[:2]
            / f"{digest}.{suffix}.json"
        )

    def _packed_store(self) -> PackedEventCache:
        if self._packed_cache is None:
            # The store's interning tables plug in at the segment-decode
            # boundary, so packed-loaded entries are *born* canonical —
            # admitted without the per-event re-intern walk the JSON
            # plane needs.
            self._packed_cache = PackedEventCache(
                self.cache_dir,
                EXTRACTOR_VERSION,
                string_intern=self._intern,
                tuple_intern=self._canonical_contexts,
            )
        return self._packed_cache

    def _packed_load(self, digest: str, unpack: bool) -> Optional[ScriptEvents]:
        entry = self._packed_store().lookup(digest, unpack)
        if entry is None:
            return None
        _digest, _unpack, events, parse_error, unpack_bailout = entry
        return ScriptEvents(
            events=tuple(events),
            parse_error=parse_error,
            unpack_bailout=unpack_bailout,
        )

    def _packed_flush(self, batch: List[Tuple[str, bool, ScriptEvents]]) -> None:
        """Persist one extraction batch as a packed event segment."""
        written = self._packed_store().store(
            [
                (digest, unpack, entry.events, entry.parse_error, entry.unpack_bailout)
                for digest, unpack, entry in batch
            ]
        )
        self._count("disk_writes", written)

    def _disk_load(self, digest: str, unpack: bool) -> Optional[ScriptEvents]:
        if self.packed:
            return self._packed_load(digest, unpack)
        path = self._entry_path(digest, unpack)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("v") != EXTRACTOR_VERSION:
            return None
        try:
            events = tuple(
                (kind, text, tuple(contexts))
                for kind, text, contexts in payload["events"]
            )
            return ScriptEvents(
                events=events,
                parse_error=bool(payload["parse_error"]),
                unpack_bailout=bool(payload["unpack_bailout"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    def _disk_store(self, digest: str, unpack: bool, entry: ScriptEvents) -> None:
        path = self._entry_path(digest, unpack)
        payload = {
            "v": EXTRACTOR_VERSION,
            "unpack": unpack,
            "parse_error": entry.parse_error,
            "unpack_bailout": entry.unpack_bailout,
            "events": [
                [kind, text, list(contexts)] for kind, text, contexts in entry.events
            ],
        }
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            tmp.write_text(json.dumps(payload))
            os.replace(tmp, path)  # atomic: concurrent writers race benignly
        except OSError:
            return
        self._count("disk_writes")

    # -- extraction ---------------------------------------------------------

    def events_for_corpus(
        self,
        sources: Iterable[str],
        unpack: bool = True,
        workers: Optional[int] = None,
    ) -> List[ScriptEvents]:
        """Event streams for many scripts, in input order.

        Each distinct ``(sha256(source), unpack)`` pair is resolved once —
        memo, then disk, then actual extraction (sharded across
        ``workers``/``REPRO_WORKERS`` processes when > 1, never inside
        :func:`serial_extraction`). Serial, parallel, and warm-cache runs
        assemble byte-identical results.
        """
        sources = list(sources)
        if workers is None:
            workers = 1 if getattr(_SERIAL, "depth", 0) else repro_workers()
        workers = max(int(workers), 1)
        digests = [source_digest(source) for source in sources]
        resolved: Dict[str, ScriptEvents] = {}
        pending: Set[str] = set()
        todo: List[Tuple[str, str]] = []  # (digest, source), first-seen order
        for digest, source in zip(digests, sources):
            if digest in resolved or digest in pending:
                self._count("memo_hits")
                continue
            cached = self._memo.get((digest, unpack))
            if cached is not None:
                self._count("memo_hits")
                resolved[digest] = cached
                continue
            pending.add(digest)
            todo.append((digest, source))
        if self.cache_dir is not None and todo:
            remaining: List[Tuple[str, str]] = []
            for digest, source in todo:
                entry = self._disk_load(digest, unpack)
                if entry is None:
                    remaining.append((digest, source))
                    continue
                self._count("disk_hits")
                self._admit(digest, unpack, entry, canonical=self.packed)
                resolved[digest] = self._memo.get((digest, unpack))
            todo = remaining
        if todo:
            with trace_span(
                "features:extract", scripts=len(todo), workers=workers, unpack=unpack
            ) as span:
                if workers > 1 and len(todo) > 1:
                    entries = self._extract_parallel(todo, unpack, workers, span)
                else:
                    entries = [extract_events(source, unpack) for _, source in todo]
                packed_batch: List[Tuple[str, bool, ScriptEvents]] = []
                for (digest, _source), entry in zip(todo, entries):
                    self._count("extracted")
                    self._count("parse_errors", int(entry.parse_error))
                    self._count("unpack_bailouts", int(entry.unpack_bailout))
                    self._admit(digest, unpack, entry)
                    resolved[digest] = self._memo.get((digest, unpack))
                    if self.cache_dir is not None:
                        if self.packed:
                            packed_batch.append((digest, unpack, resolved[digest]))
                        else:
                            self._disk_store(digest, unpack, resolved[digest])
                if packed_batch:
                    self._packed_flush(packed_batch)
        return [resolved[digest] for digest in digests]

    def _admit(
        self, digest: str, unpack: bool, entry: ScriptEvents, canonical: bool = False
    ) -> None:
        """Memoise an entry; ``canonical=True`` skips the re-intern walk.

        Only packed-plane disk loads may claim ``canonical`` — their
        strings and context tuples were interned through this store's
        tables at segment-decode time, so re-walking them would rebuild
        identical objects.
        """
        self._memo.put(
            (digest, unpack), entry if canonical else self._canonical(entry)
        )
        if len(self._strings) > self._intern_limit:
            self._rebuild_intern_tables()

    def _rebuild_intern_tables(self) -> None:
        """Re-intern only what live memo entries still reference.

        Live entries are already canonical, so ``setdefault`` re-inserts
        their existing objects — sharing (and pickle byte-identity) is
        preserved — while strings that only evicted entries referenced
        become collectable. Rebuild points depend solely on the admission
        sequence, which is identical across serial, parallel, and
        warm-cache assemblies.
        """
        self._strings = {}
        self._context_tuples = {}
        for entry in self._memo.values():
            for kind, text, contexts in entry.events:
                self._strings.setdefault(kind, kind)
                self._strings.setdefault(text, text)
                if contexts not in self._context_tuples:
                    self._context_tuples[contexts] = contexts
                    for context in contexts:
                        self._strings.setdefault(context, context)

    def _extract_parallel(
        self, todo: List[Tuple[str, str]], unpack: bool, workers: int, span
    ) -> List[ScriptEvents]:
        """Shard the miss list across the fork-first process pool."""
        shards = split_shards([[source] for _, source in todo], workers)
        if len(shards) <= 1:
            return [extract_events(source, unpack) for _, source in todo]
        span.set(shards=len(shards))
        results = map_shards(shards, _extract_shard, extra=(unpack,))
        entries: List[ScriptEvents] = []
        for index, (shard_entries, payload) in enumerate(results):
            span.add_child_payload(f"shard:{index}", **payload)
            entries.extend(shard_entries)
        return entries

    # -- feature-set derivation ---------------------------------------------

    def features_for_corpus(
        self,
        sources: Iterable[str],
        feature_set: str = "all",
        unpack: bool = True,
        workers: Optional[int] = None,
    ) -> List[Set[str]]:
        """One feature set per script (unparseable scripts yield empty sets)."""
        return [
            entry.features(feature_set)
            for entry in self.events_for_corpus(sources, unpack, workers)
        ]

    def features_by_set(
        self,
        sources: Iterable[str],
        feature_sets: Sequence[str] = FEATURE_SETS,
        unpack: bool = True,
        workers: Optional[int] = None,
    ) -> Dict[str, List[Set[str]]]:
        """Every requested feature set from one extraction pass."""
        entries = self.events_for_corpus(sources, unpack, workers)
        return {
            feature_set: [entry.features(feature_set) for entry in entries]
            for feature_set in feature_sets
        }


# -- the process-wide store -------------------------------------------------------

_STORE: Optional[FeatureStore] = None


def get_feature_store() -> FeatureStore:
    """The shared store (created on first use from ``REPRO_FEATURE_CACHE``).

    Process-wide by design: every caller — each Table 3 configuration,
    the detector's fit/predict, sec5live after table3 in the same CLI
    invocation — shares one memo, so no (script, unpack) pair is ever
    extracted twice in a process.
    """
    global _STORE
    if _STORE is None:
        _STORE = FeatureStore(cache_dir=feature_cache_dir())
    return _STORE


def set_feature_store(store: Optional[FeatureStore]) -> Optional[FeatureStore]:
    """Swap the shared store (tests); returns the previous one."""
    global _STORE
    previous, _STORE = _STORE, store
    return previous
