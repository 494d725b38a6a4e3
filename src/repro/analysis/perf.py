"""Performance instrumentation and bounded caches for the §4 replay engine.

The replay engine (``analysis.coverage``) is the hottest path in the
system: paper scale replays two list histories against ~300K archived
page loads. This module supplies the two pieces that keep that tractable
and observable:

- :class:`PerfCounters` — lightweight counters (records/s, candidate
  rules probed per URL, cache hit rates, matcher build mix) that the
  bench harness prints so ``BENCH_*`` trajectories can attribute wins.
- :class:`LRUCache` — a small bounded mapping used for the per-revision
  matcher/adblocker caches, so paper-scale runs hold a fixed number of
  matchers in memory instead of one per (list, revision).
- :func:`repro_workers` — the ``REPRO_WORKERS`` knob controlling how many
  processes shard every batch fan-out (``CoverageAnalyzer.analyze`` among
  them). The default (1) keeps the pipeline serial and its output
  bit-identical run to run.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Dict, Optional

# Knob parsing lives in obs.config (one validation point, warn-once on
# invalid values); these aliases keep the established import sites.
from ..obs.config import matcher_cache_size, repro_workers

__all__ = [
    "PerfCounters",
    "LRUCache",
    "repro_workers",
    "matcher_cache_size",
    "GLOBAL_COUNTERS",
    "get_counters",
]


@dataclass
class PerfCounters:
    """Counters describing one replay run (merged across shards)."""

    #: usable crawl records processed
    records: int = 0
    #: URL match calls answered by a matcher (block/allow passes both count)
    match_calls: int = 0
    #: candidate rules actually probed (``rule.matches`` invocations)
    candidates_probed: int = 0
    #: matchers built by scanning a full rule set
    matcher_full_builds: int = 0
    #: matchers derived from a predecessor via a revision delta
    matcher_incremental_builds: int = 0
    #: matcher cache hits (revision already materialised)
    matcher_cache_hits: int = 0
    #: adblocker cache hits / builds
    adblocker_cache_hits: int = 0
    adblocker_builds: int = 0
    #: request profiles computed / reused
    profile_builds: int = 0
    profile_hits: int = 0
    #: archived pages parsed into a DOM (records passing the element screen)
    html_parses: int = 0
    #: wall-clock seconds of the replay loop (set by the analyzer)
    elapsed: float = 0.0

    # -- derived rates ------------------------------------------------------

    def records_per_second(self) -> float:
        """Usable records replayed per wall-clock second."""
        return self.records / self.elapsed if self.elapsed > 0 else 0.0

    def probes_per_call(self) -> float:
        """Mean candidate rules probed per matcher call."""
        return (
            self.candidates_probed / self.match_calls if self.match_calls else 0.0
        )

    def matcher_hit_rate(self) -> float:
        """Fraction of matcher lookups served from the revision cache."""
        total = (
            self.matcher_cache_hits
            + self.matcher_full_builds
            + self.matcher_incremental_builds
        )
        return self.matcher_cache_hits / total if total else 0.0

    # -- aggregation ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter (each ``analyze()`` run starts fresh)."""
        for f in fields(self):
            setattr(self, f.name, 0.0 if f.name == "elapsed" else 0)

    def snapshot(self) -> tuple:
        """A point-in-time copy of every counter (for :meth:`since`)."""
        return tuple(getattr(self, f.name) for f in fields(self))

    def since(self, snap: tuple) -> "PerfCounters":
        """Counters accumulated after ``snap`` was taken.

        Worker processes live across shards, so each shard reports the
        delta rather than the worker's lifetime totals.
        """
        delta = PerfCounters()
        for f, before in zip(fields(self), snap):
            setattr(delta, f.name, getattr(self, f.name) - before)
        return delta

    def merge(self, other: "PerfCounters") -> None:
        """Fold another shard's counters into this one (sums; max elapsed)."""
        for f in fields(self):
            if f.name == "elapsed":
                self.elapsed = max(self.elapsed, other.elapsed)
            else:
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, float]:
        """All counters plus derived rates, for bench JSON output."""
        data: Dict[str, float] = {f.name: getattr(self, f.name) for f in fields(self)}
        data["records_per_second"] = self.records_per_second()
        data["probes_per_call"] = self.probes_per_call()
        data["matcher_hit_rate"] = self.matcher_hit_rate()
        return data

    #: Counters whose totals do not depend on how the record loop was
    #: sharded: each is accumulated per record (or per domain group), and
    #: shards partition records along domain boundaries. Cache-locality
    #: counters (matcher/adblocker/profile builds and hits) are excluded —
    #: every worker warms its own caches and records keep their memoized
    #: profiles across runs, so those totals legitimately vary with the
    #: worker count and run order.
    WORK_COUNTERS = ("records", "match_calls", "candidates_probed", "html_parses")

    def work_metrics(self) -> Dict[str, int]:
        """The sharding-invariant counters, key-sorted.

        A parallel run's merged ``work_metrics()`` must equal the serial
        run's exactly — this is the metric-level analogue of the
        byte-identical ``CoverageResult`` guarantee.
        """
        return {name: int(getattr(self, name)) for name in sorted(self.WORK_COUNTERS)}

    def render(self) -> str:
        """One-line human-readable summary for the bench harness."""
        return (
            f"{self.records} records in {self.elapsed:.2f}s "
            f"({self.records_per_second():.0f} rec/s); "
            f"{self.probes_per_call():.1f} rules probed/call; "
            f"matchers: {self.matcher_full_builds} full + "
            f"{self.matcher_incremental_builds} incremental builds, "
            f"{100 * self.matcher_hit_rate():.1f}% cache hits; "
            f"profiles: {self.profile_builds} built, {self.profile_hits} reused"
        )


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    Deliberately tiny: ``get``/``put``/``__contains__``/``__len__`` are all
    the replay engine needs. Not thread-safe (each worker process owns its
    own analyzer and caches).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("LRU capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict" = OrderedDict()

    def get(self, key, default=None):
        """Return the cached value (refreshing recency) or ``default``."""
        if key not in self._data:
            return default
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key, value) -> None:
        """Insert/refresh ``key``; evict the coldest entry past capacity."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def values(self) -> list:
        """Snapshot of cached values, coldest to warmest (recency unchanged)."""
        return list(self._data.values())

    def clear(self) -> None:
        """Drop every cached entry."""
        self._data.clear()


#: Default sink for matchers constructed outside an analyzer (micro-benches,
#: the live crawler, the corpus builder). Analyzers pass their own instance.
GLOBAL_COUNTERS = PerfCounters()


def get_counters(stats: Optional[PerfCounters]) -> PerfCounters:
    """The counters a matcher should report into (default: global sink)."""
    return stats if stats is not None else GLOBAL_COUNTERS
