"""Per-layer metrics from a traced run's span records.

Naming: ``<layer>.<call>.s`` is the wall time callers spent in the call
(outermost calls only), ``.self_s`` / ``.self_us`` its self time (total /
per call), ``.calls`` how often it ran. A metric a workload never
exercises reads 0. The serve distributions (dispatch, queue wait, wire)
cover the queries of the r1 step.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .common import percentile, ratio

EXPERIMENTS = ("fig1", "table1", "fig2", "sec33", "fig3", "fig5", "fig6", "fig7", "sec43",
               "table2", "table3", "sec5live", "stability", "rulereport")

#: Every per-layer metric with its unit and which direction is better,
#: in BENCHMARK.json's order.
METRICS = (
    ("synthesis.world.s", "s", "lower"),
    ("synthesis.lists.s", "s", "lower"),
    ("synthesis.archive.s", "s", "lower"),
    ("wayback.crawl.s", "s", "lower"),
    ("wayback.crawl.records", "count", "higher"),
    ("filterlist.match.calls", "count", "lower"),
    ("filterlist.match.self_s", "s", "lower"),
    ("filterlist.match.self_us", "us", "lower"),
    ("filterlist.match.probes_per_call", "count", "lower"),
    ("filterlist.delta.calls", "count", "lower"),
    ("filterlist.delta.self_s", "s", "lower"),
    ("filterlist.build.calls", "count", "lower"),
    ("filterlist.build.self_s", "s", "lower"),
    ("analysis.replay.s", "s", "lower"),
    ("analysis.live.s", "s", "lower"),
    ("analysis.matcher_cache.hit_ratio", "ratio", "higher"),
    ("analysis.profile.hit_ratio", "ratio", "higher"),
    ("web.should_block.calls", "count", "lower"),
    ("web.should_block.blocked_ratio", "ratio", "higher"),
    ("web.hide.calls", "count", "lower"),
    ("web.hide.self_s", "s", "lower"),
    ("web.dom.parse.self_s", "s", "lower"),
    ("jsast.parse.calls", "count", "lower"),
    ("jsast.parse.self_s", "s", "lower"),
    ("jsast.unpack.self_s", "s", "lower"),
    ("core.corpus.s", "s", "lower"),
    ("core.features.s", "s", "lower"),
    ("core.featstore.hit_ratio", "ratio", "higher"),
    ("core.fit.calls", "count", "lower"),
    ("core.fit.self_s", "s", "lower"),
    ("core.predict.calls", "count", "lower"),
    ("core.predict.scripts", "count", "lower"),
    ("core.predict.self_s", "s", "lower"),
    ("core.verdict_cache.hit_ratio", "ratio", "higher"),
    ("graph.store.calls", "count", "lower"),
    ("graph.store.bytes", "B", "lower"),
    ("graph.store.s", "s", "lower"),
    ("graph.load.calls", "count", "lower"),
    ("graph.load.s", "s", "lower"),
    ("serve.decode.self_us", "us", "lower"),
    ("serve.encode.self_us", "us", "lower"),
    ("serve.dispatch.p50_us", "us", "lower"),
    ("serve.dispatch.p99_us", "us", "lower"),
    ("serve.queue_wait.p50_us", "us", "lower"),
    ("serve.queue_wait.p99_us", "us", "lower"),
    ("serve.batch.calls", "count", "lower"),
    ("serve.batch.size_mean", "count", "higher"),
    ("serve.answer.self_us", "us", "lower"),
    ("serve.prewarm.scripts", "count", "lower"),
    ("serve.reload.ms", "ms", "lower"),
    ("serve.wire.p50_us", "us", "lower"),
    ("serve.wire.p99_us", "us", "lower"),
) + tuple((f"experiments.{name}.s", "s", "lower") for name in EXPERIMENTS) + tuple(
    (f"client.{metric}.{rate}", unit, better)
    for rate in ("r1", "r2", "r3")
    for metric, unit, better in (("p50_ms", "ms", "lower"), ("p99_ms", "ms", "lower"),
                                 ("late.p99_ms", "ms", "lower"), ("sent", "count", "higher"),
                                 ("answered", "count", "higher"))
) + (
    ("client.capacity_qps", "1/s", "higher"),
    ("client.reload_ms", "ms", "lower"),
    ("client.burst_qps", "1/s", "higher"),
    ("client.daemon_cpu_s", "s", "lower"),
    ("study.traced_wall_s", "s", "lower"),
    ("study.unattributed_s", "s", "lower"),
    ("study.attributed_share", "ratio", "higher"),
)


class Spans:
    """One trace file, summed per span name."""

    def __init__(self, path: Optional[Path]) -> None:
        self.outer_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[int]] = defaultdict(list)
        self.counts: Dict[str, float] = {}
        self.requests: Dict[object, Dict[str, int]] = {}
        self.batches: List[List[int]] = []
        self.extra: Dict[str, object] = {}
        if path is None or not Path(path).is_file():
            return
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        for span in data.pop("spans"):
            name = span["name"]
            duration = span["end_ns"] - span["start_ns"]
            self.calls[name] += 1
            self.self_ns[name] += span["self_ns"]
            self.durations[name].append(duration)
            if not span["nested"]:
                self.outer_ns[name] += duration
        for name, _parent, calls, outer, self_ns in data.pop("agg"):
            self.calls[name] += calls
            self.outer_ns[name] += outer
            self.self_ns[name] += self_ns
        self.counts = data.pop("counts")
        self.requests = {rid: fields for rid, fields in data.pop("requests")}
        self.batches = data.pop("batches")
        self.extra = data

    def total_self_s(self) -> float:
        return sum(self.self_ns.values()) / 1e9

    def s(self, name: str) -> float:
        return self.outer_ns.get(name, 0) / 1e9

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def per_call_us(self, name: str) -> float:
        return ratio(self.self_ns.get(name, 0) / 1e3, self.calls.get(name, 0))


def program_layers(spans: Spans, loads: Optional[Spans] = None) -> Dict[str, float]:
    """The layers of the program itself (everything but the client and study rows).

    ``loads`` supplies the ``graph.load.*`` rows when run-cache reads
    happen in another process than the rest (the study's warm restart).
    """
    counts = spans.counts
    loads = loads or spans
    out: Dict[str, float] = {
        "synthesis.world.s": spans.s("synthesis.world"),
        "synthesis.lists.s": spans.s("synthesis.lists"),
        "synthesis.archive.s": spans.s("synthesis.archive"),
        "wayback.crawl.s": spans.s("wayback.crawl"),
        "wayback.crawl.records": counts.get("wayback.crawl.records", 0),
        "filterlist.match.calls": spans.calls.get("filterlist.match", 0),
        "filterlist.match.self_s": spans.self_s("filterlist.match"),
        "filterlist.match.self_us": spans.per_call_us("filterlist.match"),
        "filterlist.match.probes_per_call": ratio(counts.get("analysis.perf.candidates_probed", 0),
                                                  counts.get("analysis.perf.match_calls", 0)),
        "filterlist.delta.calls": spans.calls.get("filterlist.delta", 0),
        "filterlist.delta.self_s": spans.self_s("filterlist.delta"),
        "filterlist.build.calls": spans.calls.get("filterlist.build", 0),
        "filterlist.build.self_s": spans.self_s("filterlist.build"),
        "analysis.replay.s": spans.s("analysis.replay"),
        "analysis.live.s": spans.s("analysis.live"),
        "analysis.matcher_cache.hit_ratio": ratio(counts.get("analysis.perf.matcher_cache_hits", 0),
                                                  counts.get("analysis.perf.matcher_lookups", 0)),
        "analysis.profile.hit_ratio": ratio(counts.get("analysis.perf.profile_hits", 0),
                                            counts.get("analysis.perf.profile_lookups", 0)),
        "web.should_block.calls": spans.calls.get("web.should_block", 0),
        "web.should_block.blocked_ratio": ratio(counts.get("web.should_block.blocked", 0),
                                                spans.calls.get("web.should_block", 0)),
        "web.hide.calls": spans.calls.get("web.hide", 0),
        "web.hide.self_s": spans.self_s("web.hide"),
        "web.dom.parse.self_s": spans.self_s("web.dom.parse"),
        "jsast.parse.calls": spans.calls.get("jsast.parse", 0),
        "jsast.parse.self_s": spans.self_s("jsast.parse"),
        "jsast.unpack.self_s": spans.self_s("jsast.unpack"),
        "core.corpus.s": spans.s("core.corpus"),
        "core.features.s": spans.s("core.features"),
        "core.fit.calls": spans.calls.get("core.fit", 0),
        "core.fit.self_s": spans.self_s("core.fit"),
        "core.predict.calls": spans.calls.get("core.predict", 0),
        "core.predict.scripts": counts.get("core.predict.scripts", 0),
        "core.predict.self_s": spans.self_s("core.predict"),
        "graph.store.calls": spans.calls.get("graph.store", 0),
        "graph.store.bytes": counts.get("graph.store.bytes", 0),
        "graph.store.s": spans.s("graph.store"),
        "graph.load.calls": loads.calls.get("graph.load", 0),
        "graph.load.s": loads.s("graph.load"),
    }
    featstore = spans.extra.get("featstore") or {}
    hits = featstore.get("memo_hits", 0) + featstore.get("disk_hits", 0)
    out["core.featstore.hit_ratio"] = ratio(hits, hits + featstore.get("extracted", 0))
    lookups = counts.get("core.scan.lookups", 0)
    predicted = counts.get("core.predict.scripts", 0)
    out["core.verdict_cache.hit_ratio"] = max(0.0, ratio(lookups - predicted, lookups))
    for name in EXPERIMENTS:
        out[f"experiments.{name}.s"] = spans.self_s(f"experiments.{name}")
    return out


def serve_layers(spans: Spans, r1: Iterable[tuple]) -> Dict[str, float]:
    """Serve rows; ``r1`` yields (query id, client send-to-reply seconds) of the r1 step."""
    dispatch, wait, wire = [], [], []
    for rid, round_trip_s in r1:
        fields = spans.requests.get(rid)
        if not fields or "dispatch" not in fields:
            continue
        dispatch.append(fields["dispatch"] / 1e3)
        if "wait" in fields:
            wait.append(fields["wait"] / 1e3)
        wire.append(round_trip_s * 1e6 - fields["dispatch"] / 1e3)
    reloads = spans.durations.get("serve.reload", [])
    batches = spans.batches
    return {
        "serve.decode.self_us": spans.per_call_us("serve.decode"),
        "serve.encode.self_us": spans.per_call_us("serve.encode"),
        "serve.dispatch.p50_us": percentile(dispatch, 50) if dispatch else 0.0,
        "serve.dispatch.p99_us": percentile(dispatch, 99) if dispatch else 0.0,
        "serve.queue_wait.p50_us": percentile(wait, 50) if wait else 0.0,
        "serve.queue_wait.p99_us": percentile(wait, 99) if wait else 0.0,
        "serve.batch.calls": len(batches),
        "serve.batch.size_mean": ratio(sum(size for _, size in batches), len(batches)),
        "serve.answer.self_us": ratio(sum(self_ns for self_ns, _ in batches) / 1e3, len(batches)),
        "serve.prewarm.scripts": spans.counts.get("serve.prewarm.scripts", 0),
        "serve.reload.ms": percentile([d / 1e6 for d in reloads], 50) if reloads else 0.0,
        "serve.wire.p50_us": percentile(wire, 50) if wire else 0.0,
        "serve.wire.p99_us": percentile(wire, 99) if wire else 0.0,
    }


def complete(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, with its unit (0 where the workload has none)."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _ in METRICS}
