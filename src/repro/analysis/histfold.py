"""Sharded §3 history folds.

The §3 experiments (Figures 1–3, Tables 1–2, the §3.3 prose numbers) all
reduce to a handful of *independent* per-list folds: evolution series,
composition stats, first-appearance maps, overlap inputs. Each fold is a
pure function of one :class:`~repro.filterlist.history.FilterListHistory`,
so they shard trivially across the fork-first process pool shared with
the §4 replay and §5 feature engines (``analysis.pool``).

:func:`run_folds` is the one entry point: give it ``(label, fn, arg)``
jobs and it runs them serially under ``REPRO_WORKERS=1`` (one span per
job) or sharded across the pool otherwise (per-job wall/CPU payloads
grafted onto an umbrella span). Results come back in job order either
way, so consumers merge deterministically and rendered artifacts stay
byte-identical to the serial run. Worker-side ``history.*`` counter
deltas (parsed-rule cache hits, lines parsed, revisions folded) are
merged into the parent's :data:`~repro.filterlist.parser.HISTORY_COUNTERS`
and the obs metrics registry, exactly like the replay engine's
``PerfCounters``.

``fn`` must be a module-level callable and its result picklable: the
fork pool ships results (and, on non-fork platforms, the jobs
themselves) across process boundaries.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..filterlist.parser import count_history, get_history_counters
from ..obs.trace import span as trace_span
from .perf import repro_workers
from .pool import map_shards, split_shards

#: One independent history fold: (display label, module-level fn, argument).
FoldJob = Tuple[str, Callable[[Any], Any], Any]


def _run_job(job: FoldJob) -> Tuple[Any, dict]:
    """Run one fold, returning (result, flat telemetry payload)."""
    label, fn, arg = job
    wall0, cpu0 = time.perf_counter(), time.process_time()
    before = get_history_counters().snapshot()
    result = fn(arg)
    delta = get_history_counters().since(before)
    payload = {
        "wall_s": time.perf_counter() - wall0,
        "cpu_s": time.process_time() - cpu0,
    }
    payload.update({name: value for name, value in delta.as_dict().items() if value})
    return result, payload


def _fold_shard(_state, shard: List[FoldJob]):
    """Worker task: run a shard's jobs, reporting results + counter deltas."""
    counters = get_history_counters()
    before = counters.snapshot()
    results: List[Any] = []
    payloads: List[Tuple[str, dict]] = []
    for job in shard:
        result, payload = _run_job(job)
        results.append(result)
        payloads.append((job[0], payload))
    return results, payloads, counters.since(before).as_dict()


def run_folds(jobs: Sequence[FoldJob], workers: Optional[int] = None) -> List[Any]:
    """Run independent history folds, sharded under ``REPRO_WORKERS``.

    Returns the fold results in job order. ``workers`` defaults to the
    validated ``REPRO_WORKERS`` knob; one worker (or one job) runs
    everything serially in-process.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    workers = repro_workers() if workers is None else workers
    if workers <= 1 or len(jobs) == 1:
        results = []
        for job in jobs:
            with trace_span(f"history:{job[0]}") as job_span:
                result, payload = _run_job(job)
                job_span.set(
                    **{k: v for k, v in payload.items() if k not in ("wall_s", "cpu_s")}
                )
            results.append(result)
        return results
    shards = split_shards([[job] for job in jobs], workers)
    with trace_span("history:folds", jobs=len(jobs), shards=len(shards)) as umbrella:
        partials = map_shards(shards, _fold_shard)
        results = []
        for shard_results, shard_payloads, counter_delta in partials:
            results.extend(shard_results)
            for label, payload in shard_payloads:
                umbrella.add_child_payload(f"history:{label}", **payload)
            # Graft worker-side history.* counters into the parent's
            # process-global counters and the metrics registry (workers
            # died with their own copies).
            for name, value in counter_delta.items():
                count_history(name, value)
    return results
