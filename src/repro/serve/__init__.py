"""The always-on matching/detection service (``python -m repro serve``).

The paper's §5 online scenario ships the trained detector inside an
adblocker answering per-request and per-script questions at browsing
speed. This package is that deployment shape as a daemon:

- :mod:`~repro.serve.daemon` — graph-backed boot (warm starts from
  ``REPRO_RUN_CACHE`` recompute nothing) and the TCP control plane;
- :mod:`~repro.serve.protocol` — newline-delimited JSON queries
  (``url`` / ``script`` / ``page``) and control ops;
- :mod:`~repro.serve.batcher` — request batching with a one-predict
  prewarm pass, every batch answered inline in the daemon process;
- :mod:`~repro.serve.reload` — O(delta) epoch-swap hot reload that
  never drops an in-flight query;
- :mod:`~repro.serve.snapshot` — the packed ``kind=snapshot`` RDPK
  container a sharded deployment boots from (one publish, N mmaps);
- :mod:`~repro.serve.shard` — the shard supervisor: N daemon processes
  on one ``SO_REUSEPORT`` port, merged health/metrics/reload control
  plane, dead-shard respawn from the snapshot;
- :mod:`~repro.serve.loadgen` — the deterministic load generator behind
  ``BENCH_serve.json`` and ``BENCH_shard.json``.

Runbook: docs/SERVING.md. Architecture: DESIGN.md §3.9–3.10.
"""

from .batcher import RequestBatcher, ServeEngine, answer_query, prewarm_verdicts
from .daemon import (
    ServeDaemon,
    ServeState,
    build_engine,
    detector_spec,
    resolve_serve_state,
    snapshot_spec,
)
from .loadgen import generate_queries, run_inprocess, run_network
from .protocol import ServeClient
from .reload import EpochChain, ServeEpoch, partition_rule_lines
from .shard import ShardSupervisor
from .snapshot import SnapshotReader, publish_snapshot, read_state, write_snapshot

__all__ = [
    "EpochChain",
    "RequestBatcher",
    "ServeClient",
    "ServeDaemon",
    "ServeEngine",
    "ServeEpoch",
    "ServeState",
    "ShardSupervisor",
    "SnapshotReader",
    "answer_query",
    "build_engine",
    "detector_spec",
    "generate_queries",
    "partition_rule_lines",
    "prewarm_verdicts",
    "publish_snapshot",
    "read_state",
    "resolve_serve_state",
    "run_inprocess",
    "run_network",
    "snapshot_spec",
    "write_snapshot",
]
