"""Serve-daemon loadgen benchmark: batched frames vs one-per-round-trip.

A real daemon is booted on an ephemeral loopback port and driven by the
deterministic load generator twice, with disjoint seeds so neither mode
inherits the other's feature-extraction or verdict caches:

- **naive** — every query is its own TCP round trip (``batch_size=1``),
  the cost a client pays without request batching: per call it eats the
  framing overhead, the batcher's linger window, and the single-script
  model-predict overhead;
- **batched** — each worker wraps its share into protocol-level
  ``batch`` frames of 64: one round trip and ONE prewarm predict per
  frame.

The acceptance floor is batched ≥ 3× naive queries/sec against the
daemon's default configuration. The report (QPS + p50/p99 per mode) is
written to ``BENCH_serve.json`` at the repo root; CI uploads it and the
committed copy tracks the trajectory.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCALE = 0.02
QUERY_COUNT = 600
BATCH_SIZE = 64
CONCURRENCY = 4
#: The acceptance floor: batched loadgen QPS over naive loadgen QPS.
BATCH_SPEEDUP_FLOOR = 3.0


@pytest.mark.benchmark(group="serve")
def test_batched_loadgen_speedup(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_CACHE", str(tmp_path / "run-cache"))
    from repro.experiments.context import ExperimentContext
    from repro.serve.daemon import ServeDaemon, build_engine, resolve_serve_state
    from repro.serve.loadgen import generate_queries, run_network

    ctx = ExperimentContext.create(scale=SCALE)
    state = resolve_serve_state(ctx)
    daemon = ServeDaemon(build_engine(state), port=0)
    host, port = daemon.start()
    try:
        # Warm the server's code paths with a seed neither mode reuses.
        run_network(host, port, generate_queries(99, 100), concurrency=CONCURRENCY)
        naive = run_network(
            host,
            port,
            generate_queries(1, QUERY_COUNT),
            concurrency=CONCURRENCY,
            batch_size=1,
        )
        batched = run_network(
            host,
            port,
            generate_queries(2, QUERY_COUNT),
            concurrency=CONCURRENCY,
            batch_size=BATCH_SIZE,
        )
    finally:
        daemon.stop()

    assert naive["errors"] == 0 and batched["errors"] == 0
    speedup = batched["qps"] / naive["qps"]
    report = {
        "scale": SCALE,
        "queries": QUERY_COUNT,
        "concurrency": CONCURRENCY,
        "batch_size": BATCH_SIZE,
        "naive": naive,
        "batched": batched,
        "batch_speedup": round(speedup, 2),
        "target_batch_speedup": BATCH_SPEEDUP_FLOOR,
    }
    (ROOT / "BENCH_serve.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"\n[serve bench] {json.dumps(report)}")
    assert speedup >= BATCH_SPEEDUP_FLOOR, (
        f"batched loadgen only {speedup:.2f}x naive (target ≥ {BATCH_SPEEDUP_FLOOR}x)"
    )
