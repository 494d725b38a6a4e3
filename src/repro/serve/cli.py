"""CLI of the serve layer: ``python -m repro serve [loadgen] ...``.

Two subcommands:

- (default) boot the daemon: resolve state through the artifact graph,
  bind, print ``serving on HOST:PORT`` (and optionally write a ready
  file), then run until a ``shutdown`` request or SIGINT. With
  ``--shards N`` (or ``REPRO_SERVE_SHARDS``) >= 2 the boot goes through
  the shard supervisor instead: the state is packed once into a
  snapshot container (``--snapshot PATH``, or a temp file) and N full
  daemon processes accept on one kernel-balanced port;
- ``loadgen`` — drive a running daemon with the deterministic query
  stream of :mod:`repro.serve.loadgen` and report QPS + p50/p99,
  optionally writing the summary JSON (``BENCH_serve.json`` shape).
  ``--shards N`` spreads connections so every shard sees traffic.

See docs/SERVING.md for the full runbook.
"""

from __future__ import annotations

import json
import sys
from typing import List, Optional

from ..obs.config import serve_port, serve_shards


class _CliError(Exception):
    """A bad command line (message to stderr, exit status 2)."""


def _take_value(args: List[str], flag: str, arg: str) -> str:
    if arg.startswith(flag + "="):
        return arg.split("=", 1)[1]
    if not args:
        raise _CliError(f"{flag} requires a value")
    return args.pop(0)


def _serve_args(argv: List[str]) -> dict:
    opts = {
        "host": "127.0.0.1",
        "port": None,
        "batch": None,
        "wait_ms": None,
        "ready_file": None,
        "metrics_out": None,
        "shards": None,
        "snapshot": None,
        "help": False,
    }
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg in ("--help", "-h"):
            opts["help"] = True
        elif arg == "--host" or arg.startswith("--host="):
            opts["host"] = _take_value(args, "--host", arg)
        elif arg == "--port" or arg.startswith("--port="):
            opts["port"] = int(_take_value(args, "--port", arg))
        elif arg == "--batch" or arg.startswith("--batch="):
            opts["batch"] = int(_take_value(args, "--batch", arg))
        elif arg == "--wait-ms" or arg.startswith("--wait-ms="):
            opts["wait_ms"] = float(_take_value(args, "--wait-ms", arg))
        elif arg == "--shards" or arg.startswith("--shards="):
            opts["shards"] = int(_take_value(args, "--shards", arg))
        elif arg == "--snapshot" or arg.startswith("--snapshot="):
            opts["snapshot"] = _take_value(args, "--snapshot", arg)
        elif arg == "--ready-file" or arg.startswith("--ready-file="):
            opts["ready_file"] = _take_value(args, "--ready-file", arg)
        elif arg == "--metrics-out" or arg.startswith("--metrics-out="):
            opts["metrics_out"] = _take_value(args, "--metrics-out", arg)
        else:
            raise _CliError(f"unknown serve option: {arg}")
    return opts


def serve_main(argv: List[str]) -> int:
    """Boot the daemon and block until shutdown."""
    try:
        opts = _serve_args(argv)
    except (_CliError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    if opts["help"]:
        print(__doc__)
        return 0

    shards = opts["shards"] if opts["shards"] is not None else serve_shards()
    if shards >= 2:
        return _serve_sharded(opts, shards)

    from .daemon import ServeDaemon, build_engine, resolve_serve_state

    if opts["snapshot"]:
        state = _snapshot_state(opts["snapshot"])
    else:
        state = resolve_serve_state()
    engine = build_engine(state)
    daemon = ServeDaemon(
        engine,
        host=opts["host"],
        port=opts["port"] if opts["port"] is not None else serve_port(),
        batch_size=opts["batch"],
        wait_ms=opts["wait_ms"],
    )
    host, port = daemon.start()
    print(f"serving on {host}:{port}", flush=True)
    if opts["ready_file"]:
        with open(opts["ready_file"], "w", encoding="utf-8") as handle:
            json.dump({"host": host, "port": port}, handle)
    try:
        daemon.wait()
    except KeyboardInterrupt:
        daemon.stop()
    if opts["metrics_out"]:
        _write_manifest(opts["metrics_out"], daemon, state.seed)
    return 0


def _snapshot_state(path: str):
    """Boot state from a snapshot container, publishing it if missing."""
    import os

    from .snapshot import publish_snapshot, read_state

    if not os.path.exists(path):
        publish_snapshot(path)
    return read_state(path)


def _serve_sharded(opts: dict, shards: int) -> int:
    """Boot the shard supervisor: one snapshot, N daemon processes."""
    import os
    import shutil
    import tempfile

    from .shard import ShardSupervisor
    from .snapshot import SNAPSHOT_BASENAME, SnapshotReader, publish_snapshot

    snapshot_path = opts["snapshot"]
    temp_dir = None
    if not snapshot_path:
        temp_dir = tempfile.mkdtemp(prefix="repro-serve-")
        snapshot_path = os.path.join(temp_dir, SNAPSHOT_BASENAME)
    if not os.path.exists(snapshot_path):
        publish_snapshot(snapshot_path)
    with SnapshotReader(snapshot_path) as reader:
        seed = reader.seed
    supervisor = ShardSupervisor(
        snapshot_path,
        shards,
        host=opts["host"],
        port=opts["port"] if opts["port"] is not None else serve_port(),
        batch_size=opts["batch"],
        wait_ms=opts["wait_ms"],
    )
    try:
        host, port = supervisor.start()
        print(f"serving on {host}:{port} ({shards} shards)", flush=True)
        if opts["ready_file"]:
            with open(opts["ready_file"], "w", encoding="utf-8") as handle:
                json.dump(supervisor.describe(), handle)
        try:
            supervisor.wait()
        except KeyboardInterrupt:
            supervisor.stop()
        if opts["metrics_out"]:
            _write_manifest(opts["metrics_out"], supervisor, seed)
    finally:
        supervisor.stop()
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
    return 0


def _write_manifest(path: str, daemon, seed: int) -> None:
    from ..obs import RunManifest, config_snapshot, get_metrics

    manifest = RunManifest(path)
    manifest.finalize(
        seed=seed,
        config=config_snapshot().as_dict(),
        metrics=get_metrics().as_dict(),
        extra={"serve": daemon.serve_section()},
    )


def _loadgen_args(argv: List[str]) -> dict:
    opts = {
        "host": "127.0.0.1",
        "port": None,
        "queries": 500,
        "seed": 0,
        "concurrency": 8,
        "batch": 1,
        "shards": None,
        "out": None,
        "shutdown": False,
        "help": False,
    }
    args = list(argv)
    while args:
        arg = args.pop(0)
        if arg in ("--help", "-h"):
            opts["help"] = True
        elif arg == "--host" or arg.startswith("--host="):
            opts["host"] = _take_value(args, "--host", arg)
        elif arg == "--port" or arg.startswith("--port="):
            opts["port"] = int(_take_value(args, "--port", arg))
        elif arg in ("-n", "--queries") or arg.startswith("--queries="):
            opts["queries"] = int(_take_value(args, "--queries", arg))
        elif arg == "--seed" or arg.startswith("--seed="):
            opts["seed"] = int(_take_value(args, "--seed", arg))
        elif arg == "--concurrency" or arg.startswith("--concurrency="):
            opts["concurrency"] = int(_take_value(args, "--concurrency", arg))
        elif arg == "--batch" or arg.startswith("--batch="):
            opts["batch"] = int(_take_value(args, "--batch", arg))
        elif arg == "--shards" or arg.startswith("--shards="):
            opts["shards"] = int(_take_value(args, "--shards", arg))
        elif arg == "--out" or arg.startswith("--out="):
            opts["out"] = _take_value(args, "--out", arg)
        elif arg == "--shutdown":
            opts["shutdown"] = True
        else:
            raise _CliError(f"unknown loadgen option: {arg}")
    return opts


def loadgen_main(argv: List[str]) -> int:
    """Run the network load generator against a live daemon."""
    try:
        opts = _loadgen_args(argv)
    except (_CliError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    if opts["help"]:
        print(__doc__)
        return 0
    port = opts["port"] if opts["port"] is not None else serve_port()

    from . import protocol
    from .loadgen import generate_queries, run_network

    queries = generate_queries(opts["seed"], opts["queries"])
    summary = run_network(
        opts["host"],
        port,
        queries,
        concurrency=opts["concurrency"],
        batch_size=opts["batch"],
        shards=opts["shards"],
    )
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        f"loadgen: {summary['queries']} queries in {summary['wall_s']:.3f}s "
        f"({summary['qps']:.0f} qps), p50 {summary['p50_ns']}ns "
        f"p99 {summary['p99_ns']}ns, {summary['errors']} errors, "
        f"{summary['reconnects']} reconnects"
        + (
            f", {summary['shards_hit']}/{opts['shards']} shards hit"
            if "shards_hit" in summary
            else ""
        )
        + (" (workers timed out)" if summary.get("timed_out") else ""),
        flush=True,
    )
    if opts["shutdown"]:
        with protocol.ServeClient(opts["host"], port) as client:
            client.ask({"op": "shutdown"})
    return 0 if summary["errors"] == 0 and not summary.get("timed_out") else 1


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch ``serve`` subcommands."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "loadgen":
        return loadgen_main(argv[1:])
    if argv and argv[0] in ("serve", "daemon"):
        argv = argv[1:]
    return serve_main(argv)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
