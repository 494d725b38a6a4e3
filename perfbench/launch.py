"""Child-process entry of the benchmark: run the program's own entry point.

    python3 perfbench/launch.py study --report PATH [--trace PATH]
    python3 perfbench/launch.py serve --trace PATH [serve options ...]

``study`` calls ``repro.__main__.main(["-q", "all"])`` unchanged and
writes a small report of how every graph node resolved. ``serve`` calls
``repro.serve.cli.main`` with the remaining options. With ``--trace``
the benchmark's span wrappers are installed first and their records
written to PATH when the entry point returns.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()


def _take(argv: list, flag: str):
    if flag not in argv:
        return None
    at = argv.index(flag)
    value = argv[at + 1]
    del argv[at : at + 2]
    return value


def _tracer(path, experiments=()):
    if path is None:
        return None
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.tracing import Recorder, install

    recorder = Recorder()
    install(recorder, experiments)
    return recorder


def study(argv: list) -> int:
    report = _take(argv, "--report")
    trace = _take(argv, "--trace")

    from repro.__main__ import EXPERIMENTS, main
    from repro.experiments.context import shared_context

    recorder = _tracer(trace, EXPERIMENTS)
    code = main(["-q", "all"])
    sys.stdout.flush()
    ctx = shared_context()
    with open(report, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "nodes": {
                    name: row["outcome"]
                    for name, row in ctx.graph.manifest_section()["nodes"].items()
                },
                "stages": [stage.as_dict() for stage in ctx.stage_timings],
            },
            handle,
        )
    if recorder is not None:
        from repro.core.featstore import get_feature_store

        recorder.dump(
            trace,
            featstore=get_feature_store().stats.as_dict(),
            wall_ns=int((time.perf_counter() - STARTED) * 1e9),
        )
    return code


def serve(argv: list) -> int:
    trace = _take(argv, "--trace")
    recorder = _tracer(trace)
    from repro.serve.cli import main

    code = main(argv)
    if recorder is not None:
        recorder.dump(trace)
    return code


if __name__ == "__main__":
    args = sys.argv[1:]
    mode = args.pop(0)
    raise SystemExit(study(args) if mode == "study" else serve(args))
