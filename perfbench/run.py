"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload {study,serve-mixed,serve-urls} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it name every metric with its unit and
sample count, the host, and the workload's measured shape; the full
record is kept under ``.perfbench-work/records/``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers, serve, study  # noqa: E402
from perfbench.common import WORK, BenchError, frozen, host_record, require_program  # noqa: E402

WORKLOADS = ("study", "serve-mixed", "serve-urls")

#: The end-to-end metrics every workload prints, with their units.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("work_s", "s"))


def _records_dir() -> Path:
    path = WORK / "records"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _failure_log(workload: str, seed: int, traced: bool, progress: dict) -> Path:
    """Keep a failed run's traceback and what it measured before failing."""
    path = WORK / "logs" / f"{workload}-{seed}-trace{int(traced)}-failed.log"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(traceback.format_exc() + "\npartial record:\n"
                    + json.dumps(progress, default=str, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def _samples(workload: str, record: dict) -> dict:
    if workload == "study":
        return {"setup_s": len(record["warm_s"]), "peak_rss_mb": 1, "work_s": 1}
    return {"setup_s": len(record["boot_s"]), "peak_rss_mb": 1,
            "work_s": len(record["burst_s"])}


def _untraced_reference(workload: str, seed: int):
    """The newest untraced record of this workload (same seed preferred)."""
    candidates = sorted(_records_dir().glob(f"{workload}-*-trace0.json"),
                        key=lambda path: path.stat().st_mtime)
    same = [path for path in candidates if path.name == f"{workload}-{seed}-trace0.json"]
    chosen = (same or candidates)[-1:]
    if not chosen:
        return None
    return json.loads(chosen[0].read_text(encoding="utf-8"))


def _per_layer(workload: str, record: dict) -> dict:
    if workload == "study":
        cold, warm = (layers.Spans(path) for path in record["traces"])
        values = layers.program_layers(cold, loads=warm)
        wall = record["work_s"]
        attributed = cold.total_self_s()
        values.update({
            "study.traced_wall_s": wall,
            "study.unattributed_s": wall - attributed,
            "study.attributed_share": attributed / wall if wall else 0.0,
        })
        return values
    spans = layers.Spans(record["trace"])
    ladder, _, queries = record["items"]
    r1 = [(queries[id(item)]["id"], item.done - item.sent)
          for item in ladder[0][2] if item.kind == "query" and item.answered]
    values = layers.program_layers(spans)
    values.update(layers.serve_layers(spans, r1))
    values.update(serve.client_layers(record))
    return values


def _print_lines(workload: str, seed: int, traced: bool, host: dict, record: dict,
                 e2e: dict, samples: dict) -> None:
    print(f"perfbench {workload} seed={seed} trace={int(traced)}")
    print("host: " + json.dumps(host, sort_keys=True))
    for name, unit in END_TO_END:
        print(f"  {name:<14} {e2e[name]:>14.6f} {unit:<4} (samples: {samples[name]})")
    ratio = record["failed"] / record["attempted"] if record["attempted"] else math.nan
    print(f"  {'fail_ratio':<14} {ratio:>14.6f} ratio (failed {record['failed']} "
          f"of {record['attempted']} attempted)")
    if workload != "study":
        for step in record["steps"]:
            print(f"  {step['name']:<6} offered {step['offered_qps']:7.1f}/s achieved "
                  f"{step['achieved_qps']:7.1f}/s  p50 {step['p50_ms']:7.2f} ms  p99 "
                  f"{step['p99_ms']:7.2f} ms (samples {step['answered']}, beyond p99 "
                  f"{step['p99_beyond']})  late p99 {step['late_p99_ms']:.2f} ms  "
                  f"{'pass' if step['passed'] else 'FAIL'}")
        print(f"  capacity_qps {record['capacity_qps']} (limit p99 <= {record['limit_ms']} ms)")
        print("  workload shape: " + json.dumps(record["workload_shape"], sort_keys=True))
    else:
        print("  artifacts checked against frozen.json; failures: "
              f"{record['artifact_failures'] or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    try:
        require_program()
        config = frozen()
    except (BenchError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    progress: dict = {}
    try:
        if args.workload == "study":
            record = study.run(args.seed, traced, progress)
            e2e = study.end_to_end(record)
        else:
            record = serve.run(args.workload, args.seed, args.seconds, traced, progress)
            e2e = serve.end_to_end(record)
    except Exception:
        traceback.print_exc()
        path = _failure_log(args.workload, args.seed, traced, progress)
        print(f"perfbench: the {args.workload} run failed; traceback and partial record "
              f"in {path}", file=sys.stderr)
        return 1
    host = dict(host_record(), scale=record.get("scale", config["serve"]["scale"]),
                seed=args.seed, seconds=args.seconds, limit_ms=config["limit_ms"])
    if args.workload != "study":
        host["rates"] = config["serve"][args.workload]["rates"]
    samples = _samples(args.workload, record)
    _print_lines(args.workload, args.seed, traced, host, record, e2e, samples)

    if traced:
        reference = _untraced_reference(args.workload, args.seed)
        if reference is None:
            print("tracing overhead: no untraced record of this workload yet")
        else:
            overhead = {name: e2e[name] - reference["end_to_end"][name] for name, _ in END_TO_END}
            print(f"tracing overhead (traced - untraced, seed {reference['seed']}): "
                  + json.dumps(overhead, sort_keys=True))
        metrics = layers.complete(_per_layer(args.workload, record))
    else:
        metrics = {name: {"value": float(e2e[name]), "unit": unit} for name, unit in END_TO_END}
    kept = {key: value for key, value in record.items() if key not in ("items",)}
    kept.update(seed=args.seed, host=host, end_to_end=e2e, samples=samples,
                run_s=time.perf_counter() - started)
    path = _records_dir() / f"{args.workload}-{args.seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(kept, default=str, sort_keys=True), encoding="utf-8")
    print(f"record: {path}")
    result = {
        "correct": record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
