"""The study workload: every paper artifact from an empty run cache, then warm restarts.

A fresh process runs ``repro.__main__.main(["-q", "all"])`` at
``REPRO_SCALE=0.08`` (the default scale) with an empty
``REPRO_RUN_CACHE``; its wall time is ``work_s``. Fresh processes then
rerun it against the filled cache (``setup_s`` is their median):
interpreter, imports, world build and cache reads, with no node
recomputed. Every artifact is hashed; the cold and warm runs must agree,
and so must the digests recorded in ``frozen.json``.

The CLI has no seed flag, so the campaign world is always the
program's default one (world seed 1702, the seed EXPERIMENTS.md
reports), whatever the workload seed: every run is checked against the
recorded digests, and a world seed's effect on the study's own load
stays out of the run-to-run spread. The workload seed only names the
run's files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

from . import check
from .common import SRC, WORK, frozen, fresh_dir, launcher, median, program_env, run_child

#: Per-child limits: the whole run must end well inside three minutes.
COLD_TIMEOUT_S = 140.0
WARM_TIMEOUT_S = 10.0


def experiment_names() -> List[str]:
    """The experiments ``repro all`` runs, in the CLI's order."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.__main__ import EXPERIMENTS

    return list(EXPERIMENTS)


def _launch(work: Path, tag: str, env: Dict[str, str], timeout: float,
            trace: Optional[Path] = None):
    argv = launcher() + ["study", "--report", str(work / f"{tag}.json")]
    if trace is not None:
        argv += ["--trace", str(trace)]
    exit_ = run_child(argv, env, work / f"{tag}.out", work / f"{tag}.err", timeout)
    stdout = (work / f"{tag}.out").read_text(encoding="utf-8", errors="replace")
    try:
        report = json.loads((work / f"{tag}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        report = None
    return exit_, stdout, report


def run(seed: int, traced: bool, progress: dict) -> dict:
    """Run the study workload once; returns its record (``seed`` only names its files).

    ``progress`` receives each stage's numbers as they are measured.
    """
    config = frozen()["study"]
    names = experiment_names()
    work = fresh_dir(WORK / f"study-{seed}-{os.getpid()}")
    env = program_env(REPRO_SCALE=str(config["scale"]), REPRO_RUN_CACHE=str(work / "cache"))
    traces = [WORK / f"trace-study-{seed}-cold.json", WORK / f"trace-study-{seed}-warm.json"]
    try:
        cold, stdout, cold_report = _launch(work, "cold", env, COLD_TIMEOUT_S,
                                            traces[0] if traced else None)
        progress["cold"] = cold
        cold_artifacts = check.split_artifacts(stdout, names) if cold.code == 0 else None
        cold_digests = check.digests(cold_artifacts) if cold_artifacts else None
        warm_walls: List[float] = []
        warm_digests = []
        recomputed: List[List[str]] = []
        for index in range(1 if traced else config["warm_restarts"]):
            warm, stdout, report = _launch(work, f"warm{index}", env, WARM_TIMEOUT_S,
                                           traces[1] if traced else None)
            warm_walls.append(warm.wall_s)
            progress["warm_s"] = warm_walls
            artifacts = check.split_artifacts(stdout, names) if warm.code == 0 else None
            warm_digests.append(check.digests(artifacts) if artifacts else None)
            nodes = (report or {}).get("nodes", {"report": "missing"})
            recomputed.append(sorted(name for name, outcome in nodes.items() if outcome != "hit"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = config["reference"]
    failures = check.artifact_failures(names, cold_digests, warm_digests, reference)
    bad_restarts = sum(1 for nodes in recomputed if nodes)
    return {
        "scale": config["scale"],
        "experiments": names,
        "work_s": cold.wall_s,
        "setup_s": median(warm_walls),
        "warm_s": warm_walls,
        "cold": {"code": cold.code, "wall_s": cold.wall_s, "cpu_s": cold.cpu_s,
                 "peak_rss_mb": cold.peak_rss_mb},
        "stages": (cold_report or {}).get("stages", []),
        "digests": cold_digests,
        "artifact_failures": failures,
        "warm_recomputed": recomputed,
        "attempted": len(names) + len(warm_walls),
        "failed": len(failures) + bad_restarts,
        "traces": traces if traced else None,
    }


def end_to_end(record: dict) -> Dict[str, float]:
    return {
        "setup_s": record["setup_s"],
        "peak_rss_mb": record["cold"]["peak_rss_mb"],
        "work_s": record["work_s"],
    }
