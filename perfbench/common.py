"""Paths, child processes, statistics and the host record shared by every workload."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

#: The checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
#: Everything a run leaves behind (run caches, child logs, records).
WORK = ROOT / ".perfbench-work"

#: The only program knobs the benchmark sets; every other ``REPRO_*``
#: variable is removed from the children's environment, so the
#: program runs in its default configuration.
ALLOWED_KNOBS = ("REPRO_SCALE", "REPRO_RUN_CACHE")


class BenchError(Exception):
    """The benchmark cannot run here (no program, a child failed to start, ...)."""


def frozen() -> dict:
    """The frozen benchmark constants: rates, limits, artifact references."""
    with open(BENCH / "frozen.json", encoding="utf-8") as handle:
        return json.load(handle)


def require_program() -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run from a full checkout")


def program_env(**knobs: str) -> Dict[str, str]:
    """The environment for a program child: default knobs plus ``knobs``."""
    unknown = set(knobs) - set(ALLOWED_KNOBS)
    if unknown:
        raise ValueError(f"the benchmark sets no knob but {ALLOWED_KNOBS}: {sorted(unknown)}")
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env.update(knobs)
    env["PYTHONPATH"] = str(SRC)
    return env


def src_fingerprint() -> str:
    """SHA-256 over every program source file (keys the reusable serve cache)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fresh_dir(path: Path) -> Path:
    """An empty directory at ``path`` (removed first if present)."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- child processes ----------------------------------------------------------------


@dataclass
class Exit:
    """How a child ended, with the resource usage the OS reported for it."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def reap(proc: subprocess.Popen, started: float, timeout: float) -> Exit:
    """Wait for ``proc`` (killing it after ``timeout``) and read its rusage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def run_child(argv: Sequence[str], env: Dict[str, str], stdout_path: Path,
              stderr_path: Path, timeout: float) -> Exit:
    """Run one program child to completion, timing it from spawn to exit."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(list(argv), cwd=ROOT, env=env, stdout=out, stderr=err)
        return reap(proc, started, timeout)


def launcher() -> List[str]:
    """The command prefix of the benchmark's child launcher."""
    return [sys.executable, str(BENCH / "launch.py")]


# -- statistics ------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``; NaN when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly beyond the ``q`` percentile."""
    if not values:
        return 0
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for even counts); NaN when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when ``whole`` is 0."""
    return part / whole if whole else 0.0


# -- the host record -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def nproc() -> int:
    """Processors this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def host_record() -> Dict[str, object]:
    """Where and on what a result was measured."""
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": src_fingerprint(),
    }
