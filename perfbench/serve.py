"""The serve workloads: one ``python -m repro serve`` daemon under open-loop traffic.

A run boots the daemon (default configuration: one process, no
workers, batch 64, 2 ms linger) at ``REPRO_SCALE=1.0`` from a run cache
kept in the work directory, keyed by the program's source digest, so
the cold fill is paid once per code version. It then:

1. times ``boots`` warm boots from launch to the first ``health``
   answer (``setup_s`` is their median) and keeps the last daemon;
2. sends closed-loop bursts of a fixed number of queries in the
   workload's exact op shares, as fast as the connections take them
   (``work_s`` is their median makespan), and reads the daemon's peak
   RSS from the OS (``peak_rss_mb``): the end-to-end metrics come from
   this fixed amount of work, before the ladder, whose length depends
   on where the daemon misses the latency limit;
3. steps an open-loop Poisson ladder of offered rates (the first three
   are the named rates r1 < r2 < r3), stopping after the first step past
   r3 that misses the latency limit or falls behind;
4. shuts the daemon down and reads its CPU time from the OS;
5. checks every reply against the offline answer.
"""

from __future__ import annotations

import json
import random
import select
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import check, loadgen, traffic
from .common import (
    WORK,
    BenchError,
    Exit,
    ROOT,
    frozen,
    launcher,
    median,
    nproc,
    program_env,
    reap,
    src_fingerprint,
)

BOOT_TIMEOUT_S = 60.0


class Daemon:
    """One daemon child: launched, waited on until ``health`` answers, shut down."""

    def __init__(self, argv: List[str], env: Dict[str, str], log: Path) -> None:
        self.started = time.perf_counter()
        with open(log, "ab") as err:
            self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                         stderr=err)
        try:
            self.host, self.port = self._address()
            self._ask({"op": "health"})
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - self.started

    def _address(self) -> Tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise BenchError("the daemon did not report its address in time")
            chunk = self.proc.stdout.read1(4096)
            if not chunk:
                raise BenchError(f"the daemon exited during boot (code {self.proc.poll()})")
            line += chunk
        words = line.decode().split()
        if len(words) < 3 or words[0] != "serving":
            raise BenchError(f"unexpected daemon banner: {line!r}")
        host, port = words[2].rsplit(":", 1)
        return host, int(port)

    def _ask(self, message: dict) -> dict:
        with socket.create_connection((self.host, self.port), timeout=60.0) as sock:
            sock.sendall(traffic.encode(message))
            reply = sock.makefile("rb").readline()
        if not reply:
            raise BenchError(f"the daemon closed the connection on {message['op']}")
        return json.loads(reply)

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set size so far (``VmHWM``), in MB."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("the OS reports no peak RSS for the daemon")

    def shutdown(self) -> Exit:
        try:
            self._ask({"op": "shutdown"})
        except (OSError, BenchError):
            self.proc.kill()
        exit_ = reap(self.proc, self.started, timeout=60.0)
        self.proc.stdout.close()
        return exit_

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            reap(self.proc, self.started, timeout=30.0)
        self.proc.stdout.close()


def _cache_entries(cache: Path) -> set:
    return {path for path in cache.rglob("*.rdpg")}


def _boot(cache: Path, env: Dict[str, str], log: Path, trace: Optional[Path] = None
          ) -> Tuple[Daemon, bool]:
    """Boot one daemon; the flag says whether it had to fill the run cache."""
    before = _cache_entries(cache)
    if trace is None:
        argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    else:
        argv = launcher() + ["serve", "--trace", str(trace), "--port", "0"]
    daemon = Daemon(argv, env, log)
    return daemon, _cache_entries(cache) != before


class Schedule:
    """Builds the ladder's steps and the burst from one traffic stream.

    Every query gets a serial number; traced runs put it in the query as
    ``id`` so the daemon-side spans of a query can be matched to it.
    Reloads (serve-urls) are due every ``reload_every_s`` of ladder time.
    """

    def __init__(self, spec: dict, seed: int, tr: traffic.Traffic,
                 reloads: Optional[traffic.Reloads], with_ids: bool, nconn: int) -> None:
        self.rng = random.Random(f"perfbench-arrivals:{seed}")
        self.tr = tr
        self.reloads = reloads
        self.every = spec.get("reload_every_s") or 0.0
        self.with_ids = with_ids
        self.nconn = nconn
        #: id(item) -> the query dict it carries.
        self.queries: Dict[int, dict] = {}
        self._clock = 0.0
        self._next_reload = self.every
        self._serial = 0

    def _item(self, due: float, op: Optional[str] = None) -> loadgen.Item:
        query = self.tr.query(op)
        self._serial += 1
        if self.with_ids:
            query["id"] = self._serial
        item = loadgen.Item(due=due, conn=self._serial % self.nconn, payload=traffic.encode(query))
        self.queries[id(item)] = query
        return item

    def step(self, rate: float, count: int) -> List[loadgen.Item]:
        items = [self._item(due) for due in loadgen.poisson_dues(self.rng, rate, count)]
        length = items[-1].due if items else 0.0
        while self.reloads is not None and self._next_reload < self._clock + length:
            items.append(loadgen.Item(due=self._next_reload - self._clock, conn=0,
                                      payload=traffic.encode(self.reloads.next_request()),
                                      kind="reload"))
            self._next_reload += self.every
        self._clock += length
        return items

    def burst(self, count: int) -> List[loadgen.Item]:
        return [self._item(0.0, op) for op in self.tr.exact_ops(count)]


def _boots(cache: Path, env: Dict[str, str], log: Path, wanted: int,
           trace: Optional[Path]) -> Tuple[Daemon, List[float], List[float]]:
    """Boot until ``wanted`` warm boots were timed; the last daemon keeps running.

    A boot that had to fill the run cache is timed apart (``fills``) and
    not counted. With ``trace``, only the last boot runs traced. The
    daemons before the last are killed once timed: a ``shutdown`` waits
    out the server's half-second poll and measures nothing.
    """
    boots: List[float] = []
    fills: List[float] = []
    while True:
        last = len(boots) + 1 == wanted
        daemon, filled = _boot(cache, env, log, trace if last else None)
        (fills if filled else boots).append(daemon.ready_s)
        if len(boots) == wanted:
            return daemon, boots, fills
        daemon.kill()
        if len(fills) > 1:
            raise BenchError(f"the daemon refilled its run cache twice; see {log}")


def run(workload: str, seed: int, seconds: float, traced: bool, progress: dict) -> dict:
    """Run one serve workload; returns its record (metrics, checks, workload shape).

    The named steps share ``seconds`` of offered load, each with at least
    ``min_queries`` queries (enough for a p99 with ten samples beyond it);
    every later step sends ``min_queries``. ``progress`` receives each
    stage's numbers as they are measured.
    """
    config = frozen()
    spec = config["serve"][workload]
    limit_ms = config["limit_ms"]
    cache = WORK / "serve-cache" / src_fingerprint()[:16]
    cache.mkdir(parents=True, exist_ok=True)
    (WORK / "logs").mkdir(parents=True, exist_ok=True)
    log = WORK / "logs" / f"{workload}-{seed}-daemon.log"
    env = program_env(REPRO_SCALE=str(config["serve"]["scale"]), REPRO_RUN_CACHE=str(cache))
    nconn = max(1, min(nproc(), config["serve"]["connections"]))
    trace = WORK / f"trace-{workload}-{seed}.json" if traced else None
    if trace is not None and trace.exists():
        trace.unlink()

    progress["daemon_log"] = log
    daemon, boots, fills = _boots(cache, env, log, 1 if traced else config["serve"]["boots"], trace)
    progress.update(boot_s=boots, fill_s=fills)
    try:
        network, element, detector = check.load_served_state(cache)
        tr = traffic.Traffic(seed, network, element, tuple(spec["mix"]), spec["block_share"],
                             spec["exception_share"], spec["repeat_share"])
        reloads = traffic.Reloads(seed) if spec.get("reload_every_s") else None
        schedule = Schedule(spec, seed, tr, reloads, traced, nconn)
        conns = loadgen.Connections(daemon.host, daemon.port, nconn)
        try:
            burst: List[loadgen.Item] = []
            makespans = []
            for _ in range(spec["bursts"]):
                items = schedule.burst(spec["burst"])
                makespans.append(loadgen.run_closed(conns, items, window=spec["window"]))
                progress["burst_s"] = makespans
                burst.extend(items)
            peak_rss_mb = progress["peak_rss_mb"] = daemon.peak_rss_mb()
            rates = spec["rates"]
            named = spec["named"]
            counts = [max(spec["min_queries"], int(rate * seconds / named)) if index < named
                      else spec["min_queries"] for index, rate in enumerate(rates)]
            ladder = loadgen.run_ladder(conns, rates, counts, schedule.step, limit_ms,
                                        always=named)
            progress["steps"] = [stats.as_dict() for _, stats, _ in ladder]
        finally:
            conns.close()
        exit_ = daemon.shutdown()
    except BaseException:
        daemon.kill()
        raise

    # Every reply against the offline answer. Scoring a run's fresh
    # scripts offline takes seconds, so verdicts of earlier runs of this
    # program version are reused.
    reference = check.Reference(network, element, detector)
    queries = schedule.queries
    reference.prime([query["source"] for query in queries.values() if query["op"] == "script"]
                    + [script["source"] for query in queries.values() if query["op"] == "page"
                       for script in query["page"]["scripts"]],
                    saved=cache.with_name(cache.name + "-verdicts.json"))
    ladder_items = [item for _, _, items in ladder for item in items]
    failed = 0
    blocked = urls = hidden = 0
    for item in burst + ladder_items:
        if item.kind != "query":
            continue
        query = queries[id(item)]
        ok, decoded = reference.check(item.payload, query, item.reply)
        if not ok or item.latency_ms > loadgen.TIMEOUT_MS:
            failed += 1
        elif query["op"] == "url":
            urls += 1
            blocked += bool(decoded["blocked"])
        elif query["op"] == "page":
            hidden += decoded["result"]["hidden_elements"]
    reload_items = [item for item in ladder_items if item.kind == "reload"]
    reloads_failed = sum(
        1 for item in reload_items
        if loadgen.is_error(item.reply) or b'"drained":true' not in item.reply
    )
    steps = [stats for _, stats, _ in ladder]
    queries_sent = sum(1 for item in ladder_items if item.kind == "query") + len(burst)
    return {
        "connections": nconn,
        "limit_ms": limit_ms,
        "boot_s": boots,
        "fill_s": fills,
        "burst_s": makespans,
        "burst_queries": spec["burst"],
        "burst_qps": spec["burst"] / median(makespans) if median(makespans) > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "daemon": {"code": exit_.code, "wall_s": exit_.wall_s, "cpu_s": exit_.cpu_s,
                   "peak_rss_mb": exit_.peak_rss_mb},
        "steps": [dict(stats.as_dict(), name=_step_name(index, spec["named"]))
                  for index, stats in enumerate(steps)],
        "capacity_qps": loadgen.capacity(steps),
        "reloads": {"sent": len(reload_items), "failed": reloads_failed,
                    "round_trip_ms": [item.latency_ms for item in reload_items if item.answered]},
        "workload_shape": dict(tr.properties(), url_blocked_share=blocked / max(urls, 1),
                               page_mean_hidden_elements=hidden / max(tr.drawn["page"], 1)),
        "attempted": queries_sent + len(reload_items),
        "failed": failed + reloads_failed,
        "trace": trace,
        "items": (ladder, burst, queries),
    }


def _step_name(index: int, named: int) -> str:
    return f"r{index + 1}" if index < named else f"step{index + 1}"


def end_to_end(record: dict) -> Dict[str, float]:
    return {
        "setup_s": median(record["boot_s"]),
        "peak_rss_mb": record["peak_rss_mb"],
        "work_s": median(record["burst_s"]),
    }


def client_layers(record: dict) -> Dict[str, float]:
    """The load generator's per-step numbers and the ladder's latency summary."""
    out: Dict[str, float] = {}
    steps = {step["name"]: step for step in record["steps"]}
    for name in ("r1", "r2", "r3"):
        step = steps[name]
        out[f"client.p50_ms.{name}"] = step["p50_ms"]
        out[f"client.p99_ms.{name}"] = step["p99_ms"]
        out[f"client.late.p99_ms.{name}"] = step["late_p99_ms"]
        out[f"client.sent.{name}"] = step["sent"]
        out[f"client.answered.{name}"] = step["answered"]
    out["client.capacity_qps"] = record["capacity_qps"]
    trips = record["reloads"]["round_trip_ms"]
    out["client.reload_ms"] = median(trips) if trips else 0.0
    out["client.burst_qps"] = record["burst_qps"]
    out["client.daemon_cpu_s"] = record["daemon"]["cpu_s"]
    return out
