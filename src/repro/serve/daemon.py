"""The serve daemon: graph-backed state, a TCP front end, and health.

Boot resolves two dedicated artifact-graph nodes through the standard
memory → ``REPRO_RUN_CACHE`` → compute layers:

- ``serve:snapshot`` — the compiled subscription (raw network/element
  rule lines of the latest ``aak`` + ``combined_easylist`` revisions;
  depends on the ``lists`` stage);
- ``serve:detector`` — the fitted §5 detector, trained exactly as the
  ``sec5live`` driver trains it (keyword features, top_k=1000, campaign
  seed; depends on ``corpus`` and ``features:keyword:u1``).

Against a warm run cache both nodes load from disk and **no context
stage recomputes** — the daemon is answering queries in the time it
takes to unpickle two artifacts. Cold, the nodes compute once and
persist, warming every later boot.

The front end is a threading TCP server speaking the line protocol of
:mod:`repro.serve.protocol`, one thread per connection. Each connection
is pipelined: a read takes every complete line the client has sent, and
consecutive query ops go to the :class:`~repro.serve.batcher.RequestBatcher`
as one group, so a client's in-flight queries share batches. Control
lines are answered in their place between groups: ``health``/``metrics``
read state directly; ``reload`` performs the epoch swap of
:mod:`repro.serve.reload`; ``shutdown`` stops the daemon. A line longer
than :data:`MAX_FRAME_BYTES` gets one error frame and closes its
connection. Accepted sockets run with ``TCP_NODELAY``. On stop the
daemon can write a run manifest whose ``serve`` section carries the
port, final epoch, and query/batch/reload/dropped counters
(``repro.obs.manifest`` validates it).
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.pipeline import AntiAdblockDetector, DetectorConfig
from ..graph.core import NodeSpec
from ..obs.config import serve_batch_size, serve_wait_ms, serve_workers
from ..obs.metrics import get_metrics
from ..obs.trace import span as trace_span
from .batcher import RequestBatcher, ServeEngine
from . import protocol
from .reload import EpochChain, partition_rule_lines

logger = logging.getLogger("repro.serve")

#: serve:snapshot payload revision (part of the node key via ``extra``).
SNAPSHOT_SCHEMA = 1

#: The subscription the daemon serves: the anti-adblock list plus the
#: combined EasyList, i.e. the corpus-labeling pair from §5.
SUBSCRIBED_LISTS = ("aak", "combined_easylist")

#: The detector configuration, pinned to the ``sec5live`` training setup.
DETECTOR_PARAMS = {"feature_set": "keyword", "top_k": 1000, "classifier": "adaboost_svm", "unpack": True}


def snapshot_spec() -> NodeSpec:
    """Graph spec of the compiled-subscription node."""
    return NodeSpec(
        "serve:snapshot",
        deps=("lists",),
        code=("filterlist",),
        extra=NodeSpec.freeze_extra(
            {"schema": SNAPSHOT_SCHEMA, "lists": list(SUBSCRIBED_LISTS)}
        ),
    )


def detector_spec() -> NodeSpec:
    """Graph spec of the trained-detector node."""
    return NodeSpec(
        "serve:detector",
        deps=("corpus", "features:keyword:u1"),
        code=("core", "jsast"),
        extra=NodeSpec.freeze_extra(dict(DETECTOR_PARAMS, schema=SNAPSHOT_SCHEMA)),
    )


@dataclass
class ServeState:
    """Everything the daemon needs to answer queries."""

    detector: AntiAdblockDetector
    network_lines: List[str] = field(default_factory=list)
    element_lines: List[str] = field(default_factory=list)
    seed: int = 0

    def build_chain(self) -> EpochChain:
        """Parse the snapshot lines and assemble epoch 0."""
        network, element, _ = partition_rule_lines(
            self.network_lines + self.element_lines
        )
        return EpochChain(self.detector, network, element)


def _compute_snapshot(ctx) -> Dict[str, Any]:
    """Collect the latest raw rule lines of the subscribed lists."""
    network: List[str] = []
    element: List[str] = []
    for name in SUBSCRIBED_LISTS:
        revision = ctx.lists[name].latest()
        if revision is None:
            continue
        document = revision.filter_list
        network.extend(rule.raw for rule in document.network_rules)
        element.extend(rule.raw for rule in document.element_rules)
    return {"schema": SNAPSHOT_SCHEMA, "network": network, "element": element}


def _compute_detector(ctx) -> AntiAdblockDetector:
    """Train the §5 detector exactly as the ``sec5live`` driver does."""
    corpus = ctx.corpus
    detector = AntiAdblockDetector(
        DetectorConfig(seed=ctx.world.seed, **DETECTOR_PARAMS)
    )
    detector.fit(
        corpus.sources(),
        corpus.labels(),
        features=ctx.corpus_features("keyword"),
    )
    # The fitted ensemble still holds its base_factory closure, which is
    # not picklable; inference never calls it, so drop it before the
    # value reaches the run cache.
    if hasattr(detector.model, "base_factory"):
        detector.model.base_factory = None
    return detector


def resolve_serve_state(ctx=None) -> ServeState:
    """Resolve the serving state through the artifact graph.

    With a warm ``REPRO_RUN_CACHE`` both nodes come off disk and no
    context stage runs; cold, the compute closures build them through
    the normal stage machinery and persist them.
    """
    if ctx is None:
        from ..experiments.context import shared_context

        ctx = shared_context()
    graph = ctx.graph
    graph.register(snapshot_spec())
    graph.register(detector_spec())
    with trace_span("serve:resolve"):
        snapshot = graph.resolve("serve:snapshot", lambda: _compute_snapshot(ctx))
        detector = graph.resolve("serve:detector", lambda: _compute_detector(ctx))
    return ServeState(
        detector=detector,
        network_lines=list(snapshot.get("network", [])),
        element_lines=list(snapshot.get("element", [])),
        seed=ctx.world.seed,
    )


def build_engine(
    state: ServeState, workers: Optional[int] = None
) -> ServeEngine:
    """An engine over epoch 0, with a worker pool when ``workers >= 2``.

    The pool is private to the daemon (never the process-wide one): the
    serve state is published under ``"serve"`` before the single fork,
    and batch payloads afterwards carry only queries and delta lines.
    """
    chain = state.build_chain()
    if workers is None:
        workers = serve_workers()
    pool = None
    if workers and workers >= 2:
        from ..analysis.pool import PersistentPool

        network, element, _ = partition_rule_lines(
            state.network_lines + state.element_lines
        )
        pool = PersistentPool(workers)
        pool.publish(
            "serve",
            {
                "detector": state.detector,
                "network_rules": network,
                "element_rules": element,
            },
        )
    return ServeEngine(chain, pool=pool)


#: The counter quartet every health/manifest surface reports, in the
#: order the manifest schema validates them.
SERVE_COUNTERS = ("queries", "batches", "reloads", "dropped")


def _counter_snapshot() -> Dict[str, int]:
    """The ``serve.*`` counter quartet, read once from the registry.

    One reader shared by ``health()``, ``serve_section()``, and the
    shard supervisor's merged variants, so the surfaces cannot drift.
    """
    metrics = get_metrics()
    return {name: metrics.counter(f"serve.{name}") for name in SERVE_COUNTERS}


#: The longest request line the daemon reads, newline excluded. The
#: largest frames in-repo clients send are a full-subscription reload
#: (~132 KB) and a 64-query batch frame (~14 KB); a longer line gets one
#: error frame and the connection is closed.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Bytes asked of the socket per read.
READ_BYTES = 64 * 1024

#: Seconds a request line waits for the batcher to answer its queries.
QUERY_TIMEOUT_S = 60.0


class _Handler(socketserver.BaseRequestHandler):
    """One client connection, pipelined.

    Each read takes every complete line the client has sent so far.
    Consecutive query lines go to the batcher as one group, so a client
    with many queries in flight fills batches instead of each query
    waiting out the linger alone. Control lines, ``batch`` frames and bad
    lines are answered in their place between groups; a control line
    therefore waits for the queries before it (a ``reload`` is a
    barrier). All replies to one read leave in one ``sendall``.

    The server's ``daemon`` answers through two calls: ``dispatch`` for
    one decoded message and ``answer_queries`` for a group of queries.
    """

    def setup(self) -> None:
        # Nagle would hold a small reply until the previous one is ACKed,
        # and the client delays that ACK by up to 40 ms.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def handle(self) -> None:
        buffer = bytearray()
        while True:
            chunk = self.request.recv(READ_BYTES)
            buffer += chunk
            if chunk:
                # Only the new chunk can hold a newline: the bytes before
                # it are one partial line.
                end = buffer.rfind(b"\n", len(buffer) - len(chunk))
                lines = bytes(buffer[:end]).split(b"\n") if end >= 0 else []
                del buffer[: end + 1]
                if len(buffer) > MAX_FRAME_BYTES:
                    # Refused now, before the rest of the line arrives.
                    lines.append(buffer)
            else:
                # EOF: a last request without a newline is still answered.
                lines = [bytes(buffer)] if buffer else []
            replies, close = self._answer(lines)
            if replies:
                self.request.sendall(replies)
            if close or not chunk:
                return

    def _answer(self, lines: List[bytes]) -> Tuple[bytes, bool]:
        """The reply frames to ``lines``, in order, and whether to close."""
        daemon = self.server.daemon  # type: ignore[attr-defined]
        frames: List[bytes] = []
        queries: List[Dict[str, Any]] = []

        def flush_queries() -> None:
            if queries:
                answers = daemon.answer_queries(queries)
                frames.extend(protocol.encode(answer) for answer in answers)
                queries.clear()

        for line in lines:
            if len(line) > MAX_FRAME_BYTES:
                flush_queries()
                get_metrics().count("serve.errors")
                frames.append(protocol.encode(protocol.error_response(
                    f"request line exceeds {MAX_FRAME_BYTES} bytes; closing"
                )))
                return b"".join(frames), True
            try:
                message = protocol.decode_line(line)
            except protocol.ProtocolError as exc:
                flush_queries()
                get_metrics().count("serve.errors")
                frames.append(protocol.encode(protocol.error_response(str(exc))))
                continue
            if message["op"] in protocol.QUERY_OPS:
                queries.append(message)
                continue
            flush_queries()
            frames.append(protocol.encode(daemon.dispatch(message)))
            if message["op"] == "shutdown":
                return b"".join(frames), True
        flush_queries()
        return b"".join(frames), False


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    #: Set by the shard plane: bind with ``SO_REUSEPORT`` so N daemon
    #: processes share one port and the kernel balances connections.
    reuse_port = False

    def server_bind(self) -> None:
        if self.reuse_port:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


def _adopt_socket(server: _Server, listen_socket: socket.socket) -> None:
    """Serve on an already-listening socket (pre-fork FD inheritance).

    The server is constructed with ``bind_and_activate=False``; its own
    unbound socket is swapped for the inherited one, so every shard of a
    non-``SO_REUSEPORT`` fallback accepts on the supervisor's listener.
    """
    server.socket.close()
    server.socket = listen_socket
    server.server_address = listen_socket.getsockname()


class ServeDaemon:
    """The running service: server socket, batcher, and control plane."""

    def __init__(
        self,
        engine: ServeEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        batch_size: Optional[int] = None,
        wait_ms: Optional[float] = None,
        reuse_port: bool = False,
        listen_socket: Optional[socket.socket] = None,
        shard_index: Optional[int] = None,
    ) -> None:
        self.engine = engine
        self.batcher = RequestBatcher(
            engine,
            batch_size=batch_size if batch_size is not None else serve_batch_size(),
            wait_ms=wait_ms if wait_ms is not None else serve_wait_ms(),
        )
        self.host = host
        self.port = port
        #: ``SO_REUSEPORT`` bind (shard plane: N processes, one port).
        self.reuse_port = reuse_port
        #: An already-listening socket to adopt instead of binding
        #: (shard fallback: every forked shard accepts on one listener).
        self._listen_socket = listen_socket
        #: Which shard of a sharded deployment this daemon is (None =
        #: unsharded); reported in ``health`` so clients and the loadgen
        #: can see which shard their connection landed on.
        self.shard_index = shard_index
        self._server: Optional[_Server] = None
        self._extra_servers: List[_Server] = []
        self._threads: List[threading.Thread] = []
        self._stopped = threading.Event()
        self.ready = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def _serve_on(self, server: _Server, name: str) -> None:
        server.daemon = self  # type: ignore[attr-defined]
        thread = threading.Thread(target=server.serve_forever, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def start(self):
        """Bind (port 0 picks an ephemeral port), start serving; returns
        the bound ``(host, port)``."""
        self.batcher.start()
        if self._listen_socket is not None:
            self._server = _Server((self.host, self.port), _Handler, bind_and_activate=False)
            _adopt_socket(self._server, self._listen_socket)
        elif self.reuse_port:
            server_class = type("_ReusePortServer", (_Server,), {"reuse_port": True})
            self._server = server_class((self.host, self.port), _Handler)
        else:
            self._server = _Server((self.host, self.port), _Handler)
        self.host, self.port = self._server.server_address[:2]
        self._serve_on(self._server, "serve-daemon")
        self.ready.set()
        logger.info("serve daemon listening on %s:%d", self.host, self.port)
        return self.host, self.port

    def add_listener(self, host: str = "127.0.0.1", port: int = 0):
        """Open an extra listening address on the same dispatch plane.

        A shard serves queries on the kernel-balanced shared port *and*
        answers its supervisor on a private loopback control port — same
        protocol, same batcher, two sockets. Returns ``(host, port)``.
        """
        server = _Server((host, port), _Handler)
        self._extra_servers.append(server)
        self._serve_on(server, f"serve-listener-{server.server_address[1]}")
        return server.server_address[:2]

    def stop(self) -> None:
        """Shut down: stop admitting, flush the batcher, close the sockets."""
        for server in [self._server, *self._extra_servers]:
            if server is not None:
                server.shutdown()
                server.server_close()
        self._server = None
        self._extra_servers = []
        self.batcher.close()
        if self.engine.pool is not None:
            self.engine.pool.close()
        self._stopped.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon is stopped (by ``shutdown`` or a signal)."""
        return self._stopped.wait(timeout)

    # -- ops -----------------------------------------------------------------

    def dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Route one decoded request to the batcher or the control plane."""
        op = message.get("op")
        if op in protocol.QUERY_OPS:
            return self.batcher.ask(message, timeout=QUERY_TIMEOUT_S)
        if op == protocol.BATCH_OP:
            queries = message.get("queries", [])
            for item in queries:
                if not isinstance(item, dict) or item.get("op") not in protocol.QUERY_OPS:
                    get_metrics().count("serve.errors")
                    return protocol.error_response(
                        "batch: every entry must be a url/script/page query", op
                    )
            return protocol.ok_response(op, answers=self.answer_queries(queries))
        if op == "health":
            return protocol.ok_response(op, **self.health())
        if op == "metrics":
            return protocol.ok_response(op, metrics=self.metrics_summary())
        if op == "reload":
            return self.reload(
                message.get("added", []) or [], message.get("removed", []) or []
            )
        if op == "shutdown":
            # Reply first (the handler writes the frame), then stop off
            # the handler thread so the socket teardown does not race
            # the in-flight response.
            threading.Thread(target=self.stop, daemon=True).start()
            return protocol.ok_response(op, stopping=True)
        return protocol.error_response(f"unknown op: {op!r}", op)

    def answer_queries(self, queries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Answer decoded query messages through the batcher, in order."""
        return self.batcher.ask_many(queries, timeout=QUERY_TIMEOUT_S)

    def reload(self, added: List[str], removed: List[str]) -> Dict[str, Any]:
        """Hot-swap a list delta; returns the epoch summary once drained."""
        with trace_span("serve:reload"):
            summary = self.engine.chain.reload(added, removed, wait=True, timeout=60.0)
        metrics = get_metrics()
        metrics.count("serve.reloads")
        metrics.gauge("serve.epoch", summary["epoch"])
        if summary["drained"]:
            logger.info(
                "reloaded to epoch %d (+%d/-%d rules, %d lines skipped)",
                summary["epoch"], summary["added"], summary["removed"], summary["skipped"],
            )
        else:
            # The swap happened, but the old epoch is still held (e.g. an
            # uncollected pool future) — visible to callers and CI gates.
            metrics.count("serve.drain_timeouts")
            logger.warning(
                "reloaded to epoch %d but the old epoch did not drain in time",
                summary["epoch"],
            )
        return protocol.ok_response("reload", **summary)

    def health(self) -> Dict[str, Any]:
        """Readiness plus the counters a smoke test gates on."""
        if self._stopped.is_set():
            # Distinct from "starting": supervisors and smoke tests can
            # tell a daemon that never came up from one tearing down.
            status = "stopping"
        elif self.ready.is_set():
            status = "ok"
        else:
            status = "starting"
        health = {
            "status": status,
            "epoch": self.engine.chain.current.index,
            "workers": self.engine.pool.workers if self.engine.pool else 0,
            "rules": self.engine.chain.current.online.adblocker.rule_count,
            **_counter_snapshot(),
        }
        if self.shard_index is not None:
            health["shard"] = self.shard_index
        return health

    def metrics_summary(self) -> Dict[str, Any]:
        """The serve slice of the registry (counters + latency quantiles)."""
        registry = get_metrics().as_dict()
        summary: Dict[str, Any] = {
            "counters": {
                name: value
                for name, value in registry["counters"].items()
                if name.startswith("serve.")
            },
            "gauges": {
                name: value
                for name, value in registry["gauges"].items()
                if name.startswith("serve.")
            },
        }
        latency = get_metrics().histogram("serve.latency_ns")
        if latency is not None:
            summary["latency_ns"] = latency.quantiles()
        # Full serve histograms ride along (not just quantiles): quantile
        # vectors cannot be merged, bucket counts can — the shard
        # supervisor's merged metrics view depends on these.
        histograms = {
            name: value
            for name, value in registry.get("histograms", {}).items()
            if name.startswith("serve.")
        }
        if histograms:
            summary["histograms"] = histograms
        return summary

    def serve_section(self) -> Dict[str, Any]:
        """The run manifest's ``serve`` section (validated by obs)."""
        return {
            "port": self.port,
            "epoch": self.engine.chain.current.index,
            "workers": self.engine.pool.workers if self.engine.pool else 0,
            **_counter_snapshot(),
        }
