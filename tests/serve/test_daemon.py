"""The TCP daemon end to end: ops, batch frames, hot reload under load."""

import json
import socket
import threading

import pytest

from repro.obs.manifest import validate_manifest
from repro.obs.metrics import get_metrics
from repro.serve import protocol
from repro.serve.batcher import answer_query
from repro.serve.daemon import MAX_FRAME_BYTES, ServeDaemon, build_engine
from repro.serve.loadgen import generate_queries


@pytest.fixture
def daemon(serve_state):
    instance = ServeDaemon(build_engine(serve_state, workers=0), port=0)
    host, port = instance.start()
    yield instance
    instance.stop()


@pytest.fixture
def client(daemon):
    with protocol.ServeClient(daemon.host, daemon.port, timeout=30.0) as c:
        yield c


class TestQueryOps:
    def test_url_query(self, client):
        answer = client.ask(protocol.url_query("https://example.com/app.css"))
        assert answer["ok"] is True
        assert isinstance(answer["blocked"], bool)

    def test_script_query(self, client):
        answer = client.ask(protocol.script_query("var benign = 1;"))
        assert answer["ok"] is True
        assert isinstance(answer["flagged"], bool)

    def test_page_query(self, client):
        page = generate_queries(21, 60)
        page = next(q for q in page if q["op"] == "page")
        answer = client.ask(page)
        assert answer["ok"] is True
        assert set(answer["result"]) == {
            "url",
            "blocked_by_rules",
            "blocked_by_model",
            "flagged_inline",
            "hidden_elements",
        }

    def test_pipelined_queries_answer_in_order(self, client):
        queries = generate_queries(22, 20)
        answers = client.ask_many(queries)
        assert len(answers) == 20
        assert all(a["ok"] for a in answers)
        assert [a["op"] for a in answers] == [q["op"] for q in queries]

    def test_batch_frame(self, client):
        queries = generate_queries(23, 12)
        response = client.ask(protocol.batch_query(queries))
        assert response["ok"] is True
        answers = response["answers"]
        assert [a["op"] for a in answers] == [q["op"] for q in queries]
        # One frame, twelve queries, all counted.
        assert get_metrics().counter("serve.queries") == 12

    def test_batch_frame_rejects_control_ops(self, client):
        response = client.ask(protocol.batch_query([{"op": "shutdown"}]))
        assert response["ok"] is False
        assert "batch" in response["error"]

    def test_bad_line_answers_error_and_keeps_connection(self, client):
        client._file.write(b"this is not json\n")
        client._file.flush()
        error = client._file.readline()
        assert b'"ok":false' in error.replace(b" ", b"")
        answer = client.ask(protocol.url_query("https://example.com/x"))
        assert answer["ok"] is True


class TestControlOps:
    def test_health(self, client):
        answer = client.ask({"op": "health"})
        assert answer["ok"] is True
        assert answer["status"] == "ok"
        assert answer["epoch"] == 0
        assert answer["dropped"] == 0
        assert answer["rules"] > 0

    def test_metrics_after_queries(self, client):
        client.ask(protocol.url_query("https://example.com/y.js"))
        answer = client.ask({"op": "metrics"})
        assert answer["ok"] is True
        counters = answer["metrics"]["counters"]
        assert counters["serve.queries"] >= 1
        assert "latency_ns" in answer["metrics"]

    def test_reload_over_tcp(self, client):
        probe = protocol.url_query(
            "https://flashnews-tracker.example/ad.js", resource_type="script"
        )
        assert client.ask(probe)["blocked"] is False
        answer = client.ask(
            protocol.reload_request(["||flashnews-tracker.example^"], [])
        )
        assert answer["ok"] is True
        assert answer["epoch"] == 1
        assert client.ask(probe)["blocked"] is True
        assert client.ask({"op": "health"})["epoch"] == 1

    def test_shutdown_stops_the_daemon(self, daemon):
        with protocol.ServeClient(daemon.host, daemon.port) as c:
            answer = c.ask({"op": "shutdown"})
        assert answer["ok"] is True
        assert daemon.wait(10.0)

    def test_serve_section_validates_in_a_manifest(self, daemon, client, tmp_path):
        from repro.obs.manifest import RunManifest

        client.ask(protocol.url_query("https://example.com/z.js"))
        manifest = RunManifest(tmp_path / "run.json")
        data = manifest.finalize(
            seed=0, extra={"serve": daemon.serve_section()}
        )
        assert validate_manifest(data) == []
        assert data["serve"]["queries"] >= 1


class TestPooledDaemon:
    def test_pooled_burst_answers_promptly(self, serve_state):
        """End-to-end pooled path (REPRO_SERVE_WORKERS>=2 equivalent).

        A burst whose final batch is pending in a pool worker must be
        answered as soon as the worker finishes — pre-fix the collector
        only delivered it on the next batch, so the lone synchronous
        client stalled into the daemon's 60s dispatch timeout.
        """
        import time

        engine = build_engine(serve_state, workers=2)
        if engine.pool is None:
            pytest.skip("fork start method unavailable")
        daemon = ServeDaemon(engine, port=0)
        daemon.start()
        try:
            queries = generate_queries(41, 24)
            with protocol.ServeClient(daemon.host, daemon.port, timeout=30.0) as c:
                t0 = time.monotonic()
                response = c.ask(protocol.batch_query(queries))
                single = c.ask(protocol.url_query("https://example.com/app.js"))
                elapsed = time.monotonic() - t0
        finally:
            daemon.stop()
        assert response["ok"] is True
        assert len(response["answers"]) == 24
        assert all(a["ok"] for a in response["answers"])
        assert single["ok"] is True
        assert get_metrics().counter("serve.pool_batches") >= 1
        assert elapsed < 20.0


class TestReloadUnderLoad:
    def test_no_query_dropped_across_swaps(self, daemon):
        """Queries hammer the daemon while reloads swap epochs under them."""
        errors = []
        stop = threading.Event()

        def querier(seed):
            queries = generate_queries(seed, 40)
            with protocol.ServeClient(daemon.host, daemon.port, timeout=30.0) as c:
                index = 0
                while not stop.is_set() or index < 40:
                    if index >= 40:
                        break
                    answer = c.ask(queries[index])
                    if not answer.get("ok"):
                        errors.append(answer)
                    index += 1

        threads = [
            threading.Thread(target=querier, args=(seed,), daemon=True)
            for seed in (31, 32, 33)
        ]
        for thread in threads:
            thread.start()
        with protocol.ServeClient(daemon.host, daemon.port, timeout=30.0) as c:
            for round_no in range(3):
                answer = c.ask(
                    protocol.reload_request([f"||wave{round_no}.example^"], [])
                )
                assert answer["ok"] is True
        stop.set()
        for thread in threads:
            thread.join(30.0)

        assert errors == []
        metrics = get_metrics()
        assert metrics.counter("serve.dropped") == 0
        assert metrics.counter("serve.reloads") == 3
        assert daemon.engine.chain.current.index == 3
        assert daemon.engine.chain.retired == 3


class TestSatelliteFixes:
    def test_error_frame_arrives_without_a_follow_up(self, daemon):
        """A bad line's error frame must be flushed immediately — a client
        that stops pipelining after garbage cannot wait for the *next*
        response to push the buffered error out."""
        import socket as socket_module

        sock = socket_module.create_connection(
            (daemon.host, daemon.port), timeout=5.0
        )
        try:
            sock.sendall(b"this is not json\n")
            reader = sock.makefile("rb")
            line = reader.readline()  # raises timeout if unflushed
            assert b'"ok":false' in line.replace(b" ", b"")
        finally:
            sock.close()

    def test_health_reports_stopping_after_stop(self, serve_state):
        instance = ServeDaemon(build_engine(serve_state, workers=0), port=0)
        instance.start()
        assert instance.health()["status"] == "ok"
        instance.stop()
        assert instance.health()["status"] == "stopping"

    def test_health_and_serve_section_share_the_counter_quartet(self, daemon):
        from repro.serve.daemon import SERVE_COUNTERS

        health = daemon.health()
        section = daemon.serve_section()
        for name in SERVE_COUNTERS:
            assert health[name] == section[name]


def _pipeline(daemon, payload: bytes, replies: int, half_close: bool = False):
    """Write ``payload`` in one ``sendall`` and read ``replies`` raw frames."""
    with socket.create_connection((daemon.host, daemon.port), timeout=30.0) as sock:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reader = sock.makefile("rb")
        frames = [reader.readline() for _ in range(replies)]
        if half_close:
            assert reader.readline() == b""  # nothing more, then EOF
    assert all(frame.endswith(b"\n") for frame in frames)
    return frames


def _lines(messages) -> bytes:
    return b"".join(protocol.encode(message) for message in messages)


PROBE = protocol.url_query(
    "https://flashnews-tracker.example/ad.js", resource_type="script"
)


class TestPipelinedConnection:
    def test_burst_in_one_send_is_answered_in_order_in_shared_batches(self, daemon):
        # Blocked by the served "/adblock-wall." rule, except on the
        # techbuzzshow.de host its exception rule names.
        hosts = ("cdn.example", "techbuzzshow.de")
        paths = ("adblock-wall.js", "app.js")
        queries = [
            protocol.url_query(
                f"https://{hosts[n // 2 % 2]}/js/{paths[n % 2]}?n={n}",
                resource_type="script",
            )
            for n in range(200)
        ]
        with protocol.ServeClient(daemon.host, daemon.port) as client:
            alone = [client.ask(query) for query in queries]
        assert {answer["blocked"] for answer in alone} == {True, False}
        batches = get_metrics().counter("serve.batches")
        frames = _pipeline(daemon, _lines(queries), len(queries))
        assert frames == [protocol.encode(answer) for answer in alone]
        # A front end that reads one line at a time makes one batch per query.
        assert get_metrics().counter("serve.batches") - batches < len(queries)

    def test_reload_line_is_a_barrier(self, daemon):
        payload = _lines([
            PROBE, PROBE,
            protocol.reload_request(["||flashnews-tracker.example^"], []),
            PROBE, PROBE,
        ])
        frames = [json.loads(frame) for frame in _pipeline(daemon, payload, 5)]
        assert [frame.get("blocked") for frame in frames] == [False, False, None, True, True]
        assert frames[2]["op"] == "reload" and frames[2]["epoch"] == 1

    def test_bad_line_gets_its_error_in_its_own_slot(self, daemon):
        queries = generate_queries(62, 4, mix=(1.0, 0.0, 0.0))
        payload = _lines(queries[:2]) + b"this is not json\n" + _lines(queries[2:])
        frames = [json.loads(frame) for frame in _pipeline(daemon, payload, 5)]
        assert [frame["ok"] for frame in frames] == [True, True, False, True, True]
        assert get_metrics().counter("serve.errors") == 1

    def test_last_line_without_newline_is_answered_at_half_close(self, daemon):
        payload = _lines([PROBE]) + protocol.encode({"op": "health"}).rstrip(b"\n")
        frames = [json.loads(frame) for frame in _pipeline(daemon, payload, 2, half_close=True)]
        assert frames[0]["op"] == "url" and frames[1]["op"] == "health"

    def test_accepted_sockets_disable_nagle(self, daemon, nodelay_seen):
        extra = daemon.add_listener()
        for address in ((daemon.host, daemon.port), extra):
            with protocol.ServeClient(*address) as client:
                assert client.ask({"op": "health"})["ok"] is True
        assert len(nodelay_seen) == 2 and all(nodelay_seen)

    def test_oversize_line_gets_one_frame_then_eof(self, daemon):
        with socket.create_connection((daemon.host, daemon.port), timeout=30.0) as sock:
            # No newline: refused as soon as the line passes the limit.
            sock.sendall(b"x" * (MAX_FRAME_BYTES + 1))
            reader = sock.makefile("rb")
            frame = json.loads(reader.readline())
            assert reader.readline() == b""
        assert frame["ok"] is False and str(MAX_FRAME_BYTES) in frame["error"]
        assert get_metrics().counter("serve.errors") == 1
        with protocol.ServeClient(daemon.host, daemon.port) as client:
            assert client.ask(PROBE)["ok"] is True

    def test_deep_script_in_a_burst_costs_only_its_own_answer(self, daemon, serve_state):
        deep = "var x = " + "[" * 20_000 + "1" + "]" * 20_000 + ";"
        burst = [
            PROBE,
            protocol.script_query("var benign = 1;"),
            protocol.script_query(deep),
            protocol.script_query("var alsoBenign = 2;"),
            PROBE,
        ]
        parse_errors = get_metrics().counter("features.parse_errors")
        frames = _pipeline(daemon, _lines(burst), 5)
        assert [json.loads(frame)["ok"] for frame in frames] == [True] * 5
        # Too deep to parse: answered like any unparseable script.
        offline = serve_state.build_chain().current.online
        assert frames[2] == protocol.encode(answer_query(offline, burst[2]))
        assert get_metrics().counter("features.parse_errors") == parse_errors + 1
        assert get_metrics().counter("serve.internal_errors") == 0
        with protocol.ServeClient(daemon.host, daemon.port) as client:
            assert client.ask(protocol.script_query("var later = 3;"))["ok"] is True
