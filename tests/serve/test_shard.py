"""The shard supervisor end to end: one port, N processes, merged control."""

import json
import os
import signal
import socket
import time

import pytest

from repro.serve import protocol
from repro.serve.batcher import answer_query
from repro.serve.loadgen import generate_queries, run_network
from repro.serve.shard import ShardSupervisor, reuse_port_available
from repro.serve.snapshot import write_snapshot


@pytest.fixture(scope="module")
def snapshot_path(serve_state, tmp_path_factory):
    path = tmp_path_factory.mktemp("shard") / "serve-snapshot.rdpk"
    write_snapshot(path, serve_state)
    return path


def _control(supervisor):
    return protocol.ServeClient("127.0.0.1", supervisor.control_port, timeout=30.0)


def _wait_for(predicate, timeout=30.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestShardedServing:
    def test_lifecycle(self, snapshot_path, serve_state, nodelay_seen):
        """Boot 2 shards, query, merge, reload, kill, respawn, shut down.

        One flow instead of many small tests because every boot forks
        full daemon processes — the sequence also pins the ordering
        guarantees (a respawned shard replays the delta history).
        """
        supervisor = ShardSupervisor(snapshot_path, shards=2, port=0)
        try:
            host, port = supervisor.start()
            queries = generate_queries(11, 24)

            # -- queries on the shared port are byte-identical to offline --
            offline = serve_state.build_chain().current.online
            with protocol.ServeClient(host, port, timeout=30.0) as client:
                for query in queries[:12]:
                    expected = protocol.encode(answer_query(offline, query))
                    answer = client.ask(query)
                    answer.pop("shard", None)
                    assert protocol.encode(answer) == expected
                shard = client.ask({"op": "health"})["shard"]
                assert shard in (0, 1)

            # -- merged health on the control port ------------------------
            with _control(supervisor) as control:
                health = control.ask({"op": "health"})
            assert health["ok"] is True
            assert health["status"] == "ok"
            assert health["shards"] == 2
            assert health["shard_epochs"] == [0, 0]
            assert health["restarts"] == 0
            assert health["queries"] >= 12
            assert health["rules"] > 0

            # -- merged metrics with per-shard breakdown ------------------
            with _control(supervisor) as control:
                metrics = control.ask({"op": "metrics"})["metrics"]
            assert metrics["counters"]["serve.queries"] >= 12
            breakdown = [
                name
                for name in metrics["counters"]
                if name.startswith("serve.shard.")
            ]
            assert breakdown
            per_shard = sum(
                value
                for name, value in metrics["counters"].items()
                if name.startswith("serve.shard.") and name.endswith(".queries")
            )
            assert per_shard == metrics["counters"]["serve.queries"]
            assert "serve.latency_ns" in metrics["histograms"]

            # -- broadcast reload lands the same epoch everywhere ---------
            probe = protocol.url_query(
                "https://flashnews-tracker.example/ad.js", resource_type="script"
            )
            with _control(supervisor) as control:
                reloaded = control.ask(
                    protocol.reload_request(["||flashnews-tracker.example^"], [])
                )
            assert reloaded["ok"] is True
            assert reloaded["epoch"] == 1
            assert reloaded["drained"] is True
            assert [entry["epoch"] for entry in reloaded["shards"]] == [1, 1]
            assert all(entry["drained"] for entry in reloaded["shards"])
            # Every shard now blocks the probe (one connection per ask, so
            # the kernel spreads them across shards).
            for _ in range(6):
                with protocol.ServeClient(host, port, timeout=30.0) as client:
                    assert client.ask(probe)["blocked"] is True

            # -- the control port answers pipelined lines in order and
            # -- redirects each query with a frame of its own ------------
            url = protocol.url_query("https://x.example/a.js")
            lines = [url, {"op": "health"}, url, protocol.batch_query([url]), {"op": "metrics"}]
            with socket.create_connection(
                ("127.0.0.1", supervisor.control_port), timeout=30.0
            ) as sock:
                sock.sendall(b"".join(protocol.encode(line) for line in lines))
                reader = sock.makefile("rb")
                frames = [json.loads(reader.readline()) for _ in lines]
            assert [f["op"] for f in frames] == ["url", "health", "url", "batch", "metrics"]
            assert [f["ok"] for f in frames] == [False, True, False, False, True]
            assert str(port) in frames[0]["error"]
            assert nodelay_seen and all(nodelay_seen)  # the control port's sockets

            # -- a killed shard is respawned at the reloaded epoch --------
            victim = supervisor.shard_pids()[0]
            os.kill(victim, signal.SIGKILL)

            def respawned():
                with _control(supervisor) as control:
                    health = control.ask({"op": "health"})
                return (
                    health["restarts"] >= 1
                    and health["status"] == "ok"
                    and health["shard_epochs"] == [1, 1]
                )

            assert _wait_for(respawned, timeout=60.0)
            assert supervisor.shard_pids()[0] != victim
            # The respawn replayed the recorded delta: any shard the
            # kernel picks still blocks the reloaded rule.
            for _ in range(4):
                with protocol.ServeClient(host, port, timeout=30.0) as client:
                    assert client.ask(probe)["blocked"] is True

            # -- loadgen spreads connections across the shards ------------
            summary = run_network(
                host, port, queries, concurrency=2, batch_size=8, shards=2
            )
            assert summary["errors"] == 0
            assert summary["unanswered"] == 0
            assert summary["concurrency"] % 2 == 0
            assert summary["shards_hit"] >= 1

            # -- manifest section ----------------------------------------
            section = supervisor.serve_section()
            assert section["shards"] == 2
            assert section["shard_restarts"] >= 1
            assert section["queries"] >= 12

            # -- shutdown over the control port ---------------------------
            with _control(supervisor) as control:
                stopping = control.ask({"op": "shutdown"})
            assert stopping["ok"] is True
            assert supervisor.wait(30.0)
        finally:
            supervisor.stop()

    def test_single_shard_supervisor(self, snapshot_path):
        supervisor = ShardSupervisor(snapshot_path, shards=1, port=0)
        try:
            host, port = supervisor.start()
            with protocol.ServeClient(host, port, timeout=30.0) as client:
                answer = client.ask(protocol.url_query("https://example.com/a.js"))
                health = client.ask({"op": "health"})
            assert answer["ok"] is True
            assert health["shard"] == 0
        finally:
            supervisor.stop()

    def test_prefork_fallback_listener(self, snapshot_path):
        """Without SO_REUSEPORT the shards accept on one inherited socket."""
        supervisor = ShardSupervisor(
            snapshot_path, shards=2, port=0, reuse_port=False
        )
        try:
            host, port = supervisor.start()
            assert supervisor.reuse_port is False
            shards_seen = set()
            for _ in range(6):
                with protocol.ServeClient(host, port, timeout=30.0) as client:
                    answer = client.ask(protocol.url_query("https://example.com/b.js"))
                    assert answer["ok"] is True
                    shards_seen.add(client.ask({"op": "health"})["shard"])
            assert shards_seen  # at least one shard answered every time
        finally:
            supervisor.stop()

    def test_reuse_port_detection_matches_platform(self):
        import socket

        assert reuse_port_available() == hasattr(socket, "SO_REUSEPORT")

    def test_rejects_zero_shards(self, snapshot_path):
        with pytest.raises(ValueError):
            ShardSupervisor(snapshot_path, shards=0)
