"""The open-loop generator against fake servers with known behaviour."""

import random
import socketserver
import threading
import time

import pytest

from perfbench import loadgen


class _FakeServer(socketserver.ThreadingTCPServer):
    """Answers every line with an ok frame after ``service_s``, serially per
    connection; the ``stall_at``-th line of the run waits ``stall_s`` first."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, service_s=0.0, stall_at=None, stall_s=0.0):
        self.service_s = service_s
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.seen = 0
        self.lock = threading.Lock()
        super().__init__(("127.0.0.1", 0), _Handler)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        server = self.server
        for _ in self.rfile:
            with server.lock:
                server.seen += 1
                index = server.seen
            if index == server.stall_at:
                time.sleep(server.stall_s)
            if server.service_s:
                time.sleep(server.service_s)
            self.wfile.write(b'{"ok":true}\n')
            self.wfile.flush()


@pytest.fixture
def serve():
    servers = []

    def start(**kwargs):
        server = _FakeServer(**kwargs)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server.server_address

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _schedule(rate, count, seed=1):
    dues = loadgen.poisson_dues(random.Random(seed), rate, count)
    return [loadgen.Item(due=due, conn=0, payload=b'{"op":"health"}\n') for due in dues]


def test_a_stall_is_charged_to_every_query_scheduled_behind_it(serve):
    host, port = serve(stall_at=100, stall_s=0.3)
    conns = loadgen.Connections(host, port, 1)
    try:
        items = _schedule(200.0, 300)
        loadgen.run_open(conns, items)
    finally:
        conns.close()
    assert all(item.answered for item in items)
    stalled = items[99]
    behind = [item for item in items[100:] if item.due < stalled.done]
    # About 0.3 s x 200/s queries were due while the server stalled; each
    # waited from its own due time until the stall ended.
    assert len(behind) >= 30
    for item in behind:
        assert item.latency_ms >= (stalled.done - item.due) * 1000.0 - 1.0
    assert sum(1 for item in items if item.latency_ms > 100.0) >= 20
    # The generator kept writing on schedule through the stall (open loop).
    assert max(item.late_ms for item in behind) < 20.0
    stats = loadgen.step_stats(200.0, items, limit_ms=50.0, min_beyond=1)
    assert stats.p99_ms > 100.0
    assert not stats.passed


def test_capacity_search_returns_the_last_step_the_server_keeps_up_with(serve):
    # 4 ms of service per query, one connection: the server saturates at
    # 250 queries/s, so 100/s passes and 400/s builds a backlog.
    host, port = serve(service_s=0.004)
    conns = loadgen.Connections(host, port, 1)
    try:
        seeds = iter(range(100))

        def make_items(rate, count):
            return _schedule(rate, count, seed=next(seeds))

        results = loadgen.run_ladder(
            conns, [50.0, 100.0, 400.0, 800.0], [120, 150, 150, 150], make_items,
            limit_ms=50.0, always=1, gap=0.05, min_beyond=1,
        )
    finally:
        conns.close()
    steps = [stats for _, stats, _ in results]
    assert [step.passed for step in steps] == [True, True, False]  # stops at the first failure
    assert not steps[2].keeps_up
    assert loadgen.capacity(steps) == 100.0


def test_a_p99_with_too_few_samples_beyond_it_does_not_count():
    items = _schedule(100.0, 50)
    for item in items:
        item.sent = item.due
        item.done = item.due + 0.002
        item.reply = b'{"ok":true}'
    stats = loadgen.step_stats(100.0, items, limit_ms=50.0)
    assert stats.p99_beyond < loadgen.MIN_BEYOND
    assert not stats.p99_valid and not stats.passed
    assert loadgen.capacity([stats]) == 0.0


def test_error_frames_and_missing_replies_fail():
    items = _schedule(100.0, 4)
    for item in items:
        item.sent = item.due
        item.done = item.due + 0.001
        item.reply = b'{"ok":true}'
    items[1].reply = b'{"error":"boom","ok":false}'
    items[2].reply = None
    stats = loadgen.step_stats(100.0, items, limit_ms=50.0, min_beyond=0)
    assert stats.failed == 2
