"""Open-loop load generator: Poisson arrivals, pipelined, timed from the due time.

One process and one thread drive every connection through a ``select``
loop (its timeout has microsecond resolution, unlike epoll's
milliseconds). Each query is written when it is due, whether or not
earlier replies have arrived; its latency runs from the due time to the
arrival of its reply, so a stall is charged to every query scheduled
behind it. How late the generator itself wrote each query is kept too.

Replies arrive in request order per connection (the daemon's line
protocol), which is how they are matched to queries.
"""

from __future__ import annotations

import math
import random
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .common import beyond, median, percentile

#: A p99 counts only with at least this many samples beyond it.
MIN_BEYOND = 10
#: A step "keeps up" when it answered at this share of the offered rate...
KEEP_UP = 0.95
#: ...and its last third's median latency exceeds its first third's by at most this.
RISE_MS = 10.0
#: A reply later than this after its due time counts as a timeout.
TIMEOUT_MS = 5000.0


@dataclass
class Item:
    """One scheduled request: when it is due, on which connection, what bytes."""

    due: float
    conn: int
    payload: bytes
    kind: str = "query"
    sent: float = math.nan
    done: float = math.nan
    reply: Optional[bytes] = None

    @property
    def answered(self) -> bool:
        return self.reply is not None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


class Connections:
    """``count`` pipelined client connections to one daemon, on one clock.

    The write/read buffers and the per-connection queues of unanswered
    items persist across calls, so a reply that arrives after its step
    ended is still matched to its own item, never to a later one.
    """

    def __init__(self, host: str, port: int, count: int) -> None:
        self.socks: List[socket.socket] = []
        for _ in range(count):
            sock = socket.create_connection((host, port), timeout=10.0)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            self.socks.append(sock)
        self.selector = selectors.SelectSelector()
        self.out = [bytearray() for _ in range(count)]
        self.inb = [bytearray() for _ in range(count)]
        self.waiting: List[deque] = [deque() for _ in range(count)]
        self.closed = [False] * count
        for index, sock in enumerate(self.socks):
            self.selector.register(sock, selectors.EVENT_READ, index)
        self.t0 = time.perf_counter()

    def __len__(self) -> int:
        return len(self.socks)

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def queue(self, item: Item) -> None:
        item.sent = self.now()
        self.out[item.conn] += item.payload
        self.waiting[item.conn].append(item)

    def flush(self) -> None:
        for index, buffer in enumerate(self.out):
            if buffer and not self.closed[index]:
                try:
                    sent = self.socks[index].send(buffer)
                except BlockingIOError:
                    continue
                except OSError:
                    self._drop(index)
                    continue
                del buffer[:sent]

    def outstanding(self) -> int:
        return sum(len(waiting) for waiting in self.waiting)

    def poll(self, timeout: float) -> List[Item]:
        """Wait up to ``timeout`` s for replies; returns the items answered."""
        writers = [i for i, buffer in enumerate(self.out) if buffer and not self.closed[i]]
        for index in writers:
            self.selector.modify(self.socks[index], selectors.EVENT_READ | selectors.EVENT_WRITE, index)
        finished: List[Item] = []
        for key, mask in self.selector.select(max(0.0, timeout)):
            index = key.data
            if mask & selectors.EVENT_WRITE:
                self.flush()
            if mask & selectors.EVENT_READ:
                finished.extend(self._read(index))
        for index in writers:
            if not self.closed[index]:
                self.selector.modify(self.socks[index], selectors.EVENT_READ, index)
        return finished

    def _read(self, index: int) -> List[Item]:
        try:
            data = self.socks[index].recv(1 << 16)
        except BlockingIOError:
            return []
        except OSError:
            data = b""
        if not data:
            self._drop(index)
            return []
        at = self.now()
        buffer = self.inb[index]
        buffer += data
        finished = []
        while True:
            cut = buffer.find(b"\n")
            if cut < 0:
                return finished
            line = bytes(buffer[:cut])
            del buffer[: cut + 1]
            if self.waiting[index]:
                item = self.waiting[index].popleft()
                item.done = at
                item.reply = line
                finished.append(item)

    def _drop(self, index: int) -> None:
        """A connection the daemon closed: its unanswered items stay unanswered."""
        if not self.closed[index]:
            self.closed[index] = True
            self.selector.unregister(self.socks[index])
            self.waiting[index].clear()

    def close(self) -> None:
        self.selector.close()
        for sock in self.socks:
            sock.close()
        self.socks = []


def run_open(conns: Connections, items: Sequence[Item], grace: float = 5.0,
             lead: float = 0.02) -> None:
    """Send each item when due; ``due`` counts seconds from this call.

    Due times are shifted onto the connections' clock (plus ``lead``, so
    the first write is not late by the loop's own start). Fills in
    ``due``/``sent``/``done``/``reply`` in place; an item still
    unanswered ``grace`` seconds after the last due time keeps
    ``reply=None`` and counts as failed.
    """
    order = sorted(items, key=lambda item: item.due)
    base = conns.now() + lead
    for item in order:
        item.due += base
    last_due = order[-1].due if order else base
    nxt = 0
    while True:
        now = conns.now()
        while nxt < len(order) and order[nxt].due <= now:
            conns.queue(order[nxt])
            nxt += 1
        conns.flush()
        if nxt == len(order) and (not conns.outstanding() or now > last_due + grace):
            return
        wait = order[nxt].due - conns.now() if nxt < len(order) else 0.05
        conns.poll(min(wait, 0.05))


def run_closed(conns: Connections, items: Sequence[Item], window: int,
               timeout: float = 30.0) -> float:
    """Keep ``window`` items outstanding per connection until all are answered.

    Each item's ``due`` becomes its write time. Returns the makespan:
    first write to last reply, in seconds.
    """
    backlog = [deque(item for item in items if item.conn == index) for index in range(len(conns))]
    inflight = [0] * len(conns)
    started = last = conns.now()
    while True:
        for index, queue in enumerate(backlog):
            while queue and inflight[index] < window and not conns.closed[index]:
                item = queue.popleft()
                item.due = conns.now()
                conns.queue(item)
                inflight[index] += 1
        conns.flush()
        live = [i for i in range(len(conns)) if not conns.closed[i]]
        if not any(backlog[i] for i in live) and not conns.outstanding():
            return last - started
        if conns.now() - started > timeout:
            return last - started
        for item in conns.poll(0.05):
            inflight[item.conn] -= 1
            last = max(last, item.done)


def poisson_dues(rng: random.Random, rate: float, count: int, start: float = 0.0) -> List[float]:
    """``count`` arrival times of a Poisson process at ``rate`` per second."""
    dues = []
    at = start
    for _ in range(count):
        at += rng.expovariate(rate)
        dues.append(at)
    return dues


# -- per-step statistics and the capacity search ------------------------------------


@dataclass
class StepStats:
    """What one ladder step measured."""

    nominal_qps: float
    offered_qps: float
    sent: int
    answered: int
    failed: int
    p50_ms: float
    p99_ms: float
    p99_beyond: int
    late_p99_ms: float
    achieved_qps: float
    rise_ms: float
    limit_ms: float
    min_beyond: int = MIN_BEYOND

    @property
    def p99_valid(self) -> bool:
        return self.p99_beyond >= self.min_beyond

    @property
    def keeps_up(self) -> bool:
        return self.achieved_qps >= KEEP_UP * self.offered_qps and self.rise_ms <= RISE_MS

    @property
    def passed(self) -> bool:
        return (
            self.p99_valid
            and self.p99_ms <= self.limit_ms
            and self.failed == 0
            and self.keeps_up
        )

    def as_dict(self) -> dict:
        data = dict(self.__dict__)
        data.update(p99_valid=self.p99_valid, keeps_up=self.keeps_up, passed=self.passed)
        return data


def is_error(reply: Optional[bytes]) -> bool:
    """No reply, or a reply that is not an ok frame."""
    return reply is None or b'"ok":true' not in reply


def step_stats(nominal_qps: float, items: Sequence[Item], limit_ms: float,
               timeout_ms: float = TIMEOUT_MS, min_beyond: int = MIN_BEYOND) -> StepStats:
    """Latency, failures, lateness and backlog growth of one step's queries.

    A query fails when it is unanswered, answered with an error frame, or
    answered later than ``timeout_ms`` after it was due.
    """
    queries = sorted((item for item in items if item.kind == "query"), key=lambda i: i.due)
    ok = [item for item in queries if not is_error(item.reply) and item.latency_ms <= timeout_ms]
    latencies = [item.latency_ms for item in ok]
    span = max(item.done for item in ok) - queries[0].due if ok else 0.0
    if len(queries) > 1:
        offered = (len(queries) - 1) / max(queries[-1].due - queries[0].due, 1e-9)
    else:
        offered = nominal_qps
    third = max(1, len(queries) // 3)
    head = [item.latency_ms for item in queries[:third] if item.answered]
    tail = [item.latency_ms for item in queries[-third:] if item.answered]
    return StepStats(
        nominal_qps=nominal_qps,
        offered_qps=offered,
        sent=len(queries),
        answered=sum(1 for item in queries if item.answered),
        failed=len(queries) - len(ok),
        p50_ms=percentile(latencies, 50),
        p99_ms=percentile(latencies, 99),
        p99_beyond=beyond(latencies, 99),
        late_p99_ms=percentile([item.late_ms for item in queries], 99),
        achieved_qps=len(ok) / span if span > 0 else 0.0,
        rise_ms=median(tail) - median(head) if head and tail else math.inf,
        limit_ms=limit_ms,
        min_beyond=min_beyond,
    )


def capacity(steps: Sequence[StepStats]) -> float:
    """The highest nominal rate that passes with every lower step passing too (0 if none)."""
    best = 0.0
    for step in steps:
        if not step.passed:
            break
        best = step.nominal_qps
    return best


def run_ladder(conns: Connections, rates: Sequence[float], counts: Sequence[int],
               make_items: Callable[[float, int], List[Item]], limit_ms: float,
               always: int, gap: float = 0.1, min_beyond: int = MIN_BEYOND):
    """Step through ``rates``; stops after the first failing step past ``always``.

    ``make_items(rate, count)`` returns the step's schedule. Returns
    ``[(rate, StepStats, items)]`` for every step run.
    """
    results = []
    for index, (rate, count) in enumerate(zip(rates, counts)):
        items = make_items(rate, count)
        run_open(conns, items)
        stats = step_stats(rate, items, limit_ms, min_beyond=min_beyond)
        results.append((rate, stats, items))
        if index + 1 >= always and not stats.passed:
            break
        time.sleep(gap)
    return results
