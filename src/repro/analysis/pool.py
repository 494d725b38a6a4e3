"""Fork-first process-pool plumbing shared by the parallel engines.

The §4 replay (``analysis.coverage``), the §3 history folds
(``analysis.histfold``), the §4.3 live crawl (``analysis.livecrawl``),
and the §5 feature-extraction engine (``core.featstore``) all shard an
ordered workload across a ``ProcessPoolExecutor`` and merge the shard
results deterministically. This module owns the pieces they share:

- :func:`split_shards` — split ordered groups into contiguous,
  size-balanced shards whose concatenation preserves the serial
  iteration order (the precondition for byte-identical merges);
- :func:`map_shards` — one pool per call, preferring the ``fork`` start
  method. On fork platforms the shards (and any shared state) are
  published as module globals *before* the pool is created, so workers
  inherit them for free and tasks carry only a shard index; elsewhere
  the executor initializer seeds each worker once and tasks carry the
  pickled shards.
- :class:`PersistentPool` — the ``REPRO_POOL_PERSIST`` mode: one
  long-lived fork pool per process, shared by every fan-out. Shared
  state (the world, the filter-list histories, the crawl) is *published*
  into the pool before its one fork; afterwards tasks carry only small
  payloads — index ranges, artifact paths — never pickled records, and
  workers keep derived state (analyzers, matcher caches, mmap
  attachments) warm across fan-outs. Callers guard with
  :meth:`PersistentPool.matches` and fall back to :func:`map_shards`
  when the published state is not the state they need.

Workers build their per-process state exactly once (an analyzer over the
filter-list histories for the replay; nothing for feature extraction),
then run ``task(worker_state, shard, *extra)`` per shard.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def fork_context():
    """The ``fork`` multiprocessing context, or ``None`` if unsupported."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return None


def split_shards(groups: Sequence[list], shard_count: int) -> List[list]:
    """Split ordered groups into ≤ ``shard_count`` contiguous, size-balanced
    shards (flattened). Contiguity keeps the merged insertion order equal
    to the serial iteration order.

    The target size adapts to what remains unassigned, and a shard closes
    *before* absorbing a group that would overshoot the adaptive target
    by more than the shard currently undershoots it — so one large final
    group lands in its own shard instead of bloating the last one.
    """
    total = sum(len(group) for group in groups)
    if total == 0 or shard_count <= 1:
        return [[item for group in groups for item in group]] if total else []
    shards: List[list] = []
    current: list = []
    remaining = total
    for group in groups:
        shards_left = shard_count - len(shards)
        if current and shards_left > 1:
            target = remaining / shards_left
            overshoot = len(current) + len(group) - target
            undershoot = target - len(current)
            if overshoot > undershoot:
                shards.append(current)
                remaining -= len(current)
                current = []
        current.extend(group)
    if current:
        shards.append(current)
    return shards


# -- worker-process state --------------------------------------------------------

#: Published by the parent before forking: the task callable, the shared
#: state, the worker-state factory, and the shard list.
_FORK_TASK: Optional[Callable] = None
_FORK_STATE: Any = None
_FORK_MAKE: Optional[Callable] = None
_FORK_SHARDS: Optional[List[list]] = None

#: Built once per worker process (by either initializer).
_WORKER_STATE: Any = None


def _init_fork_worker() -> None:
    global _WORKER_STATE
    _WORKER_STATE = _FORK_MAKE(_FORK_STATE) if _FORK_MAKE is not None else _FORK_STATE


def _run_fork_shard(index: int, *extra):
    return _FORK_TASK(_WORKER_STATE, _FORK_SHARDS[index], *extra)


def _init_pickle_worker(task, make, state) -> None:
    global _FORK_TASK, _WORKER_STATE
    _FORK_TASK = task
    _WORKER_STATE = make(state) if make is not None else state


def _run_pickle_shard(shard, *extra):
    return _FORK_TASK(_WORKER_STATE, shard, *extra)


def map_shards(
    shards: List[list],
    task: Callable,
    state: Any = None,
    make_worker_state: Optional[Callable] = None,
    extra: tuple = (),
) -> List[Any]:
    """Run ``task(worker_state, shard, *extra)`` for each shard in a pool.

    ``task`` and ``make_worker_state`` must be module-level (picklable)
    callables. ``make_worker_state(state)`` runs once per worker process;
    when omitted, workers see ``state`` itself. Results come back in
    shard order, so a contiguous sharding merges deterministically.
    """
    global _FORK_TASK, _FORK_STATE, _FORK_MAKE, _FORK_SHARDS
    count = len(shards)
    repeated = [[value] * count for value in extra]
    context = fork_context()
    if context is not None:
        _FORK_TASK, _FORK_STATE = task, state
        _FORK_MAKE, _FORK_SHARDS = make_worker_state, shards
        try:
            with ProcessPoolExecutor(
                max_workers=count,
                mp_context=context,
                initializer=_init_fork_worker,
            ) as pool:
                return list(pool.map(_run_fork_shard, range(count), *repeated))
        finally:
            _FORK_TASK = _FORK_STATE = _FORK_MAKE = _FORK_SHARDS = None
    with ProcessPoolExecutor(  # pragma: no cover - non-fork platforms
        max_workers=count,
        initializer=_init_pickle_worker,
        initargs=(task, make_worker_state, state),
    ) as pool:
        return list(pool.map(_run_pickle_shard, shards, *repeated))


# -- the persistent pool ---------------------------------------------------------

#: The state dict a :class:`PersistentPool` published before its fork;
#: workers read it (and everything it references) through fork memory.
_POOL_PUBLISHED: Optional[Dict[str, Any]] = None

#: Per-worker cache of derived state, keyed by ``(key, make)`` so each
#: fan-out family (replay analyzer, live crawler, …) builds its expensive
#: state once per worker and keeps it warm across fan-outs.
_POOL_STATE_CACHE: Dict[Tuple, Any] = {}


def _persistent_worker_state(key: Optional[str], make: Optional[Callable]):
    token = (key, make)
    if token not in _POOL_STATE_CACHE:
        published = _POOL_PUBLISHED or {}
        base = published if key is None else published.get(key)
        _POOL_STATE_CACHE[token] = base if make is None else make(base)
    return _POOL_STATE_CACHE[token]


def _dataplane_counters() -> Dict[str, int]:
    from ..obs.metrics import get_metrics

    counters = get_metrics().as_dict()["counters"]
    return {name: value for name, value in counters.items() if name.startswith("dataplane.")}


def _run_persistent_task(task, key, make, payload, extra):
    """Worker body: run one task, reporting ``dataplane.*`` counter deltas.

    Workers die with their own metrics registries, and persistent-pool
    tasks are exactly the ones that mmap artifacts worker-side — so every
    task ships its data-plane accounting delta home for the parent to
    absorb.
    """
    state = _persistent_worker_state(key, make)
    before = _dataplane_counters()
    result = task(state, payload, *extra)
    after = _dataplane_counters()
    delta = {
        name: after[name] - before.get(name, 0)
        for name in after
        if after[name] != before.get(name, 0)
    }
    return result, delta


class PersistentPool:
    """One long-lived fork pool reused by every fan-out in a process.

    Lifecycle: ``publish()`` shared state while cold, then the first
    :meth:`run` forks the workers exactly once; from then on the published
    dict is frozen (publishing a changed value raises) and tasks carry
    only payloads. ``matches()`` is the caller's identity guard: engines
    take the persistent path only when the pool's published state *is*
    the state their fan-out needs, and fall back to :func:`map_shards`
    otherwise — so a mismatched pool can cost speed, never correctness.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(int(workers), 1)
        self.state: Dict[str, Any] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        #: fan-outs served since the fork (observability / tests).
        self.runs = 0

    # -- published state -----------------------------------------------------

    @property
    def forked(self) -> bool:
        """Whether the one fork already happened (state is frozen)."""
        return self._executor is not None

    def publish(self, key: str, value: Any) -> bool:
        """Make ``value`` reachable to workers under ``key``.

        Before the fork any value is accepted (last write wins). After
        the fork the state is frozen: re-publishing the identical object
        is a no-op, anything else returns ``False`` and the caller
        should fall back to a fork-per-run pool.
        """
        if self.forked:
            return key in self.state and self.state[key] is value
        self.state[key] = value
        return True

    def matches(self, key: str, value: Any) -> bool:
        """Whether the published ``key`` *is* (identity) ``value``."""
        return key in self.state and self.state[key] is value

    # -- running -------------------------------------------------------------

    def _ensure_executor(self) -> Optional[ProcessPoolExecutor]:
        global _POOL_PUBLISHED
        if self._executor is None:
            context = fork_context()
            if context is None:  # pragma: no cover - non-fork platforms
                return None
            _POOL_PUBLISHED = self.state
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._executor

    def run(
        self,
        task: Callable,
        payloads: Sequence[Any],
        key: Optional[str] = None,
        make: Optional[Callable] = None,
        extra: tuple = (),
    ) -> Optional[List[Any]]:
        """Run ``task(worker_state, payload, *extra)`` per payload.

        ``worker_state`` is the published value under ``key`` (the whole
        published dict when ``key`` is ``None``), passed through ``make``
        once per worker and cached there — so analyzers, crawlers, and
        mmap attachments persist across fan-outs. Results come back in
        payload order; worker-side ``dataplane.*`` counter deltas are
        absorbed into the parent registry. Returns ``None`` when no fork
        pool is available (caller falls back).
        """
        executor = self._ensure_executor()
        if executor is None:  # pragma: no cover - non-fork platforms
            return None
        n = len(payloads)
        outputs = list(
            executor.map(
                _run_persistent_task,
                [task] * n,
                [key] * n,
                [make] * n,
                payloads,
                [extra] * n,
            )
        )
        self.runs += 1
        from ..obs.metrics import get_metrics

        metrics = get_metrics()
        for _, delta in outputs:
            for name, value in delta.items():
                metrics.count(name, value)
        return [result for result, _ in outputs]

    def close(self) -> None:
        """Shut the workers down and unpublish the state."""
        global _POOL_PUBLISHED
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
            if _POOL_PUBLISHED is self.state:
                _POOL_PUBLISHED = None


#: The process-wide persistent pool (``REPRO_POOL_PERSIST``).
_PERSISTENT: Optional[PersistentPool] = None


def get_persistent_pool() -> Optional[PersistentPool]:
    """The process-wide persistent pool, if one was set up."""
    return _PERSISTENT


def ensure_persistent_pool(workers: int) -> PersistentPool:
    """Create (or return) the process-wide persistent pool."""
    global _PERSISTENT
    if _PERSISTENT is None:
        _PERSISTENT = PersistentPool(workers)
    return _PERSISTENT


def set_persistent_pool(pool: Optional[PersistentPool]) -> Optional[PersistentPool]:
    """Swap the process-wide pool (tests); returns the previous one."""
    global _PERSISTENT
    previous, _PERSISTENT = _PERSISTENT, pool
    if previous is not None and previous is not pool:
        previous.close()
    return previous


def close_persistent_pool() -> None:
    """Shut the process-wide pool down (idempotent; also runs at exit)."""
    global _PERSISTENT
    if _PERSISTENT is not None:
        _PERSISTENT.close()
        _PERSISTENT = None


atexit.register(close_persistent_pool)
