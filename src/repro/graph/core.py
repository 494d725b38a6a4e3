"""The content-addressed artifact graph: every stage is a keyed node.

The paper's pipeline is a DAG — list generation feeds the §4 replay and
the §5 corpus, the crawl feeds coverage, everything feeds tables and
figures — and before this module each subsystem cached its own slice
(matcher LRU, FeatureStore, ParsedRuleCache, RDPK stores) with no way to
reuse a finished *stage* across process restarts. Here the whole
campaign becomes one explicit graph:

- every :class:`~repro.experiments.context.ExperimentContext` stage
  (``lists``/``archive``/``crawl``/``coverage``/``live``/``corpus``/
  ``features:<set>:<unpack>``) and every experiment driver output
  (``exp:fig1`` … ``exp:rulereport``) is a node;
- a node's key is the SHA-256 of its canonicalised inputs — campaign
  parameters (seed, world config, list patch, fault schedule), literal
  node parameters, and the keys of its upstream nodes — combined with
  the :mod:`~repro.graph.version` code-version of its declared source
  scopes. Keys are pure functions of inputs, so they are identical
  across process restarts and worker counts, and change exactly when an
  input, seed, scale, patch, or relevant source file changes;
- values resolve through three layers, mirroring the FeatureStore:
  in-process memory, then the ``REPRO_RUN_CACHE`` directory
  (mmap-verified RDPK containers, :mod:`~repro.graph.store`), then
  compute. A warm process therefore recomputes only nodes whose keys
  changed — a one-line list patch invalidates coverage and the tables
  but leaves the archive crawl on disk.

Worker counts, pool modes, the data plane, rule stats, journals, and
every other knob that is proven not to change artifact bytes stay *out*
of the keys on purpose: a cache populated serially warm-starts a
parallel run and vice versa.

Everything is accounted: ``graph.hits`` / ``graph.misses`` /
``graph.stores`` / ``graph.errors`` / ``graph.bytes_read`` /
``graph.bytes_written`` counters in the unified metrics registry, one
span per fetch/store, and a per-node outcome table the run manifest
carries as its ``graph`` section.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..obs.config import fault_seed, list_patch_file, max_retries, run_cache_dir
from ..obs.metrics import get_metrics
from ..obs.trace import span as trace_span
from .store import (
    GraphStoreError,
    delete_entries,
    entry_path,
    load_entry,
    scan_entries,
    store_entry,
)
from .version import code_version

logger = logging.getLogger("repro.graph")

#: Key-derivation revision: part of every node key, so a change to the
#: keying scheme itself orphans (never aliases) old cache entries.
GRAPH_SCHEMA = 1

#: Parameter groups a node may declare (subsets of the campaign params).
PARAM_GROUPS = ("world", "patch", "ingest")

#: Default parameter groups for experiment nodes: every driver output
#: derives from the campaign unless it says otherwise (``stability``).
EXPERIMENT_PARAM_GROUPS = PARAM_GROUPS


def canonical_json(payload: Any) -> str:
    """Deterministic JSON for digesting (sorted keys, dates via str)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )


def digest_text(text: str) -> str:
    """SHA-256 hex digest of a text payload."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class NodeSpec:
    """One node's identity: dependencies, code scopes, and parameters."""

    name: str
    #: Upstream node names whose keys enter this node's inputs-digest.
    deps: Tuple[str, ...] = ()
    #: Code scopes (:func:`~repro.graph.version.scope_digest`) whose
    #: sources this node's compute depends on.
    code: Tuple[str, ...] = ()
    #: Campaign parameter groups (of :data:`PARAM_GROUPS`) to include.
    params: Tuple[str, ...] = ()
    #: Literal node-specific parameters (JSON-able).
    extra: Tuple[Tuple[str, Any], ...] = ()
    #: Volatile nodes are never cached (their output depends on state
    #: outside the graph, e.g. a cross-run stats accumulator).
    volatile: bool = False

    @staticmethod
    def freeze_extra(extra: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
        """Canonicalise an extra-params mapping for the frozen spec."""
        if not extra:
            return ()
        return tuple(sorted((str(k), v) for k, v in extra.items()))


#: The campaign stage nodes (experiment nodes register dynamically).
#: Code scopes are the package subtrees whose edits change the stage's
#: output bytes; orchestration-only layers (obs, graph, context) are
#: deliberately absent.
STAGE_SPECS: Tuple[NodeSpec, ...] = (
    NodeSpec(
        "lists",
        params=("world", "patch"),
        code=("synthesis", "filterlist"),
        # Revision 2: the value is (histories, domain-mint table).
        extra=NodeSpec.freeze_extra({"value": 2}),
    ),
    NodeSpec("archive", params=("world",), code=("synthesis", "web", "wayback")),
    NodeSpec(
        "crawl",
        deps=("archive",),
        params=("ingest",),
        code=("synthesis", "web", "wayback", "resilience"),
    ),
    NodeSpec(
        "coverage",
        deps=("crawl", "lists"),
        code=("analysis", "filterlist", "web", "wayback"),
    ),
    NodeSpec(
        "live",
        deps=("lists",),
        params=("world", "ingest"),
        code=("analysis", "filterlist", "synthesis", "web", "resilience"),
    ),
    NodeSpec(
        "corpus",
        deps=("lists",),
        params=("world", "ingest"),
        code=("core", "filterlist", "synthesis", "web", "resilience"),
    ),
)


def feature_node_name(feature_set: str, unpack: bool) -> str:
    """Node name for one §5 feature extraction (``features:all:u1``)."""
    return f"features:{feature_set}:{'u1' if unpack else 'u0'}"


def feature_node_spec(feature_set: str, unpack: bool) -> NodeSpec:
    """Spec for one ``features:<set>:<unpack>`` node (deps: corpus)."""
    from ..core.featstore import EXTRACTOR_VERSION

    return NodeSpec(
        feature_node_name(feature_set, unpack),
        deps=("corpus",),
        code=("core", "jsast"),
        extra=NodeSpec.freeze_extra(
            {
                "extractor_version": EXTRACTOR_VERSION,
                "feature_set": feature_set,
                "unpack": unpack,
            }
        ),
    )


def campaign_params(world) -> Dict[str, Any]:
    """The campaign-wide parameter groups node keys draw from.

    - ``world``: seed plus every :class:`~repro.synthesis.world.WorldConfig`
      field (scale changes arrive here as ``n_sites``/``live_top``);
    - ``patch``: SHA-256 of the ``REPRO_LIST_PATCH`` file, or ``None``;
    - ``ingest``: the fault-injection schedule (``REPRO_FAULT_SEED``)
      and — only when faults are on, since without faults retries never
      fire — the retry allowance. Journal dirs and backoff delays stay
      out: resume and pacing are proven output-identical.
    """
    from dataclasses import asdict

    patch = list_patch_file()
    patch_digest = None
    if patch is not None:
        try:
            with open(patch, "rb") as handle:
                patch_digest = hashlib.sha256(handle.read()).hexdigest()
        except OSError:
            patch_digest = None
    faults = fault_seed()
    return {
        "world": {"seed": world.seed, "config": asdict(world.config)},
        "patch": {"sha256": patch_digest},
        "ingest": {
            "fault_seed": faults,
            "max_retries": max_retries() if faults is not None else None,
        },
    }


class ArtifactGraph:
    """Key derivation plus the three-layer node resolution engine."""

    def __init__(
        self,
        params: Mapping[str, Any],
        cache_dir: Optional[str] = None,
    ) -> None:
        self.params: Dict[str, Any] = {
            group: params.get(group) for group in PARAM_GROUPS
        }
        self.cache_dir = cache_dir
        self._specs: Dict[str, NodeSpec] = {spec.name: spec for spec in STAGE_SPECS}
        self._keys: Dict[str, str] = {}
        #: Memory layer: node name -> resolved value (one per process).
        self._memory: Dict[str, Any] = {}
        #: Per-node outcome rows for the run manifest's ``graph`` section.
        self._outcomes: Dict[str, Dict[str, Any]] = {}

    @classmethod
    def for_world(cls, world, cache_dir: Optional[str] = None) -> "ArtifactGraph":
        """The graph for one campaign (cache dir from ``REPRO_RUN_CACHE``)."""
        if cache_dir is None:
            cache_dir = run_cache_dir()
        return cls(campaign_params(world), cache_dir=cache_dir)

    # -- specs and keys -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        """Whether a run-cache directory backs this graph."""
        return self.cache_dir is not None

    def register(self, spec: NodeSpec) -> NodeSpec:
        """Add (or re-pin) a node spec; key memo for it is dropped."""
        self._specs[spec.name] = spec
        self._keys.pop(spec.name, None)
        return spec

    def register_experiment(self, name: str, module) -> NodeSpec:
        """Build and register the ``exp:<name>`` spec from driver attrs.

        Drivers declare ``GRAPH_DEPS`` (upstream stage nodes),
        ``GRAPH_CODE`` (extra code scopes beyond their own module file),
        and optionally ``GRAPH_PARAM_GROUPS``, ``GRAPH_EXTRA``, and
        ``GRAPH_VOLATILE`` (bool or zero-arg callable).
        """
        deps = tuple(getattr(module, "GRAPH_DEPS", ()))
        code = (f"experiments/{name}.py",) + tuple(getattr(module, "GRAPH_CODE", ()))
        groups = tuple(
            getattr(module, "GRAPH_PARAM_GROUPS", EXPERIMENT_PARAM_GROUPS)
        )
        volatile = getattr(module, "GRAPH_VOLATILE", False)
        if callable(volatile):
            volatile = bool(volatile())
        spec = NodeSpec(
            f"exp:{name}",
            deps=deps,
            code=code,
            params=groups,
            extra=NodeSpec.freeze_extra(getattr(module, "GRAPH_EXTRA", None)),
            volatile=bool(volatile),
        )
        for dep in deps:
            self.spec(dep)  # unknown dependency fails at register time
        return self.register(spec)

    def spec(self, name: str) -> NodeSpec:
        """The spec for a node; feature nodes materialise on demand."""
        known = self._specs.get(name)
        if known is None and name.startswith("features:"):
            try:
                _, feature_set, flag = name.split(":")
            except ValueError:
                raise KeyError(f"malformed feature node name: {name!r}") from None
            if flag not in ("u0", "u1"):
                raise KeyError(f"malformed feature node name: {name!r}")
            known = self.register(feature_node_spec(feature_set, flag == "u1"))
        if known is None:
            raise KeyError(f"unknown graph node: {name!r}")
        return known

    def key(self, name: str) -> str:
        """The node's content address: H(inputs-digest, code-version).

        Inputs are the declared campaign parameter groups, the literal
        node parameters, and the *keys* of upstream nodes (so any
        upstream change propagates); the code version covers the node's
        declared source scopes. Memoized per graph.
        """
        cached = self._keys.get(name)
        if cached is not None:
            return cached
        spec = self.spec(name)
        payload = {
            "schema": GRAPH_SCHEMA,
            "node": name,
            "params": {group: self.params.get(group) for group in spec.params},
            "extra": dict(spec.extra),
            "deps": {dep: self.key(dep) for dep in spec.deps},
            "code": code_version(spec.code),
        }
        key = digest_text(canonical_json(payload))
        self._keys[name] = key
        return key

    def keys(self) -> Dict[str, str]:
        """Current keys of every registered node (stable name order)."""
        return {name: self.key(name) for name in sorted(self._specs)}

    # -- accounting ---------------------------------------------------------

    def _record(self, name: str, outcome: str, nbytes: int = 0) -> None:
        row = self._outcomes.setdefault(
            name, {"key": self.key(name), "outcome": outcome, "bytes": 0}
        )
        row["outcome"] = outcome
        if nbytes:
            row["bytes"] = nbytes

    def manifest_section(self) -> Dict[str, Any]:
        """The run manifest's ``graph`` section (cache dir + outcomes)."""
        return {
            "cache_dir": self.cache_dir,
            "nodes": {name: dict(row) for name, row in sorted(self._outcomes.items())},
        }

    # -- the three resolution layers ---------------------------------------

    def has(self, name: str) -> bool:
        """Cheap probe: does the run cache hold this node's current key?"""
        if not self.enabled or self.spec(name).volatile:
            return False
        return entry_path(self.cache_dir, name, self.key(name)).is_file()

    def fetch(self, name: str) -> Tuple[bool, Any]:
        """Run-cache layer: ``(True, value)`` on hit, ``(False, None)`` else.

        A corrupt or undecodable entry counts as ``graph.errors`` and a
        miss — the caller recomputes and overwrites it.
        """
        if not self.enabled or self.spec(name).volatile:
            return False, None
        key = self.key(name)
        path = entry_path(self.cache_dir, name, key)
        if not path.is_file():
            self._record(name, "miss")
            get_metrics().count("graph.misses")
            return False, None
        with trace_span(f"graph:fetch:{name}", key=key[:12]) as fetch_span:
            try:
                meta, value = load_entry(path)
            except GraphStoreError as exc:
                logger.warning("run-cache entry unusable, recomputing: %s", exc)
                fetch_span.set(outcome="error")
                self._record(name, "error")
                get_metrics().count("graph.errors")
                get_metrics().count("graph.misses")
                return False, None
            nbytes = path.stat().st_size
            fetch_span.set(outcome="hit", bytes=nbytes)
            self._record(name, "hit", nbytes)
            metrics = get_metrics()
            metrics.count("graph.hits")
            metrics.count("graph.bytes_read", nbytes)
            self._memory[name] = value
            return True, value

    def put(self, name: str, value: Any) -> None:
        """Memoise a computed value and persist it to the run cache."""
        self._memory[name] = value
        spec = self.spec(name)
        if not self.enabled or spec.volatile:
            self._record(name, "volatile" if spec.volatile else "computed")
            return
        key = self.key(name)
        path = entry_path(self.cache_dir, name, key)
        with trace_span(f"graph:store:{name}", key=key[:12]) as store_span:
            try:
                written = store_entry(path, {"node": name, "key": key}, value)
            except (OSError, pickle.PicklingError) as exc:
                logger.warning("run-cache store failed for %s: %s", name, exc)
                store_span.set(outcome="error")
                get_metrics().count("graph.errors")
                self._record(name, "computed")
                return
            store_span.set(bytes=written)
            metrics = get_metrics()
            metrics.count("graph.stores")
            metrics.count("graph.bytes_written", written)
            self._record(name, "stored", written)

    def resolve(self, name: str, compute: Callable[[], Any]) -> Any:
        """Memory -> run cache -> compute (the FeatureStore ordering)."""
        if name in self._memory:
            return self._memory[name]
        hit, value = self.fetch(name)
        if hit:
            return value
        value = compute()
        self.put(name, value)
        return value

    # -- maintenance --------------------------------------------------------

    def invalidate(self, name: Optional[str] = None) -> int:
        """Drop run-cache entries (one node or all); returns files removed."""
        if name is not None:
            self._memory.pop(name, None)
        else:
            self._memory.clear()
        if not self.enabled:
            return 0
        return delete_entries(self.cache_dir, name)

    def entries(self):
        """Raw run-cache listing (empty when persistence is disabled)."""
        if not self.enabled:
            return []
        return scan_entries(self.cache_dir)
