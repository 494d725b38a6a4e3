"""Correctness checks: served answers against the offline path, artifacts against references.

Serve: every reply is compared with the offline
:class:`~repro.core.online.OnlineAdblocker` built from the same rule
lines and the same detector the daemon loaded from the run cache. The
serve layer itself is not used to build the reference.

Study: each experiment artifact is hashed; the cold and warm runs must
agree, and so must the recorded reference digests.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .common import SRC

SEPARATOR = "=" * 72


# -- study artifacts ---------------------------------------------------------------


def split_artifacts(stdout: str, names: Sequence[str]) -> Optional[Dict[str, str]]:
    """The CLI's output cut into one rendered artifact per experiment.

    ``repro all`` prints a 72-character rule before each artifact;
    ``None`` when the count does not match ``names``.
    """
    chunks = stdout.split(SEPARATOR + "\n")[1:]
    if len(chunks) != len(names):
        return None
    return {name: chunk.rstrip("\n") for name, chunk in zip(names, chunks)}


def digests(artifacts: Dict[str, str]) -> Dict[str, str]:
    return {name: hashlib.sha256(text.encode("utf-8")).hexdigest() for name, text in artifacts.items()}


def artifact_failures(names: Sequence[str], cold: Optional[Dict[str, str]],
                      warm: Sequence[Optional[Dict[str, str]]],
                      reference: Optional[Dict[str, str]]) -> Dict[str, str]:
    """Experiment name -> why its artifact fails (empty when all pass)."""
    failures: Dict[str, str] = {}
    for name in names:
        digest = (cold or {}).get(name)
        if digest is None:
            failures[name] = "missing from the cold run"
        elif any((run or {}).get(name) != digest for run in warm):
            failures[name] = "warm restart printed a different artifact"
        elif reference is not None and reference.get(name) != digest:
            failures[name] = "differs from the recorded reference"
    return failures


# -- serve answers ---------------------------------------------------------------------


def _program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_served_state(cache_dir: Path):
    """(network lines, element lines, detector) the daemon booted from.

    Read straight from the run cache entries of the ``serve:snapshot``
    and ``serve:detector`` nodes (the newest entry of each).
    """
    _program()
    from repro.graph.store import load_entry

    def newest(node_dir: str):
        entries = sorted((cache_dir / node_dir).glob("*.rdpg"), key=lambda p: p.stat().st_mtime)
        if not entries:
            raise FileNotFoundError(f"no {node_dir} entry under {cache_dir}")
        return load_entry(entries[-1])[1]

    snapshot = newest("serve_snapshot")
    return list(snapshot["network"]), list(snapshot["element"]), newest("serve_detector")


class Reference:
    """The offline answers for one subscription and detector."""

    def __init__(self, network_lines: List[str], element_lines: List[str], detector) -> None:
        _program()
        from repro.core.online import OnlineAdblocker
        from repro.filterlist.matcher import NetworkMatcher
        from repro.filterlist.rules import ElementRule, RuleParseError, parse_rule
        from repro.web.adblocker import Adblocker

        network, element = [], []
        for line in list(network_lines) + list(element_lines):
            line = line.strip()
            if not line or line.startswith(("!", "[")):
                continue
            try:
                rule = parse_rule(line)
            except RuleParseError:
                continue
            (element if isinstance(rule, ElementRule) else network).append(rule)
        self.detector = detector
        self.verdicts: Dict[str, bool] = {}
        self.online = OnlineAdblocker(
            detector,
            adblocker=Adblocker.from_parts(network, element, NetworkMatcher(network)),
            verdict_cache=self.verdicts,
        )
        self._memo: Dict[bytes, dict] = {}

    def prime(self, sources: Sequence[str], saved: Path) -> None:
        """Score every distinct script source in one batched predict.

        ``saved`` keeps the offline verdicts between runs; the caller keys
        it by the program's source digest, so a program change scores
        every source again.
        """
        from repro.core.online import source_digest

        if saved.exists():
            self.verdicts.update(json.loads(saved.read_text(encoding="utf-8")))
        fresh = {}
        for source in sources:
            digest = source_digest(source)
            if digest not in self.verdicts:
                fresh[digest] = source
        if fresh:
            flags = self.detector.predict(list(fresh.values()))
            for digest, flag in zip(fresh, flags):
                self.verdicts[digest] = bool(flag)
            partial = saved.with_suffix(".part")
            partial.write_text(json.dumps(self.verdicts), encoding="utf-8")
            partial.replace(saved)

    def expected(self, query: dict) -> dict:
        """The answer fields a correct daemon returns for ``query``."""
        from repro.web.page import PageSnapshot, Script, Subresource

        online = self.online
        op = query["op"]
        if op == "url":
            blocked = online.adblocker.should_block(
                query["url"], page_url=query["page_url"], resource_type=query["resource_type"]
            )
            answer = {"blocked": bool(blocked)}
        elif op == "script":
            answer = {"flagged": bool(online.scan_scripts([Script(source=query["source"])]))}
        else:
            page = query["page"]
            result = online.visit(PageSnapshot(
                url=page["url"],
                html=page["html"],
                subresources=[Subresource(url=s["url"], resource_type=s["resource_type"],
                                          size=s["size"]) for s in page["subresources"]],
                scripts=[Script(source=s["source"], url=s["url"]) for s in page["scripts"]],
            ))
            hidden = sum(1 for element in result.document.iter() if element.hidden)
            answer = {"result": {
                "url": result.url,
                "blocked_by_rules": list(result.blocked_by_rules),
                "blocked_by_model": list(result.blocked_by_model),
                "flagged_inline": result.flagged_inline,
                "hidden_elements": hidden,
            }}
        online.adblocker.log.clear()
        return answer

    def check(self, payload: bytes, query: dict, reply: Optional[bytes]) -> Tuple[bool, Optional[dict]]:
        """(reply is correct, the decoded reply)."""
        if reply is None:
            return False, None
        try:
            decoded = json.loads(reply)
        except ValueError:
            return False, None
        if not isinstance(decoded, dict) or decoded.get("ok") is not True:
            return False, decoded
        expected = self._memo.get(payload)
        if expected is None:
            expected = self._memo[payload] = self.expected(query)
        return all(decoded.get(key) == value for key, value in expected.items()), decoded
