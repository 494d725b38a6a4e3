"""Wire protocol of the serve daemon: JSON objects, one per line.

The daemon speaks newline-delimited JSON over TCP — the simplest framing
that curl/netcat/python can all produce — with one request object per
line and exactly one response object per request, in order. Three query
ops mirror the three questions an adblocker answers (and map 1:1 onto
:class:`~repro.core.online.OnlineAdblocker`):

- ``url``    — would this request be blocked? (``should_block``)
- ``script`` — does the model flag this script source? (``scan_scripts``)
- ``page``   — full page load: rule filtering, model scan, element
  hiding (``visit``); the response serialises the
  :class:`~repro.core.online.OnlineVisitResult`.

Four control ops manage the daemon: ``health``, ``metrics``, ``reload``
(raw rule lines added/removed — an O(delta) epoch swap), ``shutdown``.

Every response carries ``"ok"``; failures carry ``"error"`` instead of
result fields and never tear the connection down. See docs/SERVING.md
for copy-pasteable examples.
"""

from __future__ import annotations

import json
import socket
from typing import Any, Dict, Iterable, List, Optional

from ..web.page import PageSnapshot, Script, Subresource

#: Ops the batcher answers (everything else is a control op).
QUERY_OPS = ("url", "script", "page")

#: The composite op: many queries in one frame, answers in order. One
#: round trip amortises framing and lets the server's batcher see the
#: whole batch at once (prewarm runs over all of it) — this is the
#: "batched path" the loadgen benchmark compares against one-per-call.
BATCH_OP = "batch"

#: Ops handled directly by the daemon, outside the batching plane.
CONTROL_OPS = ("health", "metrics", "reload", "shutdown")


class ProtocolError(ValueError):
    """A request line that is not a valid protocol message."""


# -- framing ---------------------------------------------------------------------


def encode(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact key-sorted JSON plus the line terminator."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_line(line) -> Dict[str, Any]:
    """Parse one frame; raises :class:`ProtocolError` on garbage."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", "replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty request line")
    try:
        message = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # Not JSON, an integer past Python's digit limit, or nesting
        # deeper than the decoder's recursion limit.
        raise ProtocolError(f"request is not JSON: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("request is not a JSON object")
    op = message.get("op")
    if op not in QUERY_OPS and op not in CONTROL_OPS and op != BATCH_OP:
        raise ProtocolError(f"unknown op: {op!r}")
    if op == BATCH_OP and not isinstance(message.get("queries"), list):
        raise ProtocolError("batch: expected a 'queries' array")
    return message


# -- request constructors --------------------------------------------------------


def url_query(url: str, page_url: str = "", resource_type: str = "other") -> Dict[str, Any]:
    """A request-filtering query (``should_block`` semantics)."""
    return {"op": "url", "url": url, "page_url": page_url, "resource_type": resource_type}


def script_query(source: str) -> Dict[str, Any]:
    """A model-scan query over one script source."""
    return {"op": "script", "source": source}


def page_query(snapshot: PageSnapshot) -> Dict[str, Any]:
    """A full page-load query over a serialised snapshot."""
    return {"op": "page", "page": snapshot_to_wire(snapshot)}


def batch_query(queries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Many queries in one frame; the response carries ``answers`` in order."""
    return {"op": BATCH_OP, "queries": list(queries)}


def reload_request(added: Iterable[str], removed: Iterable[str]) -> Dict[str, Any]:
    """A hot-reload control request carrying raw rule lines."""
    return {"op": "reload", "added": list(added), "removed": list(removed)}


# -- page serialisation ----------------------------------------------------------


def snapshot_to_wire(snapshot: PageSnapshot) -> Dict[str, Any]:
    """A :class:`PageSnapshot` as a JSON-able dict (lossless for serving)."""
    return {
        "url": snapshot.url,
        "html": snapshot.html,
        "subresources": [
            {"url": s.url, "resource_type": s.resource_type, "size": s.size}
            for s in snapshot.subresources
        ],
        "scripts": [
            {"source": s.source, "url": s.url} for s in snapshot.scripts
        ],
    }


def snapshot_from_wire(payload: Dict[str, Any]) -> PageSnapshot:
    """Rebuild a :class:`PageSnapshot` from its wire form."""
    if not isinstance(payload, dict) or not isinstance(payload.get("url"), str):
        raise ProtocolError("page: expected an object with a 'url' string")
    return PageSnapshot(
        url=payload["url"],
        html=payload.get("html", "") or "",
        subresources=[
            Subresource(
                url=item.get("url", ""),
                resource_type=item.get("resource_type", ""),
                size=int(item.get("size", 2048)),
            )
            for item in payload.get("subresources", [])
        ],
        scripts=[
            Script(source=item.get("source", ""), url=item.get("url", ""))
            for item in payload.get("scripts", [])
        ],
    )


def visit_result_to_wire(result) -> Dict[str, Any]:
    """Serialise an :class:`~repro.core.online.OnlineVisitResult`.

    The document itself stays server-side; the response carries the
    hidden-element count, which is what the parity tests pin against the
    offline path.
    """
    hidden = 0
    if result.document is not None:
        hidden = sum(1 for element in result.document.iter() if element.hidden)
    return {
        "url": result.url,
        "blocked_by_rules": list(result.blocked_by_rules),
        "blocked_by_model": list(result.blocked_by_model),
        "flagged_inline": result.flagged_inline,
        "hidden_elements": hidden,
    }


# -- responses -------------------------------------------------------------------


def ok_response(op: str, **fields: Any) -> Dict[str, Any]:
    """A success frame for ``op``."""
    response = {"ok": True, "op": op}
    response.update(fields)
    return response


def error_response(message: str, op: Optional[str] = None) -> Dict[str, Any]:
    """A failure frame (the connection stays up)."""
    response: Dict[str, Any] = {"ok": False, "error": message}
    if op is not None:
        response["op"] = op
    return response


# -- a tiny blocking client ------------------------------------------------------


class ServeClient:
    """A blocking line-protocol client (tests, CI smoke, the loadgen)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def ask(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request and block for its response."""
        self._file.write(encode(message))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("serve daemon closed the connection")
        response = json.loads(line.decode("utf-8", "replace"))
        if not isinstance(response, dict):
            raise ProtocolError("response is not a JSON object")
        return response

    def ask_many(self, messages: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Pipeline several requests on one connection, in order."""
        for message in messages:
            self._file.write(encode(message))
        self._file.flush()
        responses = []
        for _ in messages:
            line = self._file.readline()
            if not line:
                raise ConnectionError("serve daemon closed the connection")
            responses.append(json.loads(line.decode("utf-8", "replace")))
        return responses

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
