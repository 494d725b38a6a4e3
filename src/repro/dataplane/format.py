"""The packed-artifact container every data-plane format shares.

Every data-plane file is one atomic artifact::

    +--------------------------------------------------------------+
    | header (48 bytes):                                           |
    |   magic  b"RDPK"          4s                                 |
    |   kind   (format id)      u16   events / requests / sources  |
    |   version                 u16   container layout revision    |
    |   payload_length          u64                                |
    |   payload_sha256          32s   integrity check at open      |
    +--------------------------------------------------------------+
    | payload (format-specific sections, always little-endian,     |
    | unaligned ``struct`` records — no third-party deps)          |
    +--------------------------------------------------------------+

Writers build the payload in memory, stamp the header, and publish with
the tmp-file + ``os.replace`` pattern, so readers never observe a partial
artifact. Readers ``mmap`` the file read-only, verify the magic, kind,
version, length, and payload SHA-256 once at open, then decode sections
*lazily* — a consumer that touches three scripts of a ten-thousand-script
segment decodes three scripts.

Every open, row decode, and encode is accounted in the unified metrics
registry under ``dataplane.*`` (``bytes_mapped``, ``rows_read``,
``encode_ms``, ``files_mapped``, ``bytes_written``, ``integrity_errors``),
so a run manifest shows exactly how much of the binary plane a run
touched.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
import time
from pathlib import Path
from typing import List, Optional, Sequence, Union

from ..obs.metrics import get_metrics

MAGIC = b"RDPK"
#: Container layout revision (bump on incompatible header/section changes).
FORMAT_VERSION = 1

#: Format kinds carried in the header.
KIND_EVENTS = 1  # packed token-event segment (§5 feature cache)
KIND_REQUESTS = 2  # columnar HAR request table (§4 replay)
# Kind 3 (a temporary script-source table) is retired; never reuse it.
KIND_GRAPH = 4  # artifact-graph node value (run cache)
KIND_SNAPSHOT = 5  # packed serving snapshot (rule lines + detector)

KIND_NAMES = {
    KIND_EVENTS: "events",
    KIND_REQUESTS: "requests",
    KIND_GRAPH: "graph",
    KIND_SNAPSHOT: "snapshot",
}

HEADER = struct.Struct("<4sHHQ32s")

_U32 = struct.Struct("<I")


class DataPlaneError(ValueError):
    """A data-plane artifact is missing, truncated, corrupt, or mismatched."""


def count(name: str, delta: int = 1) -> None:
    """Increment a ``dataplane.*`` counter in the unified registry."""
    if delta:
        get_metrics().count(f"dataplane.{name}", delta)


# -- writing ----------------------------------------------------------------------


def pack_u32s(values: Sequence[int]) -> bytes:
    """A little-endian u32 array."""
    return struct.pack(f"<{len(values)}I", *values)


def pack_string_table(strings: Sequence[str]) -> bytes:
    """Pack a string table: count, offsets[count+1] into the blob, blob.

    Offsets are relative to the blob start, so readers can slice any
    string without decoding its neighbours.
    """
    blobs = [text.encode("utf-8", "replace") for text in strings]
    offsets = [0]
    for blob in blobs:
        offsets.append(offsets[-1] + len(blob))
    return b"".join(
        (_U32.pack(len(blobs)), pack_u32s(offsets), b"".join(blobs))
    )


def write_artifact(path: Union[str, Path], kind: int, payload: bytes) -> int:
    """Atomically publish one artifact; returns bytes written.

    The payload is hashed into the header so a reader detects any
    corruption at open; the tmp + ``os.replace`` publish means a crash
    mid-write never leaves a half-artifact under the final name.
    """
    path = Path(path)
    started = time.perf_counter()
    header = HEADER.pack(
        MAGIC, kind, FORMAT_VERSION, len(payload), hashlib.sha256(payload).digest()
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
    with open(tmp, "wb") as handle:
        handle.write(header)
        handle.write(payload)
    os.replace(tmp, path)
    written = len(header) + len(payload)
    count("bytes_written", written)
    count("files_written")
    get_metrics().count(
        "dataplane.encode_ms", int(round((time.perf_counter() - started) * 1000))
    )
    return written


# -- reading ----------------------------------------------------------------------


class MappedArtifact:
    """One mmap'd artifact: header verified at open, payload exposed raw."""

    def __init__(
        self,
        path: Union[str, Path],
        expect_kind: Optional[int] = None,
        verify: bool = True,
    ) -> None:
        self.path = Path(path)
        try:
            self._handle = open(self.path, "rb")
        except OSError as exc:
            raise DataPlaneError(f"cannot open {self.path}: {exc}") from exc
        try:
            self._mm = mmap.mmap(self._handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError) as exc:  # empty or unmappable file
            self._handle.close()
            raise DataPlaneError(f"cannot map {self.path}: {exc}") from exc
        view = memoryview(self._mm)
        try:
            if len(view) < HEADER.size:
                raise DataPlaneError(f"{self.path}: truncated header")
            magic, kind, version, length, digest = HEADER.unpack_from(view, 0)
            if magic != MAGIC:
                raise DataPlaneError(f"{self.path}: bad magic {magic!r}")
            if version != FORMAT_VERSION:
                raise DataPlaneError(
                    f"{self.path}: unsupported version {version} "
                    f"(reader speaks {FORMAT_VERSION})"
                )
            if expect_kind is not None and kind != expect_kind:
                raise DataPlaneError(
                    f"{self.path}: kind {KIND_NAMES.get(kind, kind)!r}, "
                    f"expected {KIND_NAMES.get(expect_kind, expect_kind)!r}"
                )
            if HEADER.size + length > len(view):
                raise DataPlaneError(f"{self.path}: truncated payload")
            # Hash through a transient slice so no exported buffer outlives
            # a failed verify (mmap.close refuses while slices exist).
            if verify and hashlib.sha256(
                view[HEADER.size : HEADER.size + length]
            ).digest() != digest:
                raise DataPlaneError(f"{self.path}: payload sha256 mismatch")
        except DataPlaneError:
            count("integrity_errors")
            view.release()
            self.close()
            raise
        self.kind = kind
        self.version = version
        self.payload = view[HEADER.size : HEADER.size + length]
        self.size = HEADER.size + length
        count("files_mapped")
        count("bytes_mapped", self.size)

    def close(self) -> None:
        """Release the mapping (safe to call twice)."""
        payload = getattr(self, "payload", None)
        if payload is not None:
            payload.release()
            self.payload = None
        mm = getattr(self, "_mm", None)
        if mm is not None:
            mm.close()
            self._mm = None
        handle = getattr(self, "_handle", None)
        if handle is not None:
            handle.close()
            self._handle = None

    def __enter__(self) -> "MappedArtifact":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StringTable:
    """Lazy reader over a packed string table inside a payload buffer.

    Decodes one string per first access; repeated reads hit a per-table
    cache, so equal ids share one ``str`` object — which is what lets the
    feature store's interning keep packed-loaded event streams
    pickle-byte-identical to freshly extracted ones. An optional
    ``intern`` callable runs once per decoded string (before caching),
    so a consumer can canonicalise at the decode boundary instead of
    re-walking every record afterwards.
    """

    def __init__(self, buffer, offset: int, intern=None) -> None:
        self._buffer = buffer
        self._intern = intern
        (self.count,) = _U32.unpack_from(buffer, offset)
        self._offsets_at = offset + 4
        self._blob_at = self._offsets_at + 4 * (self.count + 1)
        (blob_length,) = struct.unpack_from(
            "<I", buffer, self._offsets_at + 4 * self.count
        )
        #: Payload offset of the first byte after this table.
        self.end = self._blob_at + blob_length
        self._cache: List[Optional[str]] = [None] * self.count

    def get(self, index: int) -> str:
        """The string with id ``index`` (decoded once, then cached)."""
        cached = self._cache[index]
        if cached is None:
            low, high = struct.unpack_from(
                "<II", self._buffer, self._offsets_at + 4 * index
            )
            start = self._blob_at
            cached = bytes(self._buffer[start + low : start + high]).decode("utf-8")
            if self._intern is not None:
                cached = self._intern(cached)
            self._cache[index] = cached
        return cached

    def __len__(self) -> int:
        return self.count


def read_u32s(buffer, offset: int, count_: int) -> tuple:
    """Decode ``count_`` little-endian u32 values at ``offset``."""
    return struct.unpack_from(f"<{count_}I", buffer, offset)


def inspect_header(path: Union[str, Path]) -> dict:
    """Header fields of an artifact without mapping the payload."""
    path = Path(path)
    with open(path, "rb") as handle:
        raw = handle.read(HEADER.size)
    if len(raw) < HEADER.size:
        raise DataPlaneError(f"{path}: truncated header")
    magic, kind, version, length, digest = HEADER.unpack(raw)
    if magic != MAGIC:
        raise DataPlaneError(f"{path}: bad magic {magic!r}")
    return {
        "path": str(path),
        "kind": KIND_NAMES.get(kind, f"unknown({kind})"),
        "version": version,
        "payload_bytes": length,
        "sha256": digest.hex(),
        "file_bytes": path.stat().st_size,
    }
