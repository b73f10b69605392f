"""Telemetry sinks: where finished-span and snapshot events go.

The sink contract is three methods -- ``emit(event: dict)``,
``flush()``, ``close()`` -- called under the telemetry lock, so sinks
need no synchronization of their own but must keep ``emit`` cheap.

* :class:`MemorySink` -- in-process event list (tests, summary dumps).
* :class:`JsonlSink` -- one JSON object per line, the machine-readable
  stream the benchmarks archive next to their results.  Crash-safe:
  registers an atexit flush/close guard on first open and refuses to
  write from a process that did not open it (a forked child).
* :class:`NullSink` -- swallows everything (placeholder wiring).

:func:`read_jsonl` parses a stream back, tolerating a truncated final
line by default -- the signature a killed recorder leaves behind.
"""

from __future__ import annotations

import atexit
import json
import os
from pathlib import Path
from typing import IO


class NullSink:
    """Discards every event."""

    def emit(self, event: dict) -> None:
        """Drop the event."""

    def flush(self) -> None:
        """Nothing to flush."""

    def close(self) -> None:
        """Nothing to close."""


class MemorySink:
    """Accumulates events in a list (the test/registry sink)."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def emit(self, event: dict) -> None:
        """Append one event."""
        self.events.append(event)

    def flush(self) -> None:
        """Nothing buffered beyond the list itself."""

    def close(self) -> None:
        """Nothing to close."""

    def spans(self) -> list[dict]:
        """Only the span events, in finish order."""
        return [e for e in self.events if e.get("type") == "span"]

    def last_values(self, kind: str) -> dict[str, float]:
        """Latest counter/gauge value per name (``kind`` selects which)."""
        out: dict[str, float] = {}
        for e in self.events:
            if e.get("type") == kind:
                out[e["name"]] = e["value"]
        return out


class JsonlSink:
    """Streams events as JSON Lines to ``path`` (created lazily).

    The first open truncates any previous stream so one benchmark run
    leaves exactly one coherent event file; after it the mode switches
    to append, so a close-then-reopen (atexit after an explicit close
    race) never truncates what was already written.

    A killed run must still leave a parseable stream, so the sink
    registers an atexit flush/close guard on first open (unregistered
    again on explicit close), and every write is guarded by the owning
    pid -- a forked child holding an inherited copy cannot interleave
    bytes into the parent's file.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._mode = "w"
        self._fh: IO[str] | None = None
        self._owner_pid: int | None = None

    def _handle(self) -> IO[str] | None:
        if self._fh is None:
            if self._owner_pid is not None and self._owner_pid != os.getpid():
                return None  # inherited across fork: never reopen here
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, self._mode)
            self._mode = "a"
            self._owner_pid = os.getpid()
            atexit.register(self.close)
        elif self._owner_pid != os.getpid():
            return None
        return self._fh

    def emit(self, event: dict) -> None:
        """Write one event as a JSON line."""
        fh = self._handle()
        if fh is not None:
            fh.write(json.dumps(event, default=str) + "\n")

    def flush(self) -> None:
        """Flush the file buffer (touches the file even if empty)."""
        fh = self._handle()
        if fh is not None:
            fh.flush()

    def close(self) -> None:
        """Flush and close the stream."""
        if self._fh is not None and self._owner_pid == os.getpid():
            try:
                atexit.unregister(self.close)
            except Exception:
                pass
            self._fh.flush()
            self._fh.close()
            self._fh = None


def read_jsonl(path: str | Path, strict: bool = False) -> list[dict]:
    """Parse a JSONL event stream back into event dicts.

    A truncated *final* line (the mark a killed recorder leaves) is
    silently dropped unless ``strict``; corruption anywhere else
    always raises.
    """
    events = []
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    last = len(lines) - 1
    for i, line in enumerate(lines):
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            if strict or i != last:
                raise
    return events
