"""The output directory: the only code that creates, hashes or deletes a file in it.

A command holds one ``ArtifactWriter`` as a context manager. Entering takes
the directory's ``.lock``, whose ``pid=``, ``host=`` and ``started=`` lines the
"locked" error quotes so that a lock left by a killed run can be recognised
and removed, and only then deletes any ``manifest.json``, so no manifest
outlives the files it hashes. ``manifest()`` writes a sha256 and size per
artifact, hashed as it was written. Leaving releases the lock.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import TextIO

from .ingest import EventLog, write_csv, write_events_csv

LOCK_FILE = ".lock"
MANIFEST_JSON = "manifest.json"


class ArtifactWriter:
    """Writes named files under ``out_dir``. ``digests`` maps each name written to
    the sha256 and size of its last write, so the manifest reads no artifact back."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.digests: dict[str, tuple[str, int]] = {}

    def __enter__(self) -> ArtifactWriter:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        lock = self.out_dir / LOCK_FILE
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                holder = ", ".join(lock.read_text(encoding="utf-8", errors="replace").split())
            except OSError:
                holder = ""
            raise RuntimeError(
                f"output directory is locked by another run ({holder or 'owner not recorded'}):"
                f" {lock}; if that process is gone, remove the file and retry"
            ) from None
        started = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"pid={os.getpid()}\nhost={platform.node()}\nstarted={started}\n")
        try:
            # a manifest exists only once it matches every artifact beside it
            self.remove(MANIFEST_JSON)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> bool:
        (self.out_dir / LOCK_FILE).unlink(missing_ok=True)
        return False

    def remove(self, name: str) -> None:
        """Delete ``name`` if it is there, so that no stale copy outlives this command."""
        (self.out_dir / name).unlink(missing_ok=True)

    @contextmanager
    def _open(self, name: str) -> Iterator[TextIO]:
        """A UTF-8 text handle on ``out_dir / name`` whose bytes are hashed as written."""
        raw = _HashedFile(self.out_dir / name)
        with io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="") as handle:
            yield handle
        self.digests[name] = (raw.sha256.hexdigest(), raw.size)

    def csv(self, name: str, header, columns) -> None:
        with self._open(name) as handle:
            write_csv(handle, header, columns)

    def json(self, name: str, payload) -> None:
        # NaN and infinities have no JSON form; json.dumps raises ValueError on them
        self.text(name, json.dumps(payload, indent=2, allow_nan=False) + "\n")

    def text(self, name: str, content: str) -> None:
        with self._open(name) as handle:
            handle.write(content)

    def jsonl(self, name: str, chunks: Iterable[str]) -> None:
        """Write JSON lines given as chunks of formatted lines, one chunk at a time.

        The caller formats the lines and must keep NaN and infinities out of them.
        """
        with self._open(name) as handle:
            handle.writelines(chunks)

    def events(self, name: str, log: EventLog) -> None:
        with self._open(name) as handle:
            write_events_csv(log, handle)

    def manifest(self) -> dict:
        entries = [
            {"name": name, "sha256": digest, "size": size}
            for name, (digest, size) in sorted(self.digests.items())
        ]
        payload = {"files": entries}
        self.json(MANIFEST_JSON, payload)
        return payload


class _HashedFile(io.FileIO):
    """A file opened for writing that hashes the bytes written to it."""

    def __init__(self, path: Path):
        super().__init__(path, "w")
        self.sha256 = hashlib.sha256()
        self.size = 0

    def write(self, data) -> int:
        written = super().write(data)
        self.sha256.update(memoryview(data)[:written])
        self.size += written
        return written
