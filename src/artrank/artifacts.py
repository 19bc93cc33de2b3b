"""The output directory: the only code that creates, hashes or deletes a file in it.

A command holds one ``ArtifactWriter`` as a context manager. Entering takes
the directory's ``.lock``, whose ``pid=``, ``host=`` and ``started=`` lines the
"locked" error quotes so that a lock left by a killed run can be recognised
and removed, and only then deletes any ``manifest.json``, so no manifest
outlives the files it hashes. A lock whose ``host=`` is this host and whose
``pid=`` names no process is stale: entering takes it over, with a WARNING
that quotes its holder. ``manifest()`` writes a sha256 and size per
artifact, hashed as it was written. Leaving releases the lock.

While ``background`` is set, an ``events``, ``csv`` or ``jsonl`` write of at
least ``_BACKGROUND_ROWS`` rows, made while this process may use two or
more CPUs, runs in a ``children.Child``, which writes and hashes the file
and pipes back its digest or its error; this process goes on at once.
``manifest()``, leaving, and any later write or ``remove`` of the same name
join such a write first, and a join raises the write's error. Leaving on
an error kills and reaps every child still writing before it releases the
lock, so no child outlives the command. ``cli`` sets ``background`` for
every stage of ``run`` but the last, so nothing that follows them waits for
their writes; a stage subcommand writes here.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
from collections.abc import Callable, Iterable
from datetime import datetime, timezone
from pathlib import Path
from typing import TextIO

from .children import Child, process_gone, usable_cpus
from .columns import CSV_CHUNK_ROWS
from .ingest import EventLog, write_csv, write_events_csv

LOCK_FILE = ".lock"
MANIFEST_JSON = "manifest.json"
# the rows from which a write may run in a forked child: one ``write_csv``
# chunk takes 5-30 ms to format and a fork of a 70 MB process about 0.7 ms
# (2 vCPU, Python 3.11), so a smaller write leaves little to overlap
_BACKGROUND_ROWS = CSV_CHUNK_ROWS

logger = logging.getLogger(__name__)


class ArtifactWriter:
    """Writes named files under ``out_dir``. ``digests`` maps each name written to
    the sha256 and size of its last write, so the manifest reads no artifact back.
    While ``background`` is set, large writes run in forked children."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.digests: dict[str, tuple[str, int]] = {}
        self.background = False
        self._children: dict[str, Child] = {}  # name -> the child writing it

    def __enter__(self) -> ArtifactWriter:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        lock = self.out_dir / LOCK_FILE
        host = os.uname().nodename  # what platform.node() returns on POSIX
        try:
            fd = _create(lock)
        except FileExistsError:
            holder = _holder(lock)
            if not _stale(holder, host):
                raise _locked(lock, holder) from None
            # created once more with O_EXCL, so a run whose create came first
            # keeps it; a takeover whose unlink follows another's create can
            # still remove that run's lock
            lock.unlink(missing_ok=True)
            try:
                fd = _create(lock)
            except FileExistsError:
                raise _locked(lock, _holder(lock)) from None
            logger.warning(
                "took over the lock of a run that is gone (%s): %s", ", ".join(holder), lock
            )
        started = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(f"pid={os.getpid()}\nhost={host}\nstarted={started}\n")
        try:
            # a manifest exists only once it matches every artifact beside it
            self.remove(MANIFEST_JSON)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, exc_type=None, *exc_info) -> bool:
        try:
            if exc_type is None:
                self._join_all()
        finally:
            while self._children:
                self._children.popitem()[1].end()
            (self.out_dir / LOCK_FILE).unlink(missing_ok=True)
        return False

    def remove(self, name: str) -> None:
        """Delete ``name`` if it is there, so that no stale copy outlives this command."""
        self._join(name)
        self.digests.pop(name, None)
        (self.out_dir / name).unlink(missing_ok=True)

    def _write(self, name: str, rows: int, write: Callable[[TextIO], object]) -> None:
        """Write ``name`` through ``write(handle)``, in a forked child when it is a
        background write of at least ``_BACKGROUND_ROWS`` rows."""
        self._join(name)
        if self.background and rows >= _BACKGROUND_ROWS and usable_cpus() >= 2:
            self._children[name] = Child(
                f"background write of {name}", lambda send: self._write_here(name, write)
            )
        else:
            self._write_here(name, write)

    def _write_here(self, name: str, write: Callable[[TextIO], object]) -> tuple[str, int]:
        """Write ``name`` through ``write`` on a UTF-8 text handle whose bytes are
        hashed as written; records and returns their sha256 and size."""
        raw = _HashedFile(self.out_dir / name)
        with io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8", newline="") as handle:
            write(handle)
        self.digests[name] = (raw.sha256.hexdigest(), raw.size)
        return self.digests[name]

    def _join(self, name: str) -> None:
        """Wait for the background write of ``name``, if one runs: record its digest,
        or raise its error."""
        child = self._children.pop(name, None)
        if child is not None:
            self.digests[name] = child.receive()

    def _join_all(self) -> None:
        for name in list(self._children):
            self._join(name)

    def csv(self, name: str, header, columns) -> None:
        rows = len(columns[0]) if columns else 0
        self._write(name, rows, lambda handle: write_csv(handle, header, columns))

    def json(self, name: str, payload) -> None:
        # NaN and infinities have no JSON form; json.dumps raises ValueError on them
        self.text(name, json.dumps(payload, indent=2, allow_nan=False) + "\n")

    def text(self, name: str, content: str) -> None:
        self._write(name, 0, lambda handle: handle.write(content))

    def jsonl(self, name: str, chunks: Iterable[str], rows: int = 0) -> None:
        """Write JSON lines given as chunks of formatted lines, one chunk at a time.

        The caller formats the lines and must keep NaN and infinities out of
        them. ``rows``, the number of lines, lets a large write run in the
        background.
        """
        self._write(name, rows, lambda handle: handle.writelines(chunks))

    def events(self, name: str, log: EventLog) -> None:
        self._write(name, log.accepted_count, lambda handle: write_events_csv(log, handle))

    def manifest(self) -> dict:
        self._join_all()
        entries = [
            {"name": name, "sha256": digest, "size": size}
            for name, (digest, size) in sorted(self.digests.items())
        ]
        payload = {"files": entries}
        self.json(MANIFEST_JSON, payload)
        return payload


def _create(lock: Path) -> int:
    """A descriptor of ``lock``, newly created for writing; FileExistsError if it exists."""
    return os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)


def _holder(lock: Path) -> list[str]:
    """The ``key=value`` lines of the lock file ``lock``; none if it cannot be read."""
    try:
        return lock.read_text(encoding="utf-8", errors="replace").split()
    except OSError:
        return []


def _stale(holder: list[str], host: str) -> bool:
    """Whether a lock of ``holder``'s lines was taken on ``host`` by a process that is gone."""
    fields = dict(line.partition("=")[::2] for line in holder)
    pid = fields.get("pid", "")
    return (
        fields.get("host") == host
        and pid.isascii()
        and pid.isdigit()
        and int(pid) > 0
        and process_gone(int(pid))
    )


def _locked(lock: Path, holder: list[str]) -> RuntimeError:
    return RuntimeError(
        f"output directory is locked by another run ({', '.join(holder) or 'owner not recorded'}):"
        f" {lock}; if that process is gone, remove the file and retry"
    )


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
