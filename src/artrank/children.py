"""Forked children: a ``Child`` runs work in a forked process and pipes back
what the work sends, returns or raises.

Every forked process of ``artrank`` is a ``Child``: the range parsers of
``ingest`` and the background writers of ``artifacts.ArtifactWriter``
alike. A child's memory belongs to its own process. On Python 3.12+
``os.fork`` warns when the process runs other threads, as numpy's OpenBLAS
does; ``Child`` states the rules that keep every child safe. This module
imports nothing from ``artrank``.
"""

from __future__ import annotations

import gc
import os
import pickle
from typing import Callable

_SIGKILL = 9  # fixed by POSIX; importing signal for it would cost start-up time
# a ``Child`` message: an item its work sent, or, last, what the work returned or raised
_SENT, _RETURNED, _RAISED = range(3)


def usable_cpus() -> int:
    """The CPUs this process may use, or 1 where it cannot fork children to use them."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def process_gone(pid: int) -> bool:
    """Whether signal 0, which only probes, finds no process ``pid``. A process
    that this one may not signal is not gone, nor is an id that cannot be probed."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):
        return False
    return False


class Child:
    """A forked child that runs ``work(send)``: it pipes back, pickled, each item
    passed to ``send``, then, last, what ``work`` returned or raised.

    ``receive`` reads them; ``end`` kills a child whose result is not wanted.
    Both reap it, so no caller waits for it. ``label`` names the child only in
    the error of one that ends without its result. Every child keeps these
    rules, since ``fork`` copies only the calling thread (numpy's BLAS may
    run others): it collects no garbage, so it runs no finalizer or ``gc``
    callback of this process; ``work`` imports, logs and calls into BLAS
    nothing; it leaves only through ``os._exit`` (status 0 once its result is
    sent, else 1), so it never flushes this process's buffers or runs its
    exit handlers; and on an error in this process it is killed and reaped.
    """

    def __init__(self, label: str, work: Callable[[Callable[[object], None]], object]) -> None:
        self.label = label
        reader, writer = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(reader)
            os.close(writer)
            raise
        if self.pid:
            os.close(writer)
            self._reader = open(reader, "rb")
            return
        status = 1
        try:
            gc.disable()
            os.close(reader)
            with open(writer, "wb") as out:
                try:
                    result = (_RETURNED, work(lambda item: pickle.dump((_SENT, item), out)))
                except Exception as exc:  # ``receive`` raises it in this process
                    result = (_RAISED, exc)
                pickle.dump(result, out)
            status = 0
        finally:
            os._exit(status)

    def receive(self, take: Callable[[object], object] | None = None) -> object:
        """Pass each item the child sends to ``take`` (left out for a child that
        sends none), reap the child, and return what its work returned or raise
        what it raised.

        A child that ends without its result raises ``RuntimeError``. An error
        in ``take`` ends the child.
        """
        try:
            kind, payload = self._load()
            while kind == _SENT:
                take(payload)
                kind, payload = self._load()
        except BaseException:
            self.end()
            raise
        status = self._reap()
        if kind == _RAISED:
            raise payload
        if kind != _RETURNED:
            raise RuntimeError(f"the {self.label} ended without its result (exit status {status})")
        return payload

    def end(self) -> None:
        """Kill and reap the child, unless it is reaped already."""
        if self.pid:
            os.kill(self.pid, _SIGKILL)
            self._reap()

    def _load(self) -> tuple[int | None, object]:
        """The child's next message, or ``(None, None)`` once it sends no more."""
        try:
            return pickle.load(self._reader)
        except (EOFError, pickle.UnpicklingError):
            return None, None

    def _reap(self) -> int:
        """Close the pipe and wait for the child; returns its exit status."""
        self._reader.close()
        status = os.waitpid(self.pid, 0)[1]
        self.pid = 0
        return os.waitstatus_to_exitcode(status)
