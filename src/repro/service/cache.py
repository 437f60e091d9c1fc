"""Content-addressed caches (in-memory + optional on-disk JSON).

Two tiers share one layout — one JSON file per SHA-256 key under a
cache directory (two-level fan-out to keep directories small), written
atomically via rename, so concurrent batch runs — and repeated CLI
invocations — share state safely:

* :class:`ResultCache` — whole-job outcomes, keyed by
  :class:`VerificationJob` content hashes;
* :class:`SummaryStore` — per-task-subtree summary records
  (:mod:`repro.service.summaries`), keyed by
  :func:`~repro.service.summaries.persistent_summary_key`, the tier
  that makes re-verifying an edited scenario incremental.

Several processes may write one cache directory at once: the workers
of ``repro suite --workers N --summary-cache DIR``, or two runs that
share a cache directory.  The atomic tmp-file + rename is correct under
that regime (readers never see a torn file; last writer wins with
value-equal content); on-disk writes additionally take an **advisory
``flock``** on a per-directory lockfile so concurrent writers serialize
instead of racing renames, and every acquisition that had to *wait* is
counted (``flock_waits`` in :mod:`repro.perf.counters`, plus a
per-store ``lock_waits``).  On platforms without ``fcntl`` the lock
degrades to the rename-only protocol.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.perf.counters import COUNTERS
from repro.service.jobs import JobOutcome

#: Name of the advisory lockfile inside a cache directory.
LOCK_FILENAME = ".lock"


@contextmanager
def _advisory_write_lock(store) -> Iterator[None]:
    """Hold the store directory's advisory write lock.

    Non-blocking first: an immediate grab is the uncontended fast path;
    failing that, the wait is counted (globally and per store) before
    blocking.  Purely advisory — a process that skips it is still safe
    thanks to atomic renames — so a crashed holder cannot wedge anyone:
    ``flock`` locks die with their file descriptor.
    """
    if fcntl is None or store.directory is None:
        yield
        return
    with open(store.directory / LOCK_FILENAME, "a+") as handle:
        COUNTERS.flock_acquires += 1
        try:
            fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            COUNTERS.flock_waits += 1
            store.lock_waits += 1
            fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


class _JsonStore:
    """The layout both tiers share: a dict in front of an optional JSON
    directory, one file per key, written atomically under the advisory
    write lock.  Subclasses decode what :meth:`_read` returns."""

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = Path(directory) if directory is not None else None
        self._memory: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0
        #: Advisory write-lock acquisitions that found the lock held by
        #: another process (concurrent-writer contention metric).
        self.lock_waits = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def _path_for(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / key[:2] / f"{key}.json"

    def _read(self, key: str):
        """The JSON value stored for ``key``, or None when absent or
        unreadable (a truncated or non-JSON file is a miss)."""
        data = self._memory.get(key)
        if data is None and self.directory is not None:
            try:
                data = json.loads(self._path_for(key).read_text())
            except (OSError, ValueError):
                data = None
        return data

    def _write(self, key: str, data: dict) -> None:
        self._memory[key] = data
        if self.directory is None:
            return
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        with _advisory_write_lock(self):
            handle = tempfile.NamedTemporaryFile(
                "w", dir=path.parent, prefix=".tmp-", suffix=".json", delete=False
            )
            try:
                with handle:
                    json.dump(data, handle, sort_keys=True)
                os.replace(handle.name, path)
            except BaseException:
                try:
                    os.unlink(handle.name)
                except OSError:
                    pass
                raise

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        return self.directory is not None and self._path_for(key).exists()

    def __len__(self) -> int:
        keys = set(self._memory)
        if self.directory is not None:
            keys.update(p.stem for p in self.directory.glob("*/*.json"))
        return len(keys)

    def clear(self) -> None:
        self._memory.clear()
        self.hits = 0
        self.misses = 0
        if self.directory is not None:
            for path in self.directory.glob("*/*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass


class ResultCache(_JsonStore):
    """Two-tier cache of whole-job outcomes."""

    def get(self, key: str) -> JobOutcome | None:
        """The cached outcome for ``key``, marked as a cache hit.

        Anything that cannot be decoded into a well-formed outcome —
        truncated file, foreign JSON shape, hand-edited garbage — is a
        miss, never an exception.
        """
        data = self._read(key)
        if data is not None:
            try:
                outcome = JobOutcome.from_dict(data)
            except (KeyError, TypeError, AttributeError, ValueError):
                self._memory.pop(key, None)
            else:
                self._memory[key] = data
                self.hits += 1
                outcome.cache_hit = True
                return outcome
        self.misses += 1
        return None

    def put(self, key: str, outcome: JobOutcome) -> None:
        """Store an outcome; cache provenance is stripped before storage."""
        data = outcome.to_dict()
        data["cache_hit"] = False
        self._write(key, data)


class SummaryStore(_JsonStore):
    """Two-tier store for persistent task-summary records.

    Same shape and contracts as :class:`ResultCache`, but values are the
    raw record dicts of :mod:`repro.service.summaries` — the engine owns
    semantic decoding (and its integrity checks), this layer only
    guarantees that a corrupt, truncated, or foreign file is a miss,
    never an exception, and that writes are atomic.
    """

    def get(self, key: str) -> dict | None:
        """The stored record for ``key``, or None (unreadable = miss)."""
        data = self._read(key)
        if isinstance(data, dict):
            self._memory[key] = data
            self.hits += 1
            return data
        self.misses += 1
        return None

    def put(self, key: str, record: dict) -> None:
        self._write(key, record)
