"""ArtifactStore: crash-safe, concurrently-accessible artifact trees.

One store instance wraps one root directory (a batch ``resume_dir``).
Under the root, each content-addressed **key** owns a directory of
artifacts plus a ``manifest.json`` of sha256/size sidecars
(:mod:`repro.store.manifest`).  All writes happen under the key's
advisory writer lock (:mod:`repro.store.locks`) with tmp-then-
``os.replace`` publication, so a reader never observes a half-written
artifact under its final name and a crashed writer leaves only a
``.<name>.tmp-<pid>`` orphan that the next locked writer sweeps up.

Reads come in two strengths:

* **optimistic** (``heal=False``, no lock): a checksum mismatch is
  treated as *missing* — it may simply be a benign race with a writer
  that has published the artifact but not yet the manifest — and never
  judged.
* **healing** (``heal=True``): re-verified under the key lock; a
  confirmed corrupt or truncated entry is moved to
  ``<key>/.corrupt-N/``, counted on ``resilience.store.corrupt``, and
  reported missing so the caller transparently recomputes.  Corruption
  therefore never crashes a run and never poisons a cache hit.

The manifest's size + last-access fields give ``gc(max_bytes)`` an LRU
eviction order; keys whose lock cannot be taken non-blockingly are
in-flight and never evicted.  ``stats()`` and ``verify()`` back the
``repro store`` CLI.

Lock waits/steals, swept torn tmps, healed corruptions and GC evictions
are tallied locally and flushed into a
:class:`~repro.obs.metrics.MetricsRegistry` via :meth:`attach_metrics`
(the registry usually arrives *after* the first lock acquisition, when
the engine exists, so pre-attach counts are buffered).

Fault injection: a :class:`~repro.resilience.faults.FaultPlan` with
store-phase events makes ``_publish`` die mid-write
(``kill_in_store_write``) or publish a torn payload against a full-
payload checksum (``torn_store_write``) — test-only hooks, ``None`` in
production.
"""

from __future__ import annotations

import os
import shutil
from typing import Callable, Optional

from repro.store import manifest as mf
from repro.store.locks import (
    DEFAULT_POLL_INTERVAL,
    DEFAULT_STALE_AFTER,
    KeyLock,
    StoreLockTimeout,
)

_METRIC_HELP = {
    "store.lock_waits": "key-lock acquisitions that had to wait for another writer",
    "store.lock_steals": "stale store leases taken over from dead holders",
    "store.dedup_hits": "jobs answered by another writer while we waited on the key lock",
    "store.torn_tmp_cleaned": "orphaned tmp files swept before a locked write",
    "store.gc_evicted_keys": "keys evicted by store gc",
    "resilience.store.corrupt": "corrupt/truncated artifacts quarantined to .corrupt-N",
}


def _is_tmp(name: str) -> bool:
    return ".tmp-" in name


class ArtifactStore:
    """A crash-safe concurrent artifact tree rooted at ``root``."""

    def __init__(
        self,
        root: str,
        *,
        lock_backend: str = "auto",
        stale_after: float = DEFAULT_STALE_AFTER,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        faults: Optional[object] = None,
    ) -> None:
        self.root = root
        self.lock_backend = lock_backend
        self.stale_after = float(stale_after)
        self.poll_interval = float(poll_interval)
        os.makedirs(root, exist_ok=True)
        self.counters: dict = {}
        self.metrics = None
        self._locks: dict = {}
        self.fault_attempt = 0
        if faults is not None and not hasattr(faults, "check_store_write"):
            from repro.resilience.faults import FaultPlan

            faults = FaultPlan.from_dict(faults)
        self.faults = faults

    # -- layout ------------------------------------------------------------

    def key_dir(self, key: str) -> str:
        return os.path.join(self.root, key)

    def keys(self) -> list:
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return []
        return sorted(
            n for n in names
            if not n.startswith(".") and os.path.isdir(self.key_dir(n))
        )

    # -- locking -----------------------------------------------------------

    def _make_lock(self, directory: str) -> KeyLock:
        return KeyLock(
            directory,
            backend=self.lock_backend,
            stale_after=self.stale_after,
            poll_interval=self.poll_interval,
            on_wait=lambda: self._count("store.lock_waits"),
            on_steal=lambda: self._count("store.lock_steals"),
        )

    def lock(self, key: str) -> KeyLock:
        """The (cached, reentrant) writer lock for one key."""
        lock = self._locks.get(key)
        if lock is None:
            lock = self._locks[key] = self._make_lock(self.key_dir(key))
        return lock

    def root_lock(self, name: str) -> KeyLock:
        """A named store-wide lock (e.g. the batch quarantine ledger)."""
        slot = f".locks/{name}"
        lock = self._locks.get(slot)
        if lock is None:
            lock = self._locks[slot] = self._make_lock(
                os.path.join(self.root, ".locks", name)
            )
        return lock

    # -- metrics -----------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        if self.metrics is not None:
            self.metrics.counter(name, _METRIC_HELP.get(name, "")).inc(n)

    def attach_metrics(self, registry) -> None:
        """Adopt a registry, flushing counts buffered before it existed."""
        if registry is None or registry is self.metrics:
            return
        self.metrics = registry
        for name, value in self.counters.items():
            if value:
                registry.counter(name, _METRIC_HELP.get(name, "")).inc(value)

    # -- writes ------------------------------------------------------------

    def put_text(self, key: str, name: str, text: str) -> str:
        """Atomically publish ``text`` as ``<key>/<name>`` (checksummed)."""

        def writer(tmp: str) -> None:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)

        return self.put_file(key, name, writer)

    def put_file(self, key: str, name: str, writer: Callable[[str], None]) -> str:
        """Atomically publish an artifact produced by ``writer(tmp_path)``.

        The writer must create ``tmp_path``; the store checksums it,
        moves it to its final name, and records the manifest sidecar —
        all under the key's writer lock.
        """
        key_dir = self.key_dir(key)
        with self.lock(key):
            self._sweep_tmps(key_dir)
            tmp = os.path.join(key_dir, f".{name}.tmp-{os.getpid()}")
            writer(tmp)
            return self._publish(key_dir, name, tmp)

    def _publish(self, key_dir: str, name: str, tmp: str) -> str:
        digest = mf.file_sha256(tmp)
        size = os.path.getsize(tmp)
        self._maybe_fault(name, tmp, size)
        final = os.path.join(key_dir, name)
        os.replace(tmp, final)
        mf.record_entry(key_dir, name, digest, size)
        return final

    def _maybe_fault(self, name: str, tmp: str, size: int) -> None:
        if self.faults is None:
            return
        action = self.faults.check_store_write(name, self.fault_attempt)
        if action is None:
            return
        if action == "kill_in_store_write":
            # Die mid-flush: leave a torn tmp behind, never publish.
            with open(tmp, "r+b") as handle:
                handle.truncate(max(size // 2, 1))
            from repro.resilience.faults import KILL_EXIT_CODE

            os._exit(KILL_EXIT_CODE)
        if action == "torn_store_write":
            # Publish a truncated payload against the full-payload
            # checksum: the next verified read must catch and heal it.
            with open(tmp, "r+b") as handle:
                handle.truncate(max(size // 2, 1))

    def _sweep_tmps(self, key_dir: str) -> int:
        """Remove orphaned tmp files (lock held, so none can be live)."""
        swept = 0
        try:
            names = os.listdir(key_dir)
        except FileNotFoundError:
            return 0
        for name in names:
            if _is_tmp(name):
                try:
                    os.unlink(os.path.join(key_dir, name))
                    swept += 1
                except OSError:
                    pass
        if swept:
            self._count("store.torn_tmp_cleaned", swept)
        return swept

    # -- verified reads ----------------------------------------------------

    def artifact_path(self, key: str, name: str, *, heal: bool = False) -> Optional[str]:
        """Path to a verified artifact, or ``None`` when absent/corrupt.

        Without ``heal`` this is lock-free and judgment-free: a checksum
        mismatch degrades to "missing" (it may be a benign race with a
        writer between artifact and manifest publication).  With
        ``heal`` the mismatch is re-checked under the key lock and a
        confirmed-corrupt entry is quarantined to ``.corrupt-N/``.
        """
        key_dir = self.key_dir(key)
        path = os.path.join(key_dir, name)
        if not os.path.exists(path):
            return None
        entry = mf.entry_for(key_dir, name)
        if entry is None:
            return path  # legacy/untracked: present-but-unverified
        if self._entry_matches(path, entry):
            return path
        if not heal:
            return None
        with self.lock(key):
            entry = mf.entry_for(key_dir, name)
            if not os.path.exists(path):
                return None
            if entry is None or self._entry_matches(path, entry):
                return path
            self.quarantine(key, name)
            return None

    @staticmethod
    def _entry_matches(path: str, entry: dict) -> bool:
        try:
            if os.path.getsize(path) != entry.get("size"):
                return False
            return mf.file_sha256(path) == entry.get("sha256")
        except OSError:
            return False

    def read_text(self, key: str, name: str, *, heal: bool = False) -> Optional[str]:
        path = self.artifact_path(key, name, heal=heal)
        if path is None:
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError:
            return None

    def read_json(self, key: str, name: str, *, heal: bool = False):
        """Verified JSON read; undecodable content is missing (or healed).

        Catches the legacy-artifact case too: an untracked file passes
        the (absent) checksum but may still be torn JSON.
        """
        import json

        text = self.read_text(key, name, heal=heal)
        if text is None:
            return None
        try:
            return json.loads(text)
        except ValueError:
            if heal:
                with self.lock(key):
                    try:
                        with open(os.path.join(self.key_dir(key), name), "r",
                                  encoding="utf-8") as handle:
                            return json.loads(handle.read())
                    except (OSError, ValueError):
                        self.quarantine(key, name)
            return None

    def quarantine(self, key: str, name: str) -> Optional[str]:
        """Move a confirmed-bad artifact to ``.corrupt-N/`` (lock held)."""
        key_dir = self.key_dir(key)
        path = os.path.join(key_dir, name)
        n = 0
        while os.path.exists(os.path.join(key_dir, f".corrupt-{n}", name)):
            n += 1
        dest_dir = os.path.join(key_dir, f".corrupt-{n}")
        os.makedirs(dest_dir, exist_ok=True)
        try:
            os.replace(path, os.path.join(dest_dir, name))
        except OSError:
            return None
        mf.drop_entry(key_dir, name)
        self._count("resilience.store.corrupt")
        return dest_dir

    def touch(self, key: str) -> None:
        """Best-effort read-side LRU bump (mtime of the manifest)."""
        try:
            os.utime(os.path.join(self.key_dir(key), mf.MANIFEST_NAME))
        except OSError:
            pass

    # -- maintenance: stats / verify / gc ----------------------------------

    def _key_bytes(self, key_dir: str) -> int:
        total = 0
        for dirpath, _dirnames, filenames in os.walk(key_dir):
            for name in filenames:
                try:
                    total += os.path.getsize(os.path.join(dirpath, name))
                except OSError:
                    pass
        return total

    def _last_access(self, key_dir: str) -> float:
        manifest = mf.load_manifest(key_dir)
        stamp = float(manifest.get("last_access") or 0.0)
        try:
            stamp = max(stamp, os.stat(os.path.join(key_dir, mf.MANIFEST_NAME)).st_mtime)
        except OSError:
            pass
        return stamp

    def _probe_locked(self, key: str) -> bool:
        """True when another writer currently holds the key (non-blocking)."""
        probe = self._make_lock(self.key_dir(key))
        try:
            probe.acquire(timeout=0)
        except StoreLockTimeout:
            return True
        probe.release()
        return False

    def stats(self) -> dict:
        rows = []
        total = 0
        for key in self.keys():
            key_dir = self.key_dir(key)
            nbytes = self._key_bytes(key_dir)
            total += nbytes
            manifest = mf.load_manifest(key_dir)
            rows.append({
                "key": key,
                "bytes": nbytes,
                "entries": len(manifest["entries"]),
                "last_access": self._last_access(key_dir),
                "locked": self._probe_locked(key),
            })
        rows.sort(key=lambda r: (r["last_access"], r["key"]))
        return {"root": self.root, "keys": len(rows), "total_bytes": total,
                "rows": rows}

    def verify_key(self, key: str, *, heal: bool = False) -> dict:
        """Check every manifest entry of one key against its sidecar."""
        key_dir = self.key_dir(key)
        manifest = mf.load_manifest(key_dir)
        corrupt, missing = [], []
        for name, entry in sorted(manifest["entries"].items()):
            path = os.path.join(key_dir, name)
            if not os.path.exists(path):
                missing.append(name)
            elif not self._entry_matches(path, entry):
                corrupt.append(name)
        healed = 0
        if heal and corrupt:
            with self.lock(key):
                for name in list(corrupt):
                    path = os.path.join(key_dir, name)
                    entry = mf.entry_for(key_dir, name)
                    if entry is None or not os.path.exists(path):
                        continue
                    if self._entry_matches(path, entry):
                        corrupt.remove(name)  # writer fixed it meanwhile
                        continue
                    if self.quarantine(key, name) is not None:
                        healed += 1
        torn_tmps = []
        try:
            torn_tmps = sorted(n for n in os.listdir(key_dir) if _is_tmp(n))
        except FileNotFoundError:
            pass
        if heal and torn_tmps and not self._probe_locked(key):
            with self.lock(key):
                self._sweep_tmps(key_dir)
        untracked = sorted(
            n for n in (os.listdir(key_dir) if os.path.isdir(key_dir) else [])
            if not n.startswith(".") and not _is_tmp(n)
            and n != mf.MANIFEST_NAME
            and os.path.isfile(os.path.join(key_dir, n))
            and n not in manifest["entries"]
        )
        return {"key": key, "entries": len(manifest["entries"]),
                "corrupt": corrupt, "missing": missing, "healed": healed,
                "torn_tmps": torn_tmps, "untracked": untracked}

    def verify(self, *, heal: bool = False) -> dict:
        """Sweep the whole store; with ``heal`` quarantine what fails."""
        reports = [self.verify_key(key, heal=heal) for key in self.keys()]
        return {
            "root": self.root,
            "keys": len(reports),
            "entries": sum(r["entries"] for r in reports),
            "corrupt": sum(len(r["corrupt"]) for r in reports),
            "missing": sum(len(r["missing"]) for r in reports),
            "healed": sum(r["healed"] for r in reports),
            "torn_tmps": sum(len(r["torn_tmps"]) for r in reports),
            "untracked": sum(len(r["untracked"]) for r in reports),
            "reports": reports,
        }

    def gc(self, max_bytes: int, *, dry_run: bool = False) -> dict:
        """Evict least-recently-used keys until the store fits ``max_bytes``.

        Keys whose writer lock cannot be taken without blocking are
        in-flight and skipped — GC never yanks a directory out from
        under an active writer.
        """
        snapshot = self.stats()
        total = snapshot["total_bytes"]
        evicted, skipped = [], []
        for row in snapshot["rows"]:  # already LRU-ordered
            if total <= max_bytes:
                break
            key = row["key"]
            lock = self._make_lock(self.key_dir(key))
            try:
                lock.acquire(timeout=0)
            except StoreLockTimeout:
                skipped.append(key)
                continue
            try:
                if not dry_run:
                    shutil.rmtree(self.key_dir(key), ignore_errors=True)
                    self._locks.pop(key, None)
                    self._count("store.gc_evicted_keys")
                evicted.append(key)
                total -= row["bytes"]
            finally:
                lock.release()
        return {
            "root": self.root,
            "max_bytes": int(max_bytes),
            "before_bytes": snapshot["total_bytes"],
            "after_bytes": total,
            "evicted": evicted,
            "skipped_locked": skipped,
            "dry_run": dry_run,
        }
