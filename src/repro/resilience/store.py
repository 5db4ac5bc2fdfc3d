"""One verified artifact store for stage checkpoints and campaign results.

Both costly things this repository persists — the pipeline's per-stage
checkpoints and the campaign's per-job result records — live in an
:class:`ArtifactStore`: named entries under ``<root>/<hash>/<name>``, where
``hash`` is the experiment-configuration hash
(:func:`repro.obs.manifest.config_hash`).  Keying by that hash is what makes
restore-vs-recompute bit-exact by construction: an entry can only ever be
read back by the identical configuration.

The store handles bytes only; each caller owns its codec (the pipeline
pickles, :class:`repro.campaign.store.ResultStore` writes canonical JSON).
Every entry is one **sealed file**::

    repro-artifact/1\\n                                magic + format version
    {"key": "<hash>/<name>", "payload_sha256": ...,
     "payload_size": ...}\\n                           JSON header
    <payload>                                         exactly payload_size bytes

Writes go through :func:`atomic_write` (temp file, fsync, atomic rename),
so a crash mid-write never leaves a half-written file under the final name.
Loads verify magic, key, size and SHA-256 — and then the caller's decode
callback — before anything is trusted.  A file failing any of those checks
is **never** used: a tolerant store (the library and campaign default) warns,
counts it (``store.corrupt``) and reports a miss so the work is recomputed;
a strict store (the CLI's ``--resume``) raises :class:`StoreCorruptError`.

The ``checkpoint.save`` chaos point lets tests and the CI chaos-smoke job
publish truncated/corrupt entries on purpose to exercise both paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import warnings
from pathlib import Path
from typing import Callable

from repro import obs
from repro.obs.events import CheckpointEvent
from repro.resilience import chaos
from repro.resilience.errors import StoreCorruptError, StoreError

__all__ = ["ArtifactStore", "MAGIC", "StoreCorruptError", "StoreError", "atomic_write"]

MAGIC = b"repro-artifact/1\n"


def atomic_write(path: Path, data: bytes) -> None:
    """Publish ``data`` at ``path``: a crash leaves the old file or the new.

    The bytes go to a sibling temp file, which is flushed, fsynced and then
    ``os.replace``d over ``path``; on error the temp file is removed and the
    ``OSError`` propagates.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _seal(key: str, payload: bytes, sha: str) -> bytes:
    header = json.dumps(
        {"key": key, "payload_sha256": sha, "payload_size": len(payload)},
        sort_keys=True,
    ).encode("utf-8")
    return MAGIC + header + b"\n" + payload


def _unseal(key: str, data: bytes, path: Path) -> bytes:
    """The verified payload of sealed file ``data``, or StoreCorruptError."""
    if not data.startswith(MAGIC):
        raise StoreCorruptError(f"{path}: not a sealed file (bad magic)")
    line, newline, payload = data[len(MAGIC) :].partition(b"\n")
    if not newline:
        raise StoreCorruptError(f"{path}: truncated header")
    try:
        header = json.loads(line)
    except ValueError as exc:
        raise StoreCorruptError(f"{path}: unparsable header") from exc
    if not isinstance(header, dict) or header.get("key") != key:
        raise StoreCorruptError(f"{path}: header does not name entry {key!r}")
    if len(payload) != header.get("payload_size"):
        raise StoreCorruptError(
            f"{path}: payload is {len(payload)} bytes, header says "
            f"{header.get('payload_size')}"
        )
    if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
        raise StoreCorruptError(f"{path}: payload digest mismatch")
    return payload


def _is_sealed(path: Path) -> bool:
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:  # a directory, or gone
        return False


def _tree_bytes(path: Path) -> int:
    total = 0
    for entry in path.rglob("*"):
        try:
            if entry.is_file():
                total += entry.stat().st_size
        except OSError:
            continue
    return total


class ArtifactStore:
    """Sealed, digest-verified entries under ``<root>/<hash>/<name>``.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per configuration hash; created
        on construction (:class:`StoreError` when that fails).
    strict:
        When True, a corrupt entry raises :class:`StoreCorruptError`; when
        False (default) it is warned about, counted and read as missing.
    """

    def __init__(self, root: str | Path, strict: bool = False):
        self.root = Path(root)
        self.strict = strict
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot create store directory {self.root}: {exc}"
            ) from exc

    def path(self, hash_: str, name: str) -> Path:
        return self.root / hash_ / name

    def has(self, hash_: str, name: str) -> bool:
        """True when entry ``name`` of ``hash_`` exists (unverified)."""
        return self.path(hash_, name).exists()

    def names(self, hash_: str) -> list[str]:
        """Names of the sealed entries of ``hash_``, sorted."""
        entry_dir = self.root / hash_
        if not entry_dir.is_dir():
            return []
        return sorted(p.name for p in entry_dir.iterdir() if _is_sealed(p))

    def save(self, hash_: str, name: str, payload: bytes) -> str:
        """Atomically seal ``payload`` as entry ``name``; returns its SHA-256."""
        sha = hashlib.sha256(payload).hexdigest()
        data = _seal(f"{hash_}/{name}", payload, sha)
        mangle = chaos.planned_kind("checkpoint.save", key=name)
        if mangle == "truncate":
            data = data[: max(len(MAGIC), len(data) // 2)]
        elif mangle == "corrupt":
            flip = len(data) - max(1, len(payload) // 2)
            data = data[:flip] + bytes([data[flip] ^ 0xFF]) + data[flip + 1 :]
        path = self.path(hash_, name)
        try:
            path.parent.mkdir(exist_ok=True)
            atomic_write(path, data)
        except OSError as exc:
            raise StoreError(f"cannot write {path}: {exc}") from exc
        obs.inc("store.saved")
        return sha

    def load(
        self,
        hash_: str,
        name: str,
        decode: Callable[[bytes], object] | None = None,
    ) -> object | None:
        """The verified (and decoded) entry, or None when absent or discarded.

        A sealed file whose checks fail — or whose verified payload
        ``decode`` rejects — is corrupt: strict stores raise
        :class:`StoreCorruptError`, tolerant ones warn, count
        ``store.corrupt`` and return None.  An unreadable file raises
        :class:`StoreError` either way.
        """
        path = self.path(hash_, name)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreError(f"cannot read {path}: {exc}") from exc
        try:
            payload = _unseal(f"{hash_}/{name}", data, path)
            try:
                value = payload if decode is None else decode(payload)
            except Exception as exc:
                raise StoreCorruptError(
                    f"{path}: verified payload does not decode: {exc}"
                ) from exc
        except StoreCorruptError as exc:
            if self.strict:
                raise
            warnings.warn(
                f"discarding corrupt {name} ({exc}); it will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
            obs.inc("store.corrupt")
            if obs.events_enabled():
                obs.emit(CheckpointEvent(stage=name, action="corrupt", path=str(path)))
            return None
        obs.inc("store.loaded")
        return value

    def prune(
        self, keep_hashes: set[str] | frozenset[str], dry_run: bool = False
    ) -> tuple[int, int]:
        """Delete every entry directory whose hash is not in ``keep_hashes``.

        Returns ``(directories, bytes)`` removed — or, with ``dry_run``,
        that a real prune would remove.  Only directories holding at least
        one sealed file are entries; anything else under the root is left
        alone.
        """
        removed = 0
        reclaimed = 0
        for entry_dir in sorted(self.root.iterdir()):
            if entry_dir.name in keep_hashes or not any(
                _is_sealed(p) for p in entry_dir.glob("*")
            ):
                continue
            reclaimed += _tree_bytes(entry_dir)
            if not dry_run:
                shutil.rmtree(entry_dir, ignore_errors=True)
            removed += 1
        return removed, reclaimed
