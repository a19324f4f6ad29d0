"""On-disk store of enumerated candidate sets (the cold-start killer).

Enumerating a tuning space — even vectorized — is work a fresh process
should not repeat: the surviving tuning-parameter *columns* fully
determine the candidate list and its log-feature matrix (bit-for-bit;
see :meth:`repro.inference.search.CandidateRecord.materialize`).  This
module persists exactly those columns, one ``.npz`` per (op, device,
dtype, space) enumeration from
:func:`repro.inference.search.legal_configs`, in a directory next to
the :class:`~repro.core.profile_cache.ProfileCache`.

CONV candidate sets are not stored: each derives from the GEMM
enumeration (:mod:`repro.inference.conv_search`) in less time than
hashing and reading its file would take.  Files of the ``conv-bucket``
kind older stores wrote are skipped by ``load()`` on their ``__meta__``,
before they are hashed, and unlinked with their sidecar by ``save()``.

``load()`` seeds the in-process caches with params-only records (config
objects stay lazy until first use), so a warmed directory makes cold
start perform **zero** product-space enumeration.  ``save()`` writes any
cache entry not yet on disk and rewrites a stale file; records are
immutable, so a file that holds its record is never rewritten.  The
:class:`~repro.service.engine.Engine` loads the store on construction
and saves it on ``warmup()`` / ``close()``.

Staleness is guarded three ways: files from another store ``_VERSION``
are ignored before they are hashed or their columns read (and
rewritten by the next ``save()``), records whose
columns no longer cover the op's config schema are skipped at load, and
every record carries the space value sets it was enumerated from — the
caches re-enumerate on mismatch rather than serving a pre-edit
candidate set, and the next ``save()`` replaces the pre-edit file.

The candidate caches are process-global (they are keyed by device /
dtype / space, not by engine), so ``save()`` persists everything the
process has enumerated — two engines sharing a process may write each
other's (valid) records, which is intended: the store is a shared
artifact, like the caches behind it.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import zipfile
from pathlib import Path
from typing import Hashable, Iterable, Mapping

import numpy as np

from repro.core import integrity


def _inject(site: str, path: Path | None = None) -> None:
    """Fault-injection checkpoint (lazy import keeps core/ -> service/ soft)."""
    from repro.service.faults import inject

    inject(site, path)

_KIND_ENUM = "enum"

#: Store format version.  Bump it whenever the record layout *or the
#: legality semantics* change: files with another version are ignored and
#: regenerate.  (Space-value edits need no bump — every record carries
#: the value sets it was enumerated from, and the caches re-enumerate on
#: mismatch.)
_VERSION = 1


def _encode_space(space_params: tuple | None) -> list | None:
    if space_params is None:
        return None
    return [[name, list(vals)] for name, vals in space_params]


def _decode_space(encoded: list | None) -> tuple | None:
    if encoded is None:
        return None
    return tuple((name, tuple(vals)) for name, vals in encoded)


def _slug(part: object) -> str:
    return re.sub(r"[^a-z0-9_.]+", "-", str(part).lower()).strip("-")


# ----------------------------------------------------------------------
# Cache <-> record plumbing, shared by the disk store and the worker tier
# ----------------------------------------------------------------------

def collect_cache_records() -> list[tuple[tuple, str, tuple | None, dict]]:
    """Every in-memory enumeration as ``(key, op, space, columns)``.

    The export form both :meth:`CandidateStore.save` and the worker-tier
    shared-memory boot consume: tuning-parameter columns only, ops no
    longer registered skipped.  CONV buckets are left out: a process
    derives them from the GEMM enumeration.
    """
    from repro.core.ops import registered_ops
    from repro.inference.search import enum_cache_snapshot

    return [
        (tuple(key), rec.op, rec.space_params, rec.params)
        for key, rec in enum_cache_snapshot().items()
        # A transient op (e.g. a test spec since removed) is skipped.
        if rec.op in registered_ops()
    ]


def _retired(meta: Mapping) -> bool:
    """A record of this store version whose kind is no longer written."""
    return (
        meta.get("version") == _VERSION
        and meta.get("kind", _KIND_ENUM) != _KIND_ENUM
    )


def seed_cache_record(
    key: tuple,
    op: str,
    params: Mapping[str, np.ndarray],
    space_params: tuple | None,
) -> bool:
    """Publish one enumeration into the in-process cache; True if kept.

    The single seeding point behind :meth:`CandidateStore.load` and the
    worker-tier attach: guards against ops this process has not
    registered and against columns predating a config-schema change.
    """
    from repro.core.ops import get_op, registered_ops
    from repro.inference.search import seed_enum_record

    if op not in registered_ops():
        return False  # op from another process/run; nothing to seed
    spec = get_op(op)
    if not set(spec.config_type.param_names()) <= set(params):
        return False  # columns predate a config-schema change
    return bool(seed_enum_record(key, op, params, space_params))


class CandidateStore:
    """A directory of ``.npz`` candidate-set records keyed like the caches."""

    def __init__(self, directory: str | Path):
        self._dir = Path(directory)

    @property
    def directory(self) -> Path:
        return self._dir

    def files(self) -> list[Path]:
        if not self._dir.is_dir():
            return []
        return sorted(self._dir.glob("*.npz"))

    def __len__(self) -> int:
        return len(self.files())

    # ------------------------------------------------------------------
    @staticmethod
    def _filename(key: Hashable) -> str:
        parts = "--".join(_slug(p) for p in key)
        return f"{_KIND_ENUM}--{parts}.npz"

    def _write(
        self,
        path: Path,
        key: Hashable,
        op: str,
        params: Mapping[str, np.ndarray],
        space_params: tuple | None,
    ) -> None:
        """Atomic write: a crash mid-save never leaves a torn record."""
        meta = json.dumps(
            {
                "version": _VERSION,
                "kind": _KIND_ENUM,
                "op": op,
                "key": list(key),
                "space": _encode_space(space_params),
            }
        )
        fd, tmp = tempfile.mkstemp(
            dir=self._dir, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as f:
                np.savez(f, __meta__=np.array(meta), **params)
            os.replace(tmp, path)
            integrity.write_digest(path)
            _inject("candidate_store.save", path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    @staticmethod
    def _peek(path: Path) -> tuple[dict, set[str]] | None:
        """A file's ``__meta__`` and column names, or None if unreadable.

        Only the archive's member list and its small ``__meta__`` member
        are read, never a column.
        """
        try:
            with np.load(path, allow_pickle=False) as z:
                return (json.loads(str(z["__meta__"])),
                        set(z.files) - {"__meta__"})
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            return None

    def load(self) -> int:
        """Seed the in-process candidate caches from disk.

        Returns the number of records seeded (keys already cached in
        memory keep their entry).  Each file's ``__meta__`` is read
        first: a file of another store version or of a retired kind is
        skipped before it is hashed or its columns read.  A file that
        fails its digest check or cannot be parsed is quarantined
        (``*.corrupt-<digest8>``) — the corresponding set simply
        re-enumerates and is re-saved later.
        """
        seeded = 0
        for path in self.files():
            _inject("candidate_store.load", path)
            peek = self._peek(path)
            if peek is not None and (
                peek[0].get("version") != _VERSION or _retired(peek[0])
            ):
                continue
            if integrity.check(path) is False:
                import warnings

                target = integrity.quarantine(path)
                warnings.warn(
                    f"candidate record {path} failed its integrity check; "
                    f"quarantined to {target.name} (will re-enumerate)",
                    stacklevel=2,
                )
                continue
            try:
                with np.load(path, allow_pickle=False) as z:
                    meta = json.loads(str(z["__meta__"]))
                    params = {
                        name: z[name] for name in z.files if name != "__meta__"
                    }
            except (OSError, ValueError, KeyError,
                    zipfile.BadZipFile) as exc:
                import warnings

                target = integrity.quarantine(path)
                warnings.warn(
                    f"skipping unreadable candidate record {path}: {exc} "
                    f"(quarantined to {target.name})",
                    stacklevel=2,
                )
                continue
            seeded += seed_cache_record(
                tuple(meta["key"]),
                meta.get("op", meta["key"][0]),
                params,
                _decode_space(meta.get("space")),
            )
        return seeded

    @classmethod
    def _holds(
        cls,
        path: Path,
        key: tuple,
        space_params: tuple | None,
        columns: Iterable[str],
    ) -> bool:
        """Whether the file at ``path`` is this record as load() reads it.

        A file of another store version, key, space or column set, or
        one that cannot be read, is stale.
        """
        peek = cls._peek(path)
        if peek is None:
            return False
        meta, names = peek
        return (
            meta.get("version") == _VERSION
            and meta.get("key") == list(key)
            and _decode_space(meta.get("space")) == space_params
            and names == set(columns)
        )

    def save(self) -> int:
        """Persist every in-memory candidate set not yet on disk.

        A file already holding the record is kept.  A stale one (another
        store version, or enumerated before a value edit to a same-named
        space) is rewritten atomically, or every later process would
        skip it and enumerate again.  Its old digest sidecar goes first,
        so a concurrent load() never pairs it with the new bytes.  A
        file of a retired kind is unlinked, sidecar included.
        """
        written = 0
        for key, op, space_params, params in collect_cache_records():
            path = self._dir / self._filename(key)
            if path.exists():
                if self._holds(path, key, space_params, params):
                    continue
                integrity.digest_path(path).unlink(missing_ok=True)
            self._dir.mkdir(parents=True, exist_ok=True)
            self._write(path, key, op, params, space_params)
            written += 1
        for path in self.files():
            peek = self._peek(path)
            if peek is not None and _retired(peek[0]):
                integrity.digest_path(path).unlink(missing_ok=True)
                path.unlink(missing_ok=True)
        return written
