"""On-disk store of enumerated candidate sets (the cold-start killer).

Enumerating a tuning space — even vectorized — and generating per-bucket
CONV candidates is work a fresh process should not repeat: the surviving
tuning-parameter *columns* fully determine the candidate list and its
log-feature matrix (bit-for-bit; see
:meth:`repro.inference.search.CandidateRecord.materialize`).  This module
persists exactly those columns, one ``.npz`` per cache key, in a
directory next to the :class:`~repro.core.profile_cache.ProfileCache`.

Two kinds of record round-trip:

* ``enum`` — a full (op, device, dtype, space) enumeration from
  :func:`repro.inference.search.legal_configs`;
* ``conv-bucket`` — a CONV candidate set, one per distinct tile
  factorization, from
  :func:`repro.inference.conv_search.conv_candidates_batch`.  A record
  saved under the older, finer key (one per pow2 extent pair) loads
  under its canonical key.  ``load()`` reads files under a canonical
  key first and skips a superseded one whose record is already held,
  without hashing it; ``save()`` unlinks a superseded file once the
  canonical file holds its record.

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
_KIND_CONV = "conv-bucket"

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

def collect_cache_records() -> list[tuple[str, tuple, str, tuple | None,
                                          dict]]:
    """Every in-memory candidate set as ``(kind, key, op, space, columns)``.

    The export form both :meth:`CandidateStore.save` and the worker-tier
    shared-memory boot consume: tuning-parameter columns only (records
    from the scalar fallback have their columns recovered from the config
    objects), ops no longer registered skipped.
    """
    from repro.core.ops import get_op, registered_ops
    from repro.core.soa import config_columns
    from repro.inference.conv_search import bucket_cache_snapshot
    from repro.inference.search import enum_cache_snapshot

    records = [
        (_KIND_ENUM, key, rec)
        for key, rec in enum_cache_snapshot().items()
    ]
    records += [
        (_KIND_CONV, key, rec)
        for key, rec in bucket_cache_snapshot().items()
    ]
    out = []
    for kind, key, rec in records:
        if rec.op not in registered_ops():
            continue  # transient op (e.g. a test spec since removed)
        params = rec.params
        if params is None:
            # Scalar-path record: recover the columns from the objects.
            if not rec.configs:
                continue
            spec = get_op(rec.op)
            params = config_columns(
                rec.configs, spec.config_type.param_names()
            )
        out.append((kind, tuple(key), rec.op, rec.space_params, params))
    return out


def _superseding_key(meta: Mapping) -> tuple | None:
    """The canonical key of a conv file stored under an older, finer key.

    None for any other file: an enum record, or a conv record already
    under its canonical key.
    """
    from repro.inference.conv_search import canonical_bucket_key

    if meta.get("kind") != _KIND_CONV:
        return None
    canon = canonical_bucket_key(meta["key"])
    return None if canon == tuple(meta["key"]) else canon


def seed_cache_record(
    kind: str,
    key: tuple,
    op: str,
    params: Mapping[str, np.ndarray],
    space_params: tuple | None,
) -> bool:
    """Publish one record into the in-process caches; True if kept.

    The single seeding point behind :meth:`CandidateStore.load` and the
    worker-tier attach: guards against ops this process has not
    registered and against columns predating a config-schema change, then
    routes to the enum or conv-bucket cache by ``kind``.
    """
    from repro.core.ops import get_op, registered_ops
    from repro.inference.conv_search import seed_bucket_record
    from repro.inference.search import seed_enum_record

    if op not in registered_ops():
        return False  # op from another process/run; nothing to seed
    spec = get_op(op)
    if not set(spec.config_type.param_names()) <= set(params):
        return False  # columns predate a config-schema change
    if kind == _KIND_CONV:
        return bool(seed_bucket_record(key, params, space_params))
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
    def _filename(kind: str, key: Hashable) -> str:
        parts = "--".join(_slug(p) for p in key)
        return f"{kind}--{parts}.npz"

    def _write(
        self,
        path: Path,
        kind: str,
        key: Hashable,
        op: str,
        params: Mapping[str, np.ndarray],
        space_params: tuple | None,
    ) -> None:
        """Atomic write: a crash mid-save never leaves a torn record."""
        meta = json.dumps(
            {
                "version": _VERSION,
                "kind": kind,
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
        first: a file of another store version, or one under a
        superseded conv key whose record is already held, is skipped
        before it is hashed or its columns read.  A file that fails its
        digest check or cannot be parsed is quarantined
        (``*.corrupt-<digest8>``) — the corresponding set simply
        re-enumerates and is re-saved later.
        """
        from repro.inference.conv_search import bucket_cache_snapshot

        entries = []
        for path in self.files():
            _inject("candidate_store.load", path)
            peek = self._peek(path)
            if peek is not None and peek[0].get("version") != _VERSION:
                continue
            canon = None if peek is None else _superseding_key(peek[0])
            entries.append((path, canon))
        # Files under a canonical key go first, so a superseded file of
        # the same record finds it held and costs no hashing.
        entries.sort(key=lambda e: e[1] is not None)
        seeded = 0
        for path, canon in entries:
            if canon is not None and canon in bucket_cache_snapshot():
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
                meta.get("kind", _KIND_ENUM),
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
        conv file under a superseded key is unlinked, sidecar included,
        once the file under its canonical key holds a current record.
        """
        written = 0
        for kind, key, op, space_params, params in collect_cache_records():
            path = self._dir / self._filename(kind, key)
            if path.exists():
                if self._holds(path, key, space_params, params):
                    continue
                integrity.digest_path(path).unlink(missing_ok=True)
            self._dir.mkdir(parents=True, exist_ok=True)
            self._write(path, kind, key, op, params, space_params)
            written += 1
        for path in self.files():
            peek = self._peek(path)
            canon = None if peek is None else _superseding_key(peek[0])
            if canon is not None and self._holds(
                self._dir / self._filename(_KIND_CONV, canon), canon,
                _decode_space(peek[0].get("space")), peek[1],
            ):
                integrity.digest_path(path).unlink(missing_ok=True)
                path.unlink(missing_ok=True)
        return written
