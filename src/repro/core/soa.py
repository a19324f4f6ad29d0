"""Struct-of-arrays views of (config, shape) batches.

The batched simulator evaluates N ``(config, shape)`` pairs per call.  Its
array cores want columns, not objects: one int64 array per tuning parameter
and per shape extent.  These containers are the single conversion point —
``from_pairs`` walks the Python objects once, everything downstream is
vectorized numpy.

``dsize`` (element bytes: 2/4/8) doubles as the dtype code: it uniquely
identifies fp16/fp32/fp64 and is exactly what the resource, traffic and
throughput models key on.
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.core.config import ConvConfig, GemmConfig
from repro.core.types import ConvShape, GemmShape


def _column(objs: Sequence, attr: str) -> np.ndarray:
    return np.array([getattr(o, attr) for o in objs], dtype=np.int64)


class LazyConfigList(_SequenceABC):
    """An immutable config sequence materialized per index from columns.

    A candidate set can run to ~10^5 rows, but the runtime search only
    ever *touches* its top-k slice — building every frozen dataclass up
    front costs more than the whole vectorized enumeration.  This view
    keeps the struct-of-arrays columns (shared with the cache record, no
    copy) and constructs a config exactly when one is indexed.  Equality
    against any sequence compares element-wise, so parity tests see a
    plain list of configs.

    Columns that depend only on a row's group may be given per group:
    with ``grouped=(group_of, per_group)``, row ``i`` reads column ``c``
    as ``per_group[c][group_of[i]]`` (a CONV bucket: its six split
    columns, one value per tile), so no per-row copy of them exists.
    """

    __slots__ = ("_type", "_cols", "_group_of", "_items")

    def __init__(
        self,
        config_type: type,
        params: Mapping[str, np.ndarray],
        grouped: tuple[np.ndarray, Mapping[str, np.ndarray]] | None = None,
    ):
        group_of, per_group = grouped or (None, {})
        self._type = config_type
        self._group_of = group_of
        #: (column, whether it is indexed by group), in parameter order.
        self._cols = tuple(
            (np.asarray(per_group[n]), True) if n in per_group
            else (np.asarray(params[n]), False)
            for n in config_type.param_names()
        )
        self._items: list | None = None

    def __len__(self) -> int:
        if self._group_of is not None:
            return len(self._group_of)
        return len(self._cols[0][0]) if self._cols else 0

    def __getitem__(self, i):
        if self._items is not None:
            return self._items[i]
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        g = None if self._group_of is None else self._group_of[i]
        return self._type(
            *(int(c[g] if by_group else c[i]) for c, by_group in self._cols)
        )

    def __iter__(self):
        # Full traversals (feature builds, filters, parity compares) are
        # memoized so repeat passes don't reconstruct every object;
        # point lookups above stay allocation-free.
        if self._items is None:
            cols = [
                (np.take(c, self._group_of) if by_group else c).tolist()
                for c, by_group in self._cols
            ]
            self._items = [self._type(*row) for row in zip(*cols)]
        return iter(self._items)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _SequenceABC):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # mutable-compare semantics, like list

    def __repr__(self) -> str:
        return (
            f"LazyConfigList({self._type.__name__}, n={len(self)})"
        )


# ----------------------------------------------------------------------
# Zero-copy column sharing across processes
# ----------------------------------------------------------------------

#: numpy requires 16-byte alignment for float64 views over raw buffers to
#: stay fast; every array in a pack starts on this boundary.
_ALIGN = 64


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class SharedArrayPack:
    """Many named numpy arrays in one ``multiprocessing.shared_memory`` block.

    The worker tier must hand each process the candidate state — the
    enumerations' survivor columns and the first-layer terms (each one
    float32 twin); ~160k rows per enumeration — without a
    per-process copy.  ``create`` lays every array out back-to-back
    (64-byte aligned) in a single segment and returns a picklable
    *manifest* ``{name: (dtype_str, shape, offset)}``; ``attach`` reopens
    the segment by name in another process and rebuilds **read-only
    views** over the same physical pages.  One segment for the
    whole state keeps the fd/page-table footprint constant in the number
    of records.

    Lifecycle: the creator owns the segment and must call :meth:`unlink`
    exactly once (attachers only :meth:`close`).  On Python < 3.13
    attaching registers the segment with the process's resource tracker,
    which would unlink it when the *attacher* exits — :meth:`attach`
    unregisters to keep ownership with the creator.
    """

    def __init__(self, shm, manifest: dict[str, tuple[str, tuple, int]],
                 *, owner: bool):
        self._shm = shm
        self.manifest = manifest
        self._owner = owner

    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return self._shm.size

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: Mapping[str, np.ndarray]) -> "SharedArrayPack":
        """Copy ``arrays`` into one fresh shared segment (the only copy)."""
        from multiprocessing import shared_memory

        manifest: dict[str, tuple[str, tuple, int]] = {}
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            manifest[name] = (arr.dtype.str, arr.shape, offset)
            offset = _aligned(offset + arr.nbytes)
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            dtype_str, shape, off = manifest[name]
            view = np.ndarray(shape, dtype=np.dtype(dtype_str),
                              buffer=shm.buf, offset=off)
            view[...] = arr
        return cls(shm, manifest, owner=True)

    @classmethod
    def attach(
        cls, name: str, manifest: dict[str, tuple[str, tuple, int]]
    ) -> "SharedArrayPack":
        """Reopen a segment created elsewhere; see :meth:`views`."""
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        try:
            # Keep unlink ownership with the creator (see class docstring).
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        return cls(shm, dict(manifest), owner=False)

    # ------------------------------------------------------------------
    def view(self, name: str) -> np.ndarray:
        """A zero-copy (read-only) array over the shared pages."""
        dtype_str, shape, offset = self.manifest[name]
        arr = np.ndarray(shape, dtype=np.dtype(dtype_str),
                         buffer=self._shm.buf, offset=offset)
        arr.flags.writeable = False
        return arr

    def views(self) -> dict[str, np.ndarray]:
        return {name: self.view(name) for name in self.manifest}

    def close(self) -> None:
        """Detach this process's mapping (views become invalid)."""
        try:
            self._shm.close()
        except (OSError, BufferError):  # pragma: no cover - platform noise
            pass

    def unlink(self) -> None:
        """Destroy the segment (creator only); idempotent."""
        self.close()
        if not self._owner:
            return
        self._owner = False
        try:
            # Spawned attachers share this process's resource tracker, so
            # their :meth:`attach`-time unregister removed *our* entry;
            # re-register (set-add, idempotent) so the unregister inside
            # ``unlink`` balances instead of logging a KeyError.
            from multiprocessing import resource_tracker

            resource_tracker.register(self._shm._name, "shared_memory")
        except Exception:
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


@dataclass(frozen=True)
class GemmPairArrays:
    """Parallel columns for N (GemmConfig, GemmShape) pairs."""

    # Tuning parameters (Figure 3's blue parameters).
    ms: np.ndarray
    ns: np.ndarray
    ml: np.ndarray
    nl: np.ndarray
    u: np.ndarray
    ks: np.ndarray
    kl: np.ndarray
    kg: np.ndarray
    vec: np.ndarray
    db: np.ndarray
    # Input parameters.
    m: np.ndarray
    n: np.ndarray
    k: np.ndarray
    dsize: np.ndarray
    ta: np.ndarray            # bool
    tb: np.ndarray            # bool

    def __len__(self) -> int:
        return len(self.ms)

    @classmethod
    def from_pairs(
        cls,
        cfgs: Sequence[GemmConfig],
        shapes: Sequence[GemmShape],
    ) -> "GemmPairArrays":
        if len(cfgs) != len(shapes):
            raise ValueError(
                f"{len(cfgs)} configs vs {len(shapes)} shapes"
            )
        cols = {p: _column(cfgs, p) for p in GemmConfig.param_names()}
        return cls(
            **cols,
            m=_column(shapes, "m"),
            n=_column(shapes, "n"),
            k=_column(shapes, "k"),
            dsize=np.array([s.dtype.size for s in shapes], dtype=np.int64),
            ta=np.array([s.ta for s in shapes], dtype=bool),
            tb=np.array([s.tb for s in shapes], dtype=bool),
        )

    @property
    def threads(self) -> np.ndarray:
        """Threads per block (``GemmConfig.threads``), per pair."""
        return (self.ml // self.ms) * (self.nl // self.ns) * self.kl

    def config_params(self) -> dict[str, np.ndarray]:
        """The tuning-parameter columns, keyed like a space point."""
        return {p: getattr(self, p) for p in GemmConfig.param_names()}


@dataclass(frozen=True)
class ConvPairArrays:
    """Parallel columns for N (ConvConfig, ConvShape) pairs."""

    kt: np.ndarray
    pt: np.ndarray
    qt: np.ndarray
    nt: np.ndarray
    kb: np.ndarray
    pb: np.ndarray
    qb: np.ndarray
    nb: np.ndarray
    u: np.ndarray
    cs: np.ndarray
    cl: np.ndarray
    cg: np.ndarray
    vec: np.ndarray
    db: np.ndarray
    # Input parameters (p/q/crs pre-derived from the shape objects).
    n: np.ndarray
    c: np.ndarray
    k: np.ndarray
    r: np.ndarray
    s: np.ndarray
    p: np.ndarray
    q: np.ndarray
    crs: np.ndarray
    dsize: np.ndarray

    def __len__(self) -> int:
        return len(self.kt)

    @classmethod
    def from_pairs(
        cls,
        cfgs: Sequence[ConvConfig],
        shapes: Sequence[ConvShape],
    ) -> "ConvPairArrays":
        if len(cfgs) != len(shapes):
            raise ValueError(
                f"{len(cfgs)} configs vs {len(shapes)} shapes"
            )
        cols = {p: _column(cfgs, p) for p in ConvConfig.param_names()}
        return cls(
            **cols,
            n=_column(shapes, "n"),
            c=_column(shapes, "c"),
            k=_column(shapes, "k"),
            r=_column(shapes, "r"),
            s=_column(shapes, "s"),
            p=_column(shapes, "p"),
            q=_column(shapes, "q"),
            crs=_column(shapes, "crs"),
            dsize=np.array([s.dtype.size for s in shapes], dtype=np.int64),
        )

    @property
    def threads(self) -> np.ndarray:
        return (
            (self.kb // self.kt)
            * (self.pb // self.pt)
            * (self.qb // self.qt)
            * (self.nb // self.nt)
            * self.cl
        )

    @property
    def block_m(self) -> np.ndarray:
        return self.nb * self.pb * self.qb

    @property
    def block_n(self) -> np.ndarray:
        return self.kb

    @property
    def thread_m(self) -> np.ndarray:
        return self.nt * self.pt * self.qt

    @property
    def thread_n(self) -> np.ndarray:
        return self.kt

    def config_params(self) -> dict[str, np.ndarray]:
        return {p: getattr(self, p) for p in ConvConfig.param_names()}
