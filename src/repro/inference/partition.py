"""Row-partitioned scoring on one process-wide thread pool.

Scoring a candidate set is a chain of small products: chunks of a few
thousand rows times a 32- or 64-wide layer.  A multi-threaded BLAS gains
little inside one such product, so the CPUs it would spend there are
spent across rows instead: :func:`map_rows` splits ``[0, n)`` into ``W``
contiguous, chunk-aligned ranges and runs one per thread, each on a
one-thread BLAS.

``W``, the scoring width, is the process's BLAS thread budget
(:func:`blas_threads`), so a process capped to one BLAS thread — a
worker of the sharded tier, or any run under ``OPENBLAS_NUM_THREADS=1``
— scores serially in the calling thread, and so does a process whose
BLAS exposes no runtime thread control.  The width never changes a
number: every chunk keeps its rows and goes through the same BLAS call
it would make serially.

The BLAS control is a small ctypes handle on the thread-count getter and
setter numpy's bundled OpenBLAS exports.  In the pthreads builds numpy
ships, even ``openblas_set_num_threads_local`` sets the count of the
whole process, so "one BLAS thread per scoring thread" is a process-wide
cap held while any partitioned call runs: the first call to start saves
the budget and sets one thread, the last to finish restores it.
Concurrent callers — two serving shards flushing at once, a
recalibration beside a search — queue their ranges on the same ``W``
threads instead of stacking BLAS thread pools on the same CPUs.

The pool is created on first use; a child forked afterwards starts with
no pool (its threads did not survive the fork) and builds its own.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path
from typing import Callable

__all__ = ["blas_threads", "map_rows", "scoring_width", "set_blas_threads"]


def _load_controls():
    """numpy's OpenBLAS thread-count (getter, setter), or None.

    numpy's wheels vendor the library next to the package (``numpy.libs``
    on Linux and Windows, ``numpy/.dylibs`` on macOS); loading that file
    again returns the handle numpy already uses.  Any other BLAS leaves
    the scoring width at 1.
    """
    import numpy

    base = Path(numpy.__file__).parent
    for folder in (base.parent / "numpy.libs", base / ".dylibs"):
        for path in sorted(folder.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
                getter = lib.scipy_openblas_get_num_threads64_
                setter = lib.scipy_openblas_set_num_threads64_
            except (OSError, AttributeError):
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return getter, setter
    return None


class _RowPool:
    """The process's scoring threads and the BLAS cap they run under."""

    def __init__(self):
        self._lock = threading.Lock()
        self._controls: tuple | None = None
        self._loaded = False
        self._executor: ThreadPoolExecutor | None = None
        self._active = 0  # partitioned calls in flight
        self._budget = 1  # the BLAS count to restore when they finish

    def _blas(self):
        if not self._loaded:
            self._controls = _load_controls()
            self._loaded = True
        return self._controls

    def blas_threads(self) -> int | None:
        with self._lock:
            controls = self._blas()
            if controls is None:
                return None
            return self._budget if self._active else int(controls[0]())

    def set_blas_threads(self, n: int) -> bool:
        if n < 1:
            raise ValueError(f"BLAS threads must be >= 1, got {n}")
        with self._lock:
            controls = self._blas()
            if controls is None:
                return False
            if self._active:
                self._budget = int(n)  # applied when the cap lifts
            else:
                controls[1](int(n))
            return True

    def _cap(self, width: int) -> ThreadPoolExecutor:
        """Enter a partitioned call: one BLAS thread, the pool running."""
        with self._lock:
            controls = self._blas()
            if self._active == 0 and controls is not None:
                self._budget = int(controls[0]())
                controls[1](1)
            self._active += 1
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=width, thread_name_prefix="repro-score"
                )
            return self._executor

    def _uncap(self) -> None:
        with self._lock:
            self._active -= 1
            if self._active == 0 and self._controls is not None:
                self._controls[1](self._budget)

    def run(self, ranges: list[tuple[int, int]], fn, width: int) -> None:
        executor = self._cap(width)
        try:
            futures = [executor.submit(fn, lo, hi) for lo, hi in ranges]
            wait(futures)
        finally:
            self._uncap()
        for future in futures:
            future.result()  # first failure, after every range finished

    def after_fork_in_child(self) -> None:
        """Drop the parent's pool; lift a cap no thread is left to lift."""
        self._lock = threading.Lock()
        self._executor = None
        if self._active and self._controls is not None:
            self._controls[1](self._budget)
        self._active = 0


_POOL = _RowPool()
os.register_at_fork(after_in_child=_POOL.after_fork_in_child)


def blas_threads() -> int | None:
    """The process's BLAS thread budget; None without a runtime control.

    While partitioned calls hold the one-thread cap this is the budget
    they will restore, not the cap.
    """
    return _POOL.blas_threads()


def set_blas_threads(n: int) -> bool:
    """Set the process's BLAS thread budget; False if BLAS has no control.

    Takes effect at once, even after numpy's import (unlike the
    ``OPENBLAS_NUM_THREADS`` variable, which BLAS reads only when it
    loads).
    """
    return _POOL.set_blas_threads(n)


def scoring_width() -> int:
    """``W``: how many row ranges a scoring call is split into at most."""
    return blas_threads() or 1


def map_rows(n: int, chunk: int, fn: Callable[[int, int], None]) -> None:
    """Call ``fn(lo, hi)`` over contiguous ranges covering ``[0, n)``.

    At most :func:`scoring_width` ranges, each a whole number of
    ``chunk``-row chunks except where ``n`` ends, so chunk boundaries
    fall where a serial walk would put them.  One range runs inline in
    the caller; more run on the shared pool under the one-thread BLAS
    cap, and ``fn`` must then write only its own rows.  An exception
    raised by any range reaches the caller after every range finished.
    """
    width = scoring_width()
    chunks = -(-n // chunk)
    parts = min(width, chunks)
    if parts <= 1:
        fn(0, n)
        return
    bounds = [min(n, chunk * (chunks * p // parts)) for p in range(parts + 1)]
    _POOL.run(list(zip(bounds[:-1], bounds[1:])), fn, width)
