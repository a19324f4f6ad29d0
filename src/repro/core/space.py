"""Tuning-parameter spaces: the paper's X̂ (possible) and X (legal) sets.

A :class:`ParamSpace` names each tuning parameter and the candidate values it
may take (powers of two, per §4.2 of the paper).  ``X̂`` is the cartesian
product of these value sets; the *legal* subset ``X`` is carved out by
:mod:`repro.core.legality` and depends on the device and data-type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np


@dataclass(frozen=True)
class ParamSpace:
    """An ordered mapping ``parameter name -> tuple of candidate values``."""

    name: str
    params: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.params)

    def values(self, param: str) -> tuple[int, ...]:
        for n, v in self.params:
            if n == param:
                return v
        raise KeyError(f"{self.name}: unknown parameter {param!r}")

    @property
    def size(self) -> int:
        """Cardinality of X̂ — the unconstrained product space."""
        total = 1
        for _, vals in self.params:
            total *= len(vals)
        return total

    def iter_points(self) -> Iterator[dict[str, int]]:
        """Enumerate every point of X̂ as a name->value dict."""
        names = self.names
        for combo in itertools.product(*(v for _, v in self.params)):
            yield dict(zip(names, combo))

    def grid(self) -> dict[str, np.ndarray]:
        """The full X̂ as struct-of-arrays columns, one int64 array per
        parameter, in exactly :meth:`iter_points` order (row-major product).

        This is the array-native form the vectorized candidate pipeline
        consumes: ``spec.legal_mask`` filters a whole grid in one call
        instead of one ``is_legal`` per point.  The enumeration calls it
        once per block, a sub-space with the leading parameters fixed
        (``repro.inference.search._blocks``; GEMM: 125 blocks of 15,120
        points), so it never holds all of a large X̂ at once.
        """
        arrays = np.meshgrid(
            *(np.asarray(v, dtype=np.int64) for _, v in self.params),
            indexing="ij",
        )
        return {n: a.reshape(-1) for n, a in zip(self.names, arrays)}

    def contains(self, point: Mapping[str, int]) -> bool:
        return all(point.get(n) in vals for n, vals in self.params)


def _pows2(lo: int, hi: int) -> tuple[int, ...]:
    out = []
    v = lo
    while v <= hi:
        out.append(v)
        v *= 2
    return tuple(out)


#: GEMM tuning space — 10 parameters (§4: "there are 10 tuning parameters").
GEMM_SPACE = ParamSpace(
    name="gemm",
    params=(
        ("ms", _pows2(1, 16)),
        ("ns", _pows2(1, 16)),
        ("ml", _pows2(16, 256)),
        ("nl", _pows2(16, 256)),
        ("u", _pows2(1, 32)),
        ("ks", _pows2(1, 4)),
        ("kl", _pows2(1, 8)),
        ("kg", _pows2(1, 64)),
        ("vec", _pows2(1, 4)),
        ("db", (1, 2)),
    ),
)

#: CONV tuning space (§3.3): five tiled dimensions plus CS/CL/CG, U, vec, db.
CONV_SPACE = ParamSpace(
    name="conv",
    params=(
        ("kt", _pows2(1, 8)),
        ("pt", _pows2(1, 4)),
        ("qt", _pows2(1, 4)),
        ("nt", _pows2(1, 4)),
        ("kb", _pows2(8, 128)),
        ("pb", _pows2(1, 16)),
        ("qb", _pows2(1, 16)),
        ("nb", _pows2(1, 32)),
        ("u", _pows2(1, 32)),
        ("cs", _pows2(1, 4)),
        ("cl", _pows2(1, 8)),
        ("cg", _pows2(1, 32)),
        ("vec", _pows2(1, 4)),
        ("db", (1, 2)),
    ),
)


def table1_space(base: ParamSpace) -> ParamSpace:
    """The paper's Table 1 protocol: every parameter a power of two in [1, 16].

    This is the setting in which the paper measures 0.1% uniform acceptance
    vs ~20% for the categorical model — a much smaller and harsher space
    than the production tuning space, because block tiles as small as 1
    make the thread-count and divisibility constraints bind almost always.
    """
    # db keeps its boolean domain; everything else spans {1, 2, 4, 8, 16}.
    params = tuple(
        (name, vals if name == "db" else _pows2(1, 16))
        for name, vals in base.params
    )
    return ParamSpace(name=f"{base.name}-table1", params=params)


def enumerate_legal(
    space: ParamSpace,
    make_config: Callable[[Mapping[str, int]], object],
    is_legal: Callable[[object], bool],
    limit: int | None = None,
) -> list[object]:
    """Exhaustively enumerate X = {x in X̂ : legal(x)}.

    ``limit`` bounds the number of returned configs (useful in tests); the
    full GEMM space enumerates in a few seconds and is cached by callers.
    """
    out: list[object] = []
    for point in space.iter_points():
        cfg = make_config(point)
        if is_legal(cfg):
            out.append(cfg)
            if limit is not None and len(out) >= limit:
                break
    return out
