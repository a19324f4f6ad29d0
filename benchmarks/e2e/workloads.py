"""The benchmark's workloads: what each one sends, and why.

Every workload is a closed loop: ``clients`` asyncio tasks on one event
loop, each awaiting its reply before sending the next request, as a
framework does when it needs a kernel before a launch.  The traffic is
cold: endless blocks of fresh distinct shapes, each shape sent
``repeats`` times back to back.  A block is one round, like the kernels
of one model being loaded: the clients send the whole block and wait
for its last reply before the next block starts.  Each workload draws
its blocks from one fixed sequence (seeded by the workload's name), and
a run serves a fixed number of them, so every run prices the same
kernels; the run seed drives only the order of sends within each block.
The service receives only the generated requests.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from repro.core.ops import get_op
from repro.core.types import DType, GemmShape
from repro.gpu.device import TESLA_P100
from repro.sampling.dataset import (
    BatchedGemmShapeSampler,
    ConvShapeSampler,
    GemmShapeSampler,
)
from repro.service.engine import KernelRequest

DEVICE = TESLA_P100
DTYPE = DType.FP32

#: Offline budgets per op (set-up, not timed).  Tuning is seeded with 0:
#: the workload seed drives only the traffic.
TUNE = {
    "gemm": dict(n_samples=4000, epochs=20, generative_target=120, seed=0),
    "conv": dict(n_samples=3000, epochs=20, generative_target=120, seed=0),
    "bgemm": dict(n_samples=3000, epochs=20, generative_target=120, seed=0),
}

#: Leading blocks of a workload's fixed sequence whose served kernels
#: make up its quality set.
QUALITY_BLOCKS = 2

_SAMPLERS = {
    "gemm": GemmShapeSampler(dtypes=(DTYPE,)),
    "conv": ConvShapeSampler(dtypes=(DTYPE,)),
    "bgemm": BatchedGemmShapeSampler(dtypes=(DTYPE,)),
}


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _shapes(name: str) -> np.random.Generator:
    """The fixed shape sequence of one workload (independent of the seed)."""
    return np.random.default_rng(zlib.crc32(name.encode()))


def request(op: str, shape) -> KernelRequest:
    # Canonical device/op names: Engine.resolve hands back the very same
    # request object, so front-door and flush spans can be linked by it.
    return KernelRequest(op=op, shape=shape, device=DEVICE.name)


def request_key(req: KernelRequest) -> str:
    return get_op(req.op).profile_key(req.device, req.shape)


class _Distinct:
    """Draws shapes from a sampler, never returning one key twice."""

    def __init__(self, op: str, rng: np.random.Generator,
                 sampler: Callable | None = None):
        self.op = op
        self.rng = rng
        self.sampler = sampler or _SAMPLERS[op]
        self.seen: set[str] = set()

    def draw(self, n: int) -> list[KernelRequest]:
        out = []
        while len(out) < n:
            req = request(self.op, self.sampler(self.rng))
            key = request_key(req)
            if key not in self.seen:
                self.seen.add(key)
                out.append(req)
        return out


@dataclass(frozen=True)
class Workload:
    """One traffic mix plus the serving set-up it runs against."""

    name: str
    why: str
    clients: int
    #: one block: ``(op, count, sampler or None)`` per op
    draws: tuple
    #: sends of each shape, back to back: the first misses and the
    #: repeats coalesce onto it.  (Repeats scattered at random distances
    #: turn into a run-to-run lottery between coalescing and cache hits,
    #: and the loop's batches with it.)
    repeats: int
    #: about the seconds one round takes on the nominal host: a run of
    #: ``--seconds`` serves ``seconds / round_s`` rounds
    round_s: float
    #: the name that seeds the shape sequence and the send order;
    #: cold-gemm-workers sends cold-gemm's traffic, so the pair isolates
    #: the transport
    stream: str = ""
    workers: int = 0
    online: bool = False

    @property
    def ops(self) -> tuple[str, ...]:
        return tuple(op for op, _n, _sampler in self.draws)

    @property
    def round_n(self) -> int:
        """Requests per round: one block with its repeats."""
        return self.repeats * sum(n for _op, n, _sampler in self.draws)

    def _blocks(self) -> Iterator[list[KernelRequest]]:
        """Endless fixed blocks of fresh distinct shapes: block ``i`` is
        the same in every run."""
        rng = _shapes(self.stream or self.name)
        sources = [(_Distinct(op, rng, sampler), n)
                   for op, n, sampler in self.draws]
        while True:
            yield [r for source, n in sources for r in source.draw(n)]

    def traffic(self, seed: int) -> Iterator[KernelRequest]:
        """Each block in an order shuffled by the seed.  Every send is its
        own request object, so a traced run can tell a leader from its
        repeats."""
        rng = _rng(seed, self.stream or self.name)
        for block in self._blocks():
            for i in rng.permutation(len(block)):
                for _ in range(self.repeats):
                    yield replace(block[i])

    def quality(self) -> list[KernelRequest]:
        """The fixed shapes ``kernel_speedup_vs_vendor`` is taken over:
        the first blocks, which every run serves first, whatever the seed
        and the host's speed."""
        blocks = islice(self._blocks(), QUALITY_BLOCKS)
        return [r for block in blocks for r in block]

    def params(self) -> dict:
        """The knobs a result file records next to its numbers."""
        return {
            "ops": list(self.ops),
            "clients": self.clients,
            "round_n": self.round_n,
            "round_s": self.round_s,
            "repeats": self.repeats,
            "stream": self.stream or self.name,
            "workers": self.workers,
            "online": self.online,
            "tune": {op: TUNE[op] for op in self.ops},
            "device": DEVICE.name,
            "dtype": DTYPE.name,
        }


def _log_uniform(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(round(np.exp(rng.uniform(np.log(lo), np.log(hi)))))


def _skinny_gemm(rng: np.random.Generator) -> GemmShape:
    """Drifted traffic: skinny-N products the offline sampler rarely draws."""
    return GemmShape(
        m=_log_uniform(rng, 512, 2048),
        n=_log_uniform(rng, 8, 32),
        k=_log_uniform(rng, 512, 2048),
        dtype=DTYPE,
        ta=bool(rng.integers(2)),
        tb=bool(rng.integers(2)),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cold-gemm",
            why="fresh gemm shapes each sent 3x: the flush's batched f32 "
                "stage 1 carries the time, re-rank and queue wait the rest",
            clients=64,
            draws=(("gemm", 32, None),),
            repeats=3,
            round_s=1.8,
        ),
        Workload(
            name="cold-mixed",
            why="fresh conv and bgemm shapes each sent 2x: per-bucket conv "
                "candidate supply dominates; two shards flush at once",
            clients=32,
            draws=(("conv", 8, None), ("bgemm", 4, None)),
            repeats=2,
            round_s=1.4,
        ),
        Workload(
            name="cold-gemm-workers",
            why="cold-gemm's search work sent over the 2-process worker "
                "RPC tier: shows RPC, boot and IPC changes",
            clients=64,
            draws=(("gemm", 32, None),),
            repeats=3,
            round_s=1.2,
            stream="cold-gemm",
            workers=2,
        ),
        Workload(
            name="drift-online",
            why="fresh skinny-N gemm shapes each sent 2x while online "
                "fine-tunes, hot-swaps and recalibrations run beside the "
                "searches",
            clients=16,
            draws=(("gemm", 16, _skinny_gemm),),
            repeats=2,
            round_s=1.5,
            online=True,
        ),
    )
}
