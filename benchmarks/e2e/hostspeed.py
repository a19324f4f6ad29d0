"""The host's speed, measured beside the service in a process of its own.

``HostSpeed`` starts this file as a helper process that imports only
numpy.  Each line it reads is a number of seconds; it times a fixed
float32 product (1024x512 by 512x1024) for that long and answers with
the rate in products per second.  End of input ends it.

The helper is a separate process, spawned with the BLAS thread variables
removed, so the reference always runs at the BLAS library's default
thread count, whatever the service or the benchmark process sets for
itself: a change that caps the service's BLAS threads must not change
the yardstick its times are corrected by.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from array import array

#: Environment variables that cap a process's BLAS threads.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Seconds one sample runs.
REF_S = 0.1
#: Seconds a sample first waits.  After a product, OpenBLAS keeps its
#: threads spinning for 0.1-0.2 s; until they stop, the caller's idle
#: threads take CPU from the helper's (a sample taken right after one
#: read 67 products/s, one taken 0.2 s later 140).
SETTLE_S = 0.2
#: The reference product's rate on the nominal host (products per
#: second): about the median rate on the 2-CPU host the bounds were set on.
REF_NOMINAL = 135.0
#: Seconds the helper gets to exit after its input is closed.
EXIT_S = 10.0


class HostSpeed:
    """The host's BLAS speed relative to the nominal host.

    The CPUs of a shared host change speed by a fifth and more over
    seconds to minutes, each on its own, and every timing of the service
    moves with them.  Every workload's time goes mostly to stage-1
    search, a float32 product on the default BLAS threads, which waits
    for the slower CPU.  So while the service is idle the benchmark has
    the helper time a fixed float32 product on as many threads; the
    speed is the median rate over the nominal rate.  Close it when done.
    """

    def __init__(self) -> None:
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env,
        )
        self.rates = array("d")

    def sample(self) -> None:
        """Time the reference for ``REF_S`` seconds once the caller's
        BLAS threads are idle; blocks meanwhile."""
        time.sleep(SETTLE_S)
        self._proc.stdin.write(f"{REF_S}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"host-speed helper exited ({self._proc.poll()})")
        self.rates.append(float(line))

    def speed(self) -> float:
        return statistics.median(self.rates) / REF_NOMINAL

    def close(self) -> None:
        """End the helper and wait for it."""
        if self._proc.stdin:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=EXIT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _serve() -> None:
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((1024, 512), dtype=np.float32)
    b = rng.standard_normal((512, 1024), dtype=np.float32)
    c = np.empty((1024, 1024), dtype=np.float32)

    def rate(seconds: float) -> float:
        clock = time.perf_counter
        n, t0 = 0, clock()
        while True:
            np.matmul(a, b, out=c)
            n += 1
            t = clock() - t0
            if t >= seconds:
                return n / t

    rate(REF_S)  # warm-up, not reported
    for line in sys.stdin:
        print(rate(float(line)), flush=True)


if __name__ == "__main__":
    _serve()
