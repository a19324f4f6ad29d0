"""Filesystem cache of inferred kernels (paper §6).

"The resulting predictions may be used directly in applications where this
latency would be negligible (e.g., Deep Learning), cached on the
filesystem, or even used as a kernel generation backend..."  This module is
that cache: a JSON file mapping (device, op, input parameters) to the
chosen tuning parameters and their measured performance.

Keys and config (de)serialization come from the op's
:class:`~repro.core.ops.OpSpec`, so every registered operation gets
persistence for free; ``get_gemm``-style helpers remain as thin shims.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.core import integrity
from repro.core.ops import OpSpec, get_op


def _inject(site: str, path: Path | None = None) -> None:
    """Fault-injection checkpoint (lazy import keeps core/ -> service/ soft)."""
    from repro.service.faults import inject

    inject(site, path)


class ProfileCache:
    """A JSON-backed map from problem descriptions to tuned kernels.

    A cache file that fails its digest check or no longer parses is
    quarantined (``*.corrupt-<digest8>``) and the cache starts empty —
    a corrupt profile cache costs re-searches, never a failed boot.
    """

    def __init__(self, path: str | Path):
        self._path = Path(path)
        self._data: dict[str, dict] = {}
        if self._path.exists():
            _inject("profile_cache.load", self._path)
            if integrity.check(self._path) is False:
                self._quarantine("failed its integrity check")
                return
            try:
                self._data = json.loads(self._path.read_text())
            except (OSError, ValueError):
                self._data = {}
                self._quarantine("is not valid JSON")

    def _quarantine(self, why: str) -> None:
        import warnings

        target = integrity.quarantine(self._path)
        warnings.warn(
            f"profile cache {self._path} {why}; quarantined to "
            f"{target.name} and starting empty",
            stacklevel=3,
        )

    def __len__(self) -> int:
        return len(self._data)

    # ------------------------------------------------------------------
    def get(
        self, op: str | OpSpec, device_name: str, shape
    ) -> tuple[object, float] | None:
        """Cached (config, measured TFLOPS) for one problem, or None."""
        spec = get_op(op)
        entry = self._data.get(spec.profile_key(device_name, shape))
        if entry is None:
            return None
        return spec.config_from_point(entry["config"]), entry["tflops"]

    def put(
        self,
        op: str | OpSpec,
        device_name: str,
        shape,
        cfg,
        tflops: float,
    ) -> None:
        spec = get_op(op)
        self._data[spec.profile_key(device_name, shape)] = {
            "config": cfg.as_dict(),
            "tflops": tflops,
        }

    # ------------------------------------------------------------------
    # Back-compat shims
    # ------------------------------------------------------------------
    def get_gemm(self, device_name: str, shape):
        return self.get("gemm", device_name, shape)

    def put_gemm(self, device_name: str, shape, cfg, tflops: float) -> None:
        self.put("gemm", device_name, shape, cfg, tflops)

    def get_conv(self, device_name: str, shape):
        return self.get("conv", device_name, shape)

    def put_conv(self, device_name: str, shape, cfg, tflops: float) -> None:
        self.put("conv", device_name, shape, cfg, tflops)

    # ------------------------------------------------------------------
    def save(self) -> None:
        """Atomically persist: a crash mid-save never corrupts the file."""
        self._path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self._data, indent=1, sort_keys=True)
        fd, tmp = tempfile.mkstemp(
            dir=self._path.parent, prefix=self._path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as f:
                f.write(payload)
                f.flush()
                os.fsync(f.fileno())
            # mkstemp creates 0600 files; keep the destination's mode (or
            # the umask default) so a shared cache stays shared.
            try:
                mode = os.stat(self._path).st_mode & 0o777
            except FileNotFoundError:
                umask = os.umask(0)
                os.umask(umask)
                mode = 0o666 & ~umask
            os.chmod(tmp, mode)
            os.replace(tmp, self._path)
            integrity.write_digest(self._path)
            _inject("profile_cache.save", self._path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
