"""End-to-end benchmark of the tuner service.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload cold-gemm --seed 1 \\
        --seconds 10 --trace 0 [--repeat R] [--out FILE] [--trace-out FILE]

One run sets the service up (not timed; reported as ``setup_s``), drives
one workload's closed-loop traffic for a fixed number of rounds (about
``--seconds`` on the nominal host), checks sampled answers against the
tuner, prints every metric by name with its unit and sample count, and
ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps the service's public entry points and reports the
per-layer metrics instead (``--trace-out`` also writes the spans).
``--repeat R`` runs seeds ``seed .. seed+R-1``, each in a fresh process,
and reports each metric's median and quartiles.  ``--out`` merges the
result, with its host and commit metadata, into a JSON file that
``compare.py`` reads.

Only the standard library is imported at module level: a checkout
without the service must fail with a message, and worker processes of
the service, which start by importing this file, need nothing from it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"
#: The BLAS thread caps this process started with.
BLAS_ENV = {v: os.environ.get(v) for v in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
#: Process start, for the run's total wall time.
T_START = time.perf_counter()


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed phase length (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", type=Path, default=None,
                   help="with --trace 1, write spans + metrics here")
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out", type=Path, default=None,
                   help="merge the result into this JSON file")
    return p.parse_args(argv)


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True,
            text=True, check=True, timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def metadata(args, params: dict) -> dict:
    """What a result needs to be compared across commits and hosts."""
    import numpy

    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # as the benchmark process started; worker children get one
        # thread (see harness.Service)
        "blas_env": BLAS_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repeat": args.repeat,
        "params": params,
    }


def _one(args, spec: dict) -> dict:
    """One run in this process: the result line's content plus details."""
    import harness

    OUT_DIR.mkdir(exist_ok=True)
    res = harness.run(args.workload, args.seed, args.seconds,
                      bool(args.trace), scratch=OUT_DIR)
    _stop_resource_tracker()
    res["info"]["wall_s"] = time.perf_counter() - T_START
    print("info", json.dumps(res["info"]))
    units = _units(spec, args.trace)
    if args.trace:
        values = res["layers"]
        samples = {}
    else:
        values, samples = res["values"], res["samples"]
    metrics, missing = {}, []
    for name, unit in units.items():
        v = values.get(name)
        if v is None:
            missing.append(name)
            continue
        metrics[name] = {"value": v, "unit": unit}
    if missing:
        raise SystemExit(
            f"workload {args.workload}: too few samples for {missing}"
        )
    out = {
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"], "metrics": metrics,
        "samples": {k: samples.get(k) for k in metrics}, "info": res["info"],
    }
    if args.trace and args.trace_out is not None:
        res["tracer"].write(args.trace_out, {"metrics": values})
    return out


def _stop_resource_tracker() -> None:
    """The worker tier's shared memory starts multiprocessing's resource
    tracker process; end it and wait for it, so that no process started
    by the run outlives it.  (``_stop`` is private; skipped if absent.)"""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _units(spec: dict, trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _repeat(args) -> list[dict]:
    """``--repeat R``: each seed in a fresh process, results collected."""
    runs = []
    for i in range(args.repeat):
        cmd = [sys.executable, str(Path(__file__)), "--workload",
               args.workload, "--seed", str(args.seed + i), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"run with seed {args.seed + i} failed "
                             f"(exit {proc.returncode})")
        lines = proc.stdout.strip().splitlines()
        print(f"seed {args.seed + i}: {lines[-1]}", file=sys.stderr)
        run = json.loads(lines[-1])
        run["info"] = next(json.loads(line[len("info "):]) for line in lines
                           if line.startswith("info "))
        runs.append(run)
    return runs


def summarize(runs: list[dict]) -> dict[str, dict]:
    """Median and quartiles of each metric over runs."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (values[0],) * 3)
        out[name] = {"median": statistics.median(values), "q1": q1,
                     "q3": q3, "n_runs": len(values), "unit": first["unit"],
                     "values": values}
    return out


def _merge(path: Path, meta: dict, runs: list[dict], summary: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {"results": []}
    doc["results"] = [
        r for r in doc["results"]
        if (r["meta"]["workload"], r["meta"]["trace"])
        != (meta["workload"], meta["trace"])
    ]
    doc["results"].append({"meta": meta, "summary": summary, "runs": runs})
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = _parse(argv)
    # The service under test is the checkout's own source tree, never an
    # installed copy.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if not SPEC_FILE.exists():
        print(f"error: {SPEC_FILE} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    if args.repeat > 1:
        runs = _repeat(args)
    else:
        runs = [_one(args, spec)]
    summary = summarize(runs)
    for name, s in summary.items():
        n = runs[0].get("samples", {}).get(name)
        spread = (s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
        print(f"{name:40s} {s['median']:14.6g} {s['unit']:6s} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} iqr/med={spread:.3f} "
              f"runs={s['n_runs']}" + (f" samples={n}" if n else ""))
    if args.out is not None:
        _merge(args.out, metadata(args, WORKLOADS[args.workload].params()),
               runs, summary)
    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": s["median"], "unit": s["unit"]}
                    for k, s in summary.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
