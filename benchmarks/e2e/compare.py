"""Compare two benchmark result files: the "bench compare" verb.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json

Both files are written by ``run.py --out FILE`` (one entry per workload;
use ``--repeat`` for quartiles).  For every end-to-end metric of
``BENCHMARK.json`` and every workload present in both files, the new
median is judged against the base median and the metric's bound:

* ``worse``        -- worse by more than the bound (a regression);
* ``better``       -- better by more than the bound;
* ``within bound`` -- neither;
* ``unresolved``   -- either side's quartile spread exceeds the bound,
  unless every new run beats every base run (then ``better``).

``kernel_speedup_vs_vendor`` is judged with bound 0 on the workloads
whose model is frozen (all but drift-online), where it repeats exactly.

Exits 1 if any pairing is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: metadata that must match for two results to be comparable
_HOST_KEYS = ("nproc", "python", "numpy", "blas_env", "seconds")
#: Metrics that repeat exactly while the model is frozen, whatever the
#: host's speed: on every workload without online learning they are
#: judged with bound 0.  ``BENCHMARK.json`` holds one bound per metric,
#: which must also cover the online workload, where they may vary.
EXACT = ("kernel_speedup_vs_vendor",)


def _load(path: Path) -> dict[str, dict]:
    """Untraced results by workload."""
    doc = json.loads(path.read_text())
    return {r["meta"]["workload"]: r for r in doc["results"]
            if not r["meta"]["trace"]}


def _spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def judge(base: dict, new: dict, better: str, bound: float) -> str:
    """The verdict on one metric of one workload."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = base["median"], new["median"]
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    if max(_spread(base), _spread(new)) > bound:
        if better == "lower":
            clear = max(new["values"]) < min(base["values"])
        else:
            clear = min(new["values"]) > max(base["values"])
        return "better" if clear else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def _commits(results: dict[str, dict]) -> str:
    metas = [r["meta"] for r in results.values()]
    commits = sorted({f"{m['commit'][:12]}{'+dirty' if m['dirty'] else ''}"
                      for m in metas})
    return ",".join(commits) or "?"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)

    metrics = json.loads(SPEC_FILE.read_text())["end_to_end"]
    base, new = _load(args.base), _load(args.new)
    workloads = sorted(set(base) & set(new))
    for w in sorted(set(base) ^ set(new)):
        print(f"note: workload {w} is in only one file; skipped")
    regressions = 0
    print(f"{'workload':18s} {'metric':26s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for w in workloads:
        mb, mn = base[w]["meta"], new[w]["meta"]
        for key in _HOST_KEYS:
            if mb.get(key) != mn.get(key):
                print(f"warning: {w}: {key} differs "
                      f"({mb.get(key)!r} vs {mn.get(key)!r})")
        for m in metrics:
            sb = base[w]["summary"].get(m["name"])
            sn = new[w]["summary"].get(m["name"])
            if sb is None or sn is None:
                print(f"{w:18s} {m['name']:26s} missing")
                continue
            bound = m["bound"]
            if m["name"] in EXACT and not mn["params"]["online"]:
                bound = 0.0
            verdict = judge(sb, sn, m["better"], bound)
            regressions += verdict == "worse"
            change = sn["median"] / sb["median"] - 1 if sb["median"] else 0.0
            print(f"{w:18s} {m['name']:26s} {sb['median']:12.6g} "
                  f"{sn['median']:12.6g} {change:+8.1%} {bound:6.0%}  "
                  f"{verdict}")
    print(f"base {_commits(base)} vs new {_commits(new)}: "
          f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
