"""Command-line entry point: experiments, plus the Engine service verbs.

Two families of commands share one binary:

* the paper's tables/figures (legacy form, unchanged)::

      repro-experiments table3
      repro-experiments fig7 --samples 20000 --seed 1
      repro-experiments all

* the serving workflow, built on the :class:`~repro.service.engine.Engine`
  facade::

      repro-experiments tune   --models m/ --device pascal --op gemm
      repro-experiments query  --models m/ --op gemm --shape 2560x16x2560
      repro-experiments warmup --models m/ --network rnn
      repro-experiments serve  --models m/ --network rnn --concurrency 64
      repro-experiments models --models m/

  ``tune`` fits one (device, op) pair and saves it into the model
  directory; ``query`` answers one shape (cache -> batched search) and
  ``warmup`` pre-populates the cache for a whole network graph.  The
  serving verbs run the engine as a context manager, so the in-memory
  cache is flushed to the on-disk profile cache atomically on exit.

  ``serve`` drives the :class:`~repro.service.async_engine.AsyncEngine`
  front door: N concurrent clients replay a network's kernel queries
  through the time-windowed micro-batching shards, and the run reports
  throughput plus per-shard batch/latency stats (the service-rate path;
  see docs/architecture.md "Async serving").  With ``--online`` the
  engine also fine-tunes the served model from the measured rerank
  results as traffic flows (versioned hot-swaps; see docs/architecture.md
  "Online learning loop"), and ``models`` lists the resulting store —
  every saved fit with its version lineage plus the replayable update
  log.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.harness import experiments as ex

_REGISTRY = {
    "table1": lambda a: ex.run_table1(seed=a.seed),
    "table2": lambda a: ex.run_table2(n_train=a.samples, seed=a.seed),
    "table3": lambda a: ex.run_table3(),
    "fig5": lambda a: ex.run_fig5(seed=a.seed),
    "fig6": lambda a: ex.run_fig6(n_samples=a.samples, seed=a.seed),
    "fig7": lambda a: ex.run_fig7(n_samples=a.samples, seed=a.seed),
    "fig8": lambda a: ex.run_fig8(n_samples=a.samples, seed=a.seed),
    "fig9": lambda a: ex.run_fig9(n_samples=a.samples, seed=a.seed),
    "fig10": lambda a: ex.run_fig10(n_samples=a.samples, seed=a.seed),
    "fig11": lambda a: ex.run_fig11(n_samples=a.samples, seed=a.seed),
    "table6": lambda a: ex.run_table6(n_samples=a.samples, seed=a.seed),
    "sec81": lambda a: ex.run_sec81(n_samples=a.samples, seed=a.seed),
    "sec83": lambda a: ex.run_sec83(),
}

_SERVICE_COMMANDS = ("tune", "query", "warmup", "serve", "models")


# ----------------------------------------------------------------------
# Service verbs
# ----------------------------------------------------------------------

def _parse_dtype(name: str):
    from repro.core.types import DType

    try:
        return DType[name.upper()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown dtype {name!r}; known: "
            f"{', '.join(d.name.lower() for d in DType)}"
        ) from None


def _parse_shape(op: str, text: str, dtype, layout: str):
    """Build an op's shape from its CLI spelling.

    * gemm — ``MxNxK`` (+ ``--layout`` NN/NT/TN/TT)
    * bgemm — ``BxMxNxK``
    * conv — ``NxCxHxWxKxRxS``
    """
    from repro.core.batched import BatchedGemmShape
    from repro.core.types import ConvShape, GemmShape

    dims = [int(d) for d in text.lower().split("x")]
    layout = layout.upper()
    if len(layout) != 2 or set(layout) - {"N", "T"}:
        raise SystemExit(f"bad --layout {layout!r}; expected NN/NT/TN/TT")
    ta, tb = layout[0] == "T", layout[1] == "T"
    if op == "gemm" and len(dims) == 3:
        return GemmShape(*dims, dtype=dtype, ta=ta, tb=tb)
    if op == "bgemm" and len(dims) == 4:
        b, m, n, k = dims
        return BatchedGemmShape(
            batch=b, base=GemmShape(m, n, k, dtype=dtype, ta=ta, tb=tb)
        )
    if op == "conv" and len(dims) == 7:
        n, c, h, w, k, r, s = dims
        return ConvShape(n=n, c=c, h=h, w=w, k=k, r=r, s=s, dtype=dtype)
    raise SystemExit(
        f"cannot parse {op!r} shape from {text!r} "
        "(gemm: MxNxK, bgemm: BxMxNxK, conv: NxCxHxWxKxRxS)"
    )


def _networks() -> dict:
    from repro.workloads.networks import (
        blocked_svd_sweep,
        face_recognition_forward,
        ica_pipeline_step,
        rnn_training_step,
    )

    return {
        "rnn": rnn_training_step,
        "ica": ica_pipeline_step,
        "face": face_recognition_forward,
        "svd": blocked_svd_sweep,
    }


def _service_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Engine service verbs (tune / query / warmup).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--models", required=True, metavar="DIR",
            help="model directory (saved fits + profiles.json)",
        )
        p.add_argument("--device", default=None,
                       help="device name or alias (e.g. pascal, maxwell)")

    def cascade_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cascade", action=argparse.BooleanOptionalAction,
            default=True,
            help="two-stage cascade search: coarse-score all candidates, "
            "full model only on a provably safe shortlist "
            "(--no-cascade forces exhaustive scoring)",
        )
        p.add_argument(
            "--cascade-keep", type=int, default=None, metavar="N",
            help="stage-1 shortlist length (default: the search's own)",
        )

    tune = sub.add_parser("tune", help="fit one (device, op) and save it")
    common(tune)
    tune.add_argument("--op", default="gemm")
    tune.add_argument("--samples", type=int, default=20_000)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--epochs", type=int, default=40)
    tune.add_argument(
        "--dtypes", default=None,
        help="comma-separated (e.g. fp32,fp16); default: the op's own",
    )

    query = sub.add_parser("query", help="which kernel for this shape, now")
    common(query)
    query.add_argument("--op", default="gemm")
    query.add_argument("--shape", required=True,
                       help="gemm: MxNxK, bgemm: BxMxNxK, conv: NxCxHxWxKxRxS")
    query.add_argument("--dtype", default="fp32")
    query.add_argument("--layout", default="NT",
                       help="GEMM operand layout (NN/NT/TN/TT)")
    query.add_argument("-k", type=int, default=100,
                       help="re-ranked short-list length")
    query.add_argument("--reps", type=int, default=3)
    cascade_opts(query)

    warmup = sub.add_parser(
        "warmup", help="pre-populate the cache for a network graph"
    )
    common(warmup)
    warmup.add_argument(
        "--network", required=True,
        choices=[*_networks(), "all"],
    )
    warmup.add_argument("-k", type=int, default=60)
    warmup.add_argument("--reps", type=int, default=3)

    serve = sub.add_parser(
        "serve",
        help="replay a network's queries through the async "
        "micro-batching front door at a given concurrency",
    )
    common(serve)
    serve.add_argument(
        "--network", required=True,
        choices=[*_networks(), "all"],
    )
    serve.add_argument("--passes", type=int, default=2,
                       help="how many times each client stream repeats "
                       "the network's kernels (repeats hit the cache)")
    serve.add_argument("--concurrency", type=int, default=64,
                       help="number of concurrent client tasks")
    serve.add_argument("--window-ms", type=float, default=2.0,
                       help="micro-batching window per shard")
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="admission-control bound on in-flight misses")
    serve.add_argument("-k", type=int, default=60)
    serve.add_argument("--reps", type=int, default=3)
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes for the sharded serving "
                       "tier (0 = in-process flushes)")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="end-to-end deadline per request; expired "
                       "requests are shed with DeadlineExceeded instead "
                       "of served late (default: no deadline)")
    serve.add_argument("--online", action="store_true",
                       help="fine-tune the served model from measured "
                       "rerank results (versioned hot-swaps)")
    serve.add_argument("--online-every", type=int, default=64,
                       help="fine-tune after this many new measured pairs")
    serve.add_argument("--online-interval", type=float, default=None,
                       help="also fine-tune every T seconds of wall clock "
                       "(off by default: wall-clock triggers are outside "
                       "the replay-determinism contract)")
    serve.add_argument("--online-epochs", type=int, default=4,
                       help="training epochs per fine-tune step")
    serve.add_argument("--online-rollback-tol", type=float, default=None,
                       help="reject a fine-tune whose anchor-slice "
                       "val_mse regresses past the parent's by this "
                       "relative tolerance (default: guard off)")
    serve.add_argument("--slo-qps", type=float, default=None,
                       help="SLO mode: target sustained throughput "
                       "(req/s); derives every serving knob via the "
                       "config compiler instead of the raw --window-ms/"
                       "--max-batch/--max-pending flags")
    serve.add_argument("--slo-p95-ms", type=float, default=None,
                       help="SLO mode: p95 latency budget for warm "
                       "traffic, in ms (required with --slo-qps)")
    serve.add_argument("--slo-mem-mb", type=float, default=512.0,
                       help="SLO mode: memory cap for serving-tier "
                       "state (admission queue + profile cache)")
    serve.add_argument("--slo-profile", default="steady",
                       choices=["steady", "bursty", "cold-heavy"],
                       help="SLO mode: workload modifier picking the "
                       "calibrated derivation profile")
    cascade_opts(serve)

    models = sub.add_parser(
        "models", help="list the model store (fits, versions, lineage)"
    )
    common(models)

    return parser


def _run_serve(args) -> int:
    """The ``serve`` verb: drive the AsyncEngine with concurrent clients."""
    import asyncio

    from repro.service.async_engine import AsyncEngine, BackpressureError
    from repro.service.engine import (
        DeadlineExceeded,
        EngineError,
        KernelRequest,
    )
    from repro.service.slo import (
        ServingSLO,
        SLOConfigError,
        validate_serving_knobs,
    )

    # Every CLI-sourced knob goes through the compiler's guard-rail
    # vocabulary; all violations are aggregated into one report so a
    # bad invocation is rejected once, completely, before boot.
    slo_mode = args.slo_qps is not None or args.slo_p95_ms is not None
    if slo_mode and (args.slo_qps is None or args.slo_p95_ms is None):
        raise SystemExit(
            "serve: --slo-qps and --slo-p95-ms must be given together"
        )
    knobs = {
        "deadline_ms": args.deadline_ms,
        "cascade_keep": args.cascade_keep,
        "concurrency": args.concurrency,
        "passes": args.passes,
        "k": args.k,
        "reps": args.reps,
        "online_every": args.online_every,
        "online_epochs": args.online_epochs,
    }
    if not slo_mode:
        # Raw mode: the batching/admission knobs are adopter-set, so
        # they need checking too.  In SLO mode they are derived (and
        # guarded) by the compiler instead.
        knobs.update(
            window_ms=args.window_ms,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            workers=args.workers,
        )
    violations = validate_serving_knobs(**knobs)
    plan = None
    if slo_mode:
        spec = ServingSLO(
            target_qps=args.slo_qps,
            p95_ms=args.slo_p95_ms,
            memory_mb=args.slo_mem_mb,
            workload=args.slo_profile,
            workers=args.workers or None,
        )
        try:
            plan = spec.compile()
        except SLOConfigError as exc:
            violations.extend(exc.violations)
    if violations:
        raise SystemExit(f"serve: {SLOConfigError(violations)}")
    if plan is not None:
        print(plan.describe())

    names = list(_networks()) if args.network == "all" else [args.network]
    steps = [_networks()[name]() for name in names]

    engine_kwargs = {
        "cascade": args.cascade,
        "cascade_keep": args.cascade_keep,
    }
    if args.online:
        from repro.service.online import OnlineConfig

        engine_kwargs["online"] = OnlineConfig(
            update_every=args.online_every,
            interval_s=args.online_interval,
            epochs=args.online_epochs,
            rollback_tolerance=args.online_rollback_tol,
        )

    def front_door() -> AsyncEngine:
        if plan is not None:
            # SLO mode: every serving knob comes from the compiled
            # plan; the cascade/online flags remain expert overrides.
            return AsyncEngine.from_slo(args.models, plan, **engine_kwargs)
        return AsyncEngine.open(
            args.models,
            window_ms=args.window_ms,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
            workers=args.workers,
            **engine_kwargs,
        )

    def arm_cascades(engine: AsyncEngine) -> None:
        # A stored calibration of another stage-1 form (or none) would
        # leave every cold query exhaustive until a warmup: recalibrate
        # and re-save it now, before any worker boots from the fits.
        inner = engine.engine
        for device_name in inner.devices():
            for op_name in inner.ops(device_name):
                try:
                    inner.ensure_cascade(device_name, op_name)
                except EngineError:
                    pass  # unreadable: quarantined, its requests fail

    async def main() -> None:
        async with front_door() as engine:
            await asyncio.get_running_loop().run_in_executor(
                None, arm_cascades, engine
            )
            if args.workers:
                # Boot the pool before timing starts, like a deployment.
                await asyncio.get_running_loop().run_in_executor(
                    None, engine.start_workers
                )
            requests = [
                KernelRequest(
                    op=engine.op_for_shape(shape, device=args.device),
                    shape=shape,
                    device=args.device,
                    k=args.k,
                    reps=args.reps,
                    deadline_ms=args.deadline_ms,
                )
                for _ in range(args.passes)
                for step in steps
                for _label, shape in step.kernels
            ]
            work = iter(enumerate(requests))
            replies: list = [None] * len(requests)
            shed = 0

            async def client() -> None:
                nonlocal shed
                for i, req in work:
                    while True:
                        try:
                            replies[i] = await engine.query(req)
                            break
                        except DeadlineExceeded:
                            # The request's budget is spent; serving it
                            # late helps nobody. Count it and move on.
                            shed += 1
                            break
                        except BackpressureError as exc:
                            if not exc.transient:
                                raise  # shard bound: a config error
                            # Saturated: do what a real client should —
                            # back off one batching window and retry
                            # (rejects show up in the stats report).
                            await asyncio.sleep(
                                max(args.window_ms, 1.0) / 1e3
                            )

            t0 = time.time()
            await asyncio.gather(
                *(client() for _ in range(args.concurrency))
            )
            dt = time.time() - t0

            by_source: dict[str, int] = {}
            for reply in replies:
                if reply is None:  # shed on deadline: no reply to count
                    continue
                by_source[reply.source] = by_source.get(reply.source, 0) + 1
            answered = len(requests) - shed
            shed_note = f" ({shed} shed on deadline)" if shed else ""
            print(
                f"served {answered} requests{shed_note} "
                f"({', '.join(s.name for s in steps)} x {args.passes}) "
                f"with {args.concurrency} clients in {dt:.2f}s "
                f"({answered / dt:.0f} req/s) {by_source}"
            )
            print(engine.stats().describe())
            es = engine.engine.stats()
            print(
                f"engine caches: hit_ratio={es.hit_ratio:.2f} "
                f"(lru={es.lru_hit_ratio:.2f} "
                f"profile={es.profile_hit_ratio:.2f}) "
                f"searches={es.searches} evictions={es.evictions}"
            )
            if es.cascade_searches or es.exhaustive_searches:
                print(
                    f"cascade: searches={es.cascade_searches} "
                    f"exhaustive={es.exhaustive_searches} "
                    f"fallbacks={es.cascade_fallbacks} "
                    f"pruned={es.cascade_pruned} "
                    f"stage1={es.cascade_stage1_ms:.0f}ms "
                    f"stage2={es.cascade_stage2_ms:.0f}ms"
                )

    asyncio.run(main())
    return 0


def _run_models(args) -> int:
    """The ``models`` verb: list saved fits with their version lineage."""
    import json
    from pathlib import Path

    from repro.mlp.serialize import load_fit

    model_dir = Path(args.models)
    if not model_dir.is_dir():
        raise SystemExit(f"model directory {model_dir} does not exist")
    if args.device:
        from repro.gpu.device import get_device

        wanted = get_device(args.device).name
    else:
        wanted = None
    shown = 0
    for path in sorted(model_dir.glob("*.npz")):
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        if not sidecar.exists():
            continue
        meta = json.loads(sidecar.read_text())
        if wanted is not None and meta["device"] != wanted:
            continue
        fit = load_fit(path)
        lin = fit.lineage
        if lin is None or lin.model_version == 0:
            origin = "offline fit"
        else:
            origin = (
                f"parent=v{lin.parent_version} n_samples={lin.n_samples} "
                f"seed={lin.seed}"
            )
        print(
            f"{meta['device']}/{meta['op']} "
            f"dtypes={','.join(meta['dtypes'])} "
            f"v{fit.model_version} ({origin}) "
            f"val_mse={fit.val_mse:.4g} [{path.name}]"
        )
        shown += 1
    if not shown:
        print(f"no saved fits in {model_dir}")
    log_path = model_dir / "online_updates.json"
    if log_path.exists():
        from repro.core import integrity

        if integrity.check(log_path) is False:
            target = integrity.quarantine(log_path)
            print(
                f"online update log failed its integrity check; "
                f"quarantined to {target.name}"
            )
            return 0
        records = json.loads(log_path.read_text())
        print(f"online update log ({len(records)} update(s)):")
        for r in records:
            if wanted is not None and r["device"] != wanted:
                continue
            status = r.get("status", "applied")
            tag = "" if status == "applied" else f" [{status}]"
            print(
                f"  {r['device']}/{r['op']} "
                f"v{r['parent_version']}->v{r['version']} "
                f"trigger={r['trigger']} "
                f"samples={r['n_buffer']}+{r['n_anchor']} "
                f"val_mse={r['val_mse']:.4g} digest={r['digest'][:12]}"
                f"{tag}"
            )
    return 0


def _run_service(argv: list[str]) -> int:
    from repro.service.engine import Engine, KernelRequest

    args = _service_parser().parse_args(argv)

    if args.command == "serve":
        return _run_serve(args)
    if args.command == "models":
        return _run_models(args)

    if args.command == "tune":
        dtypes = None
        if args.dtypes:
            dtypes = tuple(
                _parse_dtype(d) for d in args.dtypes.split(",") if d
            )
        engine = Engine(model_dir=args.models)
        t0 = time.time()
        report = engine.tune(
            args.device or "pascal",
            args.op,
            dtypes=dtypes,
            n_samples=args.samples,
            seed=args.seed,
            epochs=args.epochs,
        )
        print(f"{report}  [{time.time() - t0:.1f}s, saved to {args.models}]")
        return 0

    open_kwargs = {}
    if getattr(args, "cascade", None) is not None:
        open_kwargs["cascade"] = args.cascade
        open_kwargs["cascade_keep"] = args.cascade_keep
    with Engine.open(args.models, **open_kwargs) as engine:
        if args.command == "query":
            shape = _parse_shape(
                args.op, args.shape, _parse_dtype(args.dtype), args.layout
            )
            t0 = time.time()
            reply = engine.query(
                KernelRequest(
                    op=args.op, shape=shape, device=args.device,
                    k=args.k, reps=args.reps,
                )
            )
            ms = (time.time() - t0) * 1e3
            ver = (
                f" model=v{reply.model_version}"
                if reply.model_version is not None
                else ""
            )
            es = engine.stats()
            if reply.source == "search":
                path = (
                    f", cascade (pruned {es.cascade_pruned}, "
                    f"stage1 {es.cascade_stage1_ms:.0f} ms)"
                    if es.cascade_searches else ", exhaustive"
                )
            else:
                path = ""
            print(
                f"{shape.describe()}: {reply.config.short()} "
                f"{reply.measured_tflops:.2f} TFLOPS "
                f"[{reply.source}{ver}, {ms:.1f} ms{path}]"
            )
        else:  # warmup
            names = (
                list(_networks())
                if args.network == "all"
                else [args.network]
            )
            steps = [_networks()[name]() for name in names]
            t0 = time.time()
            fresh = engine.warmup(
                steps, device=args.device, k=args.k, reps=args.reps
            )
            stats = engine.stats()
            print(
                f"warmed {', '.join(s.name for s in steps)}: "
                f"{fresh} searched, {stats.queries - fresh} already "
                f"cached [{time.time() - t0:.1f}s]"
            )
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SERVICE_COMMANDS:
        return _run_service(argv)

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce tables/figures of the ISAAC paper (SC'17) "
        "on the simulated GPU substrate; 'tune', 'query' and 'warmup' "
        "drive the serving engine (see their --help).",
    )
    parser.add_argument(
        "experiment",
        choices=[*_REGISTRY, "all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=12_000,
        help="training samples for learned components (default 12000)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    names = list(_REGISTRY) if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.time()
        result = _REGISTRY[name](args)
        print(result)
        print(f"[{name} took {time.time() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
