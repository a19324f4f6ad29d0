"""The online learning loop: replay buffer, fine-tunes, versioned swaps.

Three contracts from the design get pinned here:

* **replayability** — the fine-tuned fit bytes are a pure function of
  the traffic sequence and the pinned :class:`OnlineConfig`; replaying
  the same queries against a fresh engine reproduces every update
  digest bit for bit;
* **atomic hot-swaps** — a search holds the same per-(device, op) lock
  the swap takes, and the swap re-folds the exhaustive searcher inside
  the critical section, so no reader can ever pair new weights with a
  stale first-layer term (nor vice versa), even under thread stress;
* **exactly-once finalization** — ``close()`` flushes the buffer into a
  final fine-tune and persists the latest version once, no matter how
  many times it runs.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.core.tuner import Isaac
from repro.core.types import DType, GemmShape
from repro.gpu.device import TESLA_P100
from repro.mlp.crossval import FitLineage
from repro.inference.topk import RankedKernel
from repro.mlp.serialize import fit_from_bytes, fit_to_bytes
from repro.service.async_engine import AsyncEngine
from repro.service.engine import Engine, KernelRequest
from repro.service.online import (
    OnlineConfig,
    OnlineLearner,
    ReplayBuffer,
    fine_tune_fit,
)

DEVICE = TESLA_P100.name

#: Small cadence + tiny epochs so tests trip several updates in seconds.
CFG = OnlineConfig(update_every=8, epochs=2, anchor_size=64, batch_size=32)


def _fresh_tuner() -> Isaac:
    """A tiny-budget tuner each mutating test can own (hot-swaps mutate
    the live model in place, so the session-scoped fixture is off
    limits here)."""
    tuner = Isaac(TESLA_P100, op="gemm", dtypes=(DType.FP32,))
    tuner.tune(n_samples=900, seed=7, epochs=8, generative_target=80)
    return tuner


def _shape(m, n=128, k=256, ta=False, tb=True) -> GemmShape:
    return GemmShape(m, n, k, DType.FP32, ta, tb)


def _online_engine(tuner=None, config=CFG, **kwargs) -> Engine:
    engine = Engine(online=config, max_workers=0, **kwargs)
    engine.register(tuner if tuner is not None else _fresh_tuner())
    return engine


# ----------------------------------------------------------------------
# Replay buffer
# ----------------------------------------------------------------------

class TestReplayBuffer:
    def test_bounded_and_counts_everything(self, rng):
        buf = ReplayBuffer(capacity=16, n_features=3, seed=0)
        for i in range(50):
            buf.add(rng.normal(size=3), float(i))
        assert len(buf) == 16
        assert buf.total == 50

    def test_reservoir_is_seed_deterministic(self):
        def fill(seed):
            buf = ReplayBuffer(capacity=8, n_features=2, seed=seed)
            for i in range(40):
                buf.add(np.array([i, -i], dtype=float), float(i))
            return buf.snapshot()

        x1, y1 = fill(seed=3)
        x2, y2 = fill(seed=3)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        # A different seed keeps a different reservoir (overwhelmingly).
        _, y3 = fill(seed=4)
        assert not np.array_equal(y1, y3)

    def test_snapshot_is_a_copy(self):
        buf = ReplayBuffer(capacity=4, n_features=1, seed=0)
        buf.add(np.array([1.0]), 1.0)
        x, y = buf.snapshot()
        x[:] = 99.0
        x2, _ = buf.snapshot()
        assert x2[0, 0] == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OnlineConfig(buffer_capacity=0)
        with pytest.raises(ValueError):
            OnlineConfig(update_every=0)
        with pytest.raises(ValueError):
            OnlineConfig(epochs=-1)


# ----------------------------------------------------------------------
# Fine-tuning (learner level)
# ----------------------------------------------------------------------

class TestFineTune:
    def test_shares_frozen_scalers_and_sets_lineage(self, trained_gemm_tuner):
        fit = trained_gemm_tuner.fit_result
        ds = trained_gemm_tuner.dataset
        lineage = FitLineage(model_version=1, parent_version=0,
                             n_samples=32, seed=0)
        tuned = fine_tune_fit(
            fit, ds.x[:32], ds.y[:32],
            anchor_x=ds.x[:16], anchor_y=ds.y[:16],
            config=CFG, lineage=lineage,
        )
        assert tuned is not fit and tuned.model is not fit.model
        # The scalers are part of the fit's identity (the folded-search
        # math depends on them): fine-tunes must reuse them verbatim.
        assert tuned.x_scaler is fit.x_scaler
        assert tuned.y_scaler is fit.y_scaler
        assert tuned.model_version == 1
        assert np.isfinite(tuned.val_mse)
        # The base fit's weights were not touched.
        for a, b in zip(fit.model.get_weights(),
                        fit_from_bytes(fit_to_bytes(fit)).model.get_weights()):
            np.testing.assert_array_equal(a, b)

    def test_interval_trigger_uses_injected_clock(self, trained_gemm_tuner):
        cfg = OnlineConfig(update_every=10_000, interval_s=5.0,
                           epochs=1, anchor_size=16)
        learner = OnlineLearner(cfg)
        fit = trained_gemm_tuner.fit_result
        ds = trained_gemm_tuner.dataset
        learner.ensure_registered(
            DEVICE, "gemm", lambda: (fit, ds.x, ds.y, ds.x.shape[1])
        )
        assert not learner.tick()  # nothing observed yet
        learner.observe(DEVICE, "gemm", ds.x[0], 2.0)
        assert not learner.tick(now=0.0)   # way in the "past"
        assert learner.tick(now=1e12)      # interval elapsed
        (update,) = learner.run_due()
        assert update.record.trigger == "interval"
        assert update.record.version == 1

    def test_flush_consumes_sub_cadence_leftovers(self, trained_gemm_tuner):
        learner = OnlineLearner(CFG)
        fit = trained_gemm_tuner.fit_result
        ds = trained_gemm_tuner.dataset
        learner.ensure_registered(
            DEVICE, "gemm", lambda: (fit, ds.x, ds.y, ds.x.shape[1])
        )
        for i in range(3):  # < update_every: no cadence trip
            learner.observe(DEVICE, "gemm", ds.x[i], 2.0 + i)
        assert learner.pending() == 0
        (update,) = learner.flush()
        assert update.record.trigger == "flush"
        assert update.record.n_buffer == 3
        assert learner.flush() == []  # nothing left

    def test_rejects_non_finite_measurements(self, trained_gemm_tuner):
        learner = OnlineLearner(CFG)
        fit = trained_gemm_tuner.fit_result
        ds = trained_gemm_tuner.dataset
        learner.ensure_registered(
            DEVICE, "gemm", lambda: (fit, ds.x, ds.y, ds.x.shape[1])
        )
        assert not learner.observe(DEVICE, "gemm", ds.x[0], float("nan"))
        assert not learner.observe(DEVICE, "gemm", ds.x[0], 0.0)
        assert learner.flush() == []


# ----------------------------------------------------------------------
# Engine integration: versions on replies, swaps, determinism
# ----------------------------------------------------------------------

def _run_traffic(engine, ms=(256, 288, 320, 352)):
    """Fixed query sequence; returns (replies, update digests)."""
    digests = []
    replies = []
    for m in ms:
        replies.append(
            engine.query(KernelRequest("gemm", _shape(m), k=10, reps=2))
        )
        for update in engine.run_online_updates():
            digests.append(update.record.digest)
    return replies, digests


class TestEngineOnline:
    def test_replies_carry_model_version(self):
        engine = _online_engine()
        req = KernelRequest("gemm", _shape(256), k=10, reps=2)
        first = engine.query(req)
        assert first.source == "search" and first.model_version == 0
        again = engine.query(req)
        # Cache hits carry no version: the model was not consulted.
        assert again.source == "lru" and again.model_version is None
        engine.run_online_updates()
        bumped = engine.query(KernelRequest("gemm", _shape(512), k=10,
                                            reps=2))
        assert bumped.model_version == engine.model_version(DEVICE, "gemm")
        assert bumped.model_version >= 1
        assert engine.stats().model_swaps >= 1
        assert engine.stats().online_updates >= 1

    def test_frozen_engine_reports_version_zero(self, trained_gemm_tuner):
        engine = Engine(max_workers=0)
        engine.register(trained_gemm_tuner)
        reply = engine.query(KernelRequest("gemm", _shape(256), k=5,
                                           reps=1))
        assert reply.model_version == 0
        assert engine.online is None
        assert engine.online_status() == {}
        assert engine.run_online_updates() == []
        assert engine.stats().online_updates == 0

    def test_store_search_result_feeds_learner(self):
        """The worker tier's results enter the buffer through the
        parent's authoritative store path."""
        engine = _online_engine()
        reply = engine.query(KernelRequest("gemm", _shape(256), k=10,
                                           reps=2))
        before = engine.online.describe()[(DEVICE, "gemm")]["total_pairs"]
        engine.store_search_result(
            KernelRequest("gemm", _shape(999, 64, 128), k=10, reps=2),
            RankedKernel(
                config=reply.config,
                predicted_tflops=reply.predicted_tflops,
                measured_tflops=reply.measured_tflops,
                source="reranked",
                model_version=0,
            ),
        )
        after = engine.online.describe()[(DEVICE, "gemm")]["total_pairs"]
        assert after == before + 1

    def test_replay_is_bit_identical(self):
        d1 = _run_traffic(_online_engine())[1]
        d2 = _run_traffic(_online_engine())[1]
        assert d1 and d1 == d2
        # ... and the full persisted log matches record for record.
        assert len(set(d1)) == len(d1)  # every update distinct

    def test_post_swap_search_matches_standalone_tuner(self):
        """Front-door equivalence survives a hot-swap: the served fit is
        exactly the exported bytes, folded search included."""
        engine = _online_engine()
        _run_traffic(engine)
        assert engine.model_version(DEVICE, "gemm") >= 1
        blob, dtype_names = engine.export_fits(
            [(DEVICE, "gemm")]
        )[(DEVICE, "gemm")]
        clone = Isaac.from_fit(
            TESLA_P100, "gemm", fit_from_bytes(blob),
            dtypes=tuple(DType[n] for n in dtype_names),
        )
        probe = _shape(448, 96, 448)
        reply = engine.query(KernelRequest("gemm", probe, k=10, reps=2))
        best = clone.best_kernel(probe, k=10, reps=2)
        assert reply.config == best.config
        assert reply.measured_tflops == best.measured_tflops

    def test_background_thread_trains_and_stops(self):
        import time as _time

        engine = _online_engine()
        assert engine.start_online()
        assert not engine.start_online()  # already running
        engine.query(KernelRequest("gemm", _shape(256), k=10, reps=2))
        deadline = _time.monotonic() + 30
        while (engine.model_version(DEVICE, "gemm") < 1
               and _time.monotonic() < deadline):
            _time.sleep(0.05)
        assert engine.model_version(DEVICE, "gemm") >= 1
        engine.close()
        assert engine._online_thread is None
        status = engine.online_status()[(DEVICE, "gemm")]
        assert status["updates"] >= 1

    def test_front_door_equivalence_with_hot_swaps(self):
        """Engine and AsyncEngine answer identically under online updates
        when traffic (and thus every cadence trip) is identical: the
        swap is applied between replies either way, so configs, numbers
        and version tags all match."""
        ms = (256, 288, 320, 352, 384)

        def run_sync():
            engine = _online_engine()
            out = []
            for m in ms:
                r = engine.query(KernelRequest("gemm", _shape(m), k=10,
                                               reps=2))
                out.append((r.config, r.measured_tflops, r.model_version))
                engine.run_online_updates()
            engine.close()
            return out

        def run_async():
            engine = _online_engine()

            async def main():
                out = []
                async with AsyncEngine(engine, own_engine=True,
                                       window_ms=1.0) as front:
                    for m in ms:
                        r = await front.query(
                            KernelRequest("gemm", _shape(m), k=10, reps=2)
                        )
                        out.append((r.config, r.measured_tflops,
                                    r.model_version))
                        engine.run_online_updates()
                return out

            return asyncio.run(main())

        assert run_sync() == run_async()

    def test_hot_swap_stress_never_tears_fit_h0(self):
        """Threads query distinct shapes while updates swap weights in;
        every reply lands, and under the pair's lock the folded search
        state is always current w.r.t. the live model (the no-torn-pair
        invariant the swap's eager refold guarantees)."""
        engine = _online_engine()
        tuner = engine._tuner(DEVICE, "gemm")
        lock = engine._tuner_locks[(DEVICE, "gemm")]
        errors: list[BaseException] = []
        replies: list = []
        replies_lock = threading.Lock()
        stop = threading.Event()

        def client(worker: int) -> None:
            try:
                for i in range(6):
                    reply = engine.query(KernelRequest(
                        "gemm", _shape(192 + 16 * worker, 64, 192 + 8 * i),
                        k=8, reps=1,
                    ))
                    with replies_lock:
                        replies.append(reply)
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        def auditor() -> None:
            try:
                while not stop.is_set():
                    with lock:
                        folded = tuner.searcher._folded
                        assert folded is None or folded.is_current()
            except BaseException as exc:  # pragma: no cover - fail path
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(w,))
                   for w in range(6)]
        audit = threading.Thread(target=auditor)
        audit.start()
        for t in threads:
            t.start()
        swaps = 0
        while any(t.is_alive() for t in threads):
            swaps += len(engine.run_online_updates())
        for t in threads:
            t.join()
        swaps += len(engine.run_online_updates())
        stop.set()
        audit.join()
        assert not errors
        assert len(replies) == 36  # zero dropped requests
        assert swaps >= 1
        top = engine.model_version(DEVICE, "gemm")
        assert all(
            r.model_version is None or 0 <= r.model_version <= top
            for r in replies
        )


# ----------------------------------------------------------------------
# Close-path persistence (exactly once)
# ----------------------------------------------------------------------

class TestFinalize:
    def test_close_flushes_and_persists_exactly_once(self, tmp_path):
        engine = _online_engine(model_dir=tmp_path)
        # Fewer pairs than the cadence: only the close-flush trains.
        engine.query(KernelRequest("gemm", _shape(256), k=4, reps=1))
        assert engine.stats().model_swaps == 0
        engine.close()
        log_path = tmp_path / "online_updates.json"
        records = json.loads(log_path.read_text())
        assert [r["trigger"] for r in records] == ["flush"]
        assert records[0]["version"] == 1
        saved = list(tmp_path.glob("*.npz"))
        assert len(saved) == 1
        # Second close must not retrain or rewrite anything: remove the
        # log sentinel and verify it stays gone.
        log_path.unlink()
        engine.close()
        assert not log_path.exists()
        # The persisted fit reloads at its bumped version and serves.
        with Engine.open(tmp_path) as reopened:
            assert reopened.model_version(DEVICE, "gemm") == 1
            reply = reopened.query(
                KernelRequest("gemm", _shape(256), k=4, reps=1)
            )
            assert reply.model_version in (None, 1)  # profile hit or search

    def test_close_without_traffic_writes_nothing(self, tmp_path):
        engine = _online_engine(model_dir=tmp_path)
        engine.close()
        assert not (tmp_path / "online_updates.json").exists()
        assert not list(tmp_path.glob("*.npz"))


# ----------------------------------------------------------------------
# Serialization: lineage round-trip + backward compatibility
# ----------------------------------------------------------------------

class TestLineageSerialization:
    def test_round_trip(self, trained_gemm_tuner):
        fit = trained_gemm_tuner.fit_result
        lineage = FitLineage(model_version=3, parent_version=2,
                             n_samples=123, seed=9)
        tagged = fine_tune_fit(
            fit,
            trained_gemm_tuner.dataset.x[:16],
            trained_gemm_tuner.dataset.y[:16],
            anchor_x=None, anchor_y=None,
            config=OnlineConfig(epochs=1), lineage=lineage,
        )
        loaded = fit_from_bytes(fit_to_bytes(tagged))
        assert loaded.lineage == lineage
        assert loaded.model_version == 3

    def test_untagged_fit_loads_as_version_zero(self, trained_gemm_tuner):
        fit = trained_gemm_tuner.fit_result
        blob = fit_to_bytes(fit)
        loaded = fit_from_bytes(blob)
        assert loaded.lineage is None or loaded.lineage.model_version == 0
        assert loaded.model_version == 0


# ----------------------------------------------------------------------
# Async front door: version accounting + the background task
# ----------------------------------------------------------------------

class TestAsyncOnline:
    def test_stats_count_searches_per_version(self):
        engine = _online_engine()

        async def main():
            async with AsyncEngine(engine, own_engine=True,
                                   window_ms=1.0) as front:
                await front.query_many([
                    KernelRequest("gemm", _shape(200 + 16 * i, 64, 200),
                                  k=10, reps=2)
                    for i in range(3)
                ])
                front._run_online_once()
                await front.query(
                    KernelRequest("gemm", _shape(640, 96, 640), k=10,
                                  reps=2)
                )
                return front.stats()

        stats = asyncio.run(main())
        assert stats.model_versions.get(0) == 3
        assert stats.online_updates >= 1
        top = max(stats.model_versions)
        assert top >= 1 and stats.model_versions[top] == 1
        assert "searches by model version" in stats.describe()

    def test_online_task_spins_up_and_cancels_cleanly(self):
        engine = _online_engine()

        async def main():
            async with AsyncEngine(engine, own_engine=True,
                                   window_ms=1.0) as front:
                await front.query(
                    KernelRequest("gemm", _shape(256), k=10, reps=2)
                )
                assert front._online_task is not None
                # Give the task a couple of poll cycles to train + swap.
                for _ in range(40):
                    await asyncio.sleep(0.1)
                    if engine.model_version(DEVICE, "gemm") >= 1:
                        break
                return engine.model_version(DEVICE, "gemm")

        assert asyncio.run(main()) >= 1

    def test_frozen_front_door_never_starts_task(self, trained_gemm_tuner):
        engine = Engine(max_workers=0)
        engine.register(trained_gemm_tuner)

        async def main():
            async with AsyncEngine(engine, own_engine=False,
                                   window_ms=1.0) as front:
                await front.query(
                    KernelRequest("gemm", _shape(256), k=5, reps=1)
                )
                assert front._online_task is None
                return front.stats()

        stats = asyncio.run(main())
        assert stats.online_updates == 0
        assert stats.model_versions == {0: 1}
        engine.close()


# ----------------------------------------------------------------------
# CLI: the ``models`` verb + version tags in ``query`` output
# ----------------------------------------------------------------------

class TestCli:
    def test_models_verb_lists_versions_and_update_log(self, tmp_path,
                                                       capsys):
        engine = _online_engine(model_dir=tmp_path)
        engine.query(KernelRequest("gemm", _shape(256), k=4, reps=1))
        engine.close()  # close-flush persists v1 + the update log

        from repro.harness.cli import main

        assert main(["models", "--models", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "v1" in out and "parent=v0" in out
        assert "online update log" in out and "trigger=flush" in out
        # The device filter keeps matching rows and drops others.
        assert main(["models", "--models", str(tmp_path),
                     "--device", "maxwell"]) == 0
        out = capsys.readouterr().out
        assert "no saved fits" in out

    def test_models_verb_rejects_missing_dir(self, tmp_path):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["models", "--models", str(tmp_path / "nope")])

    def test_query_verb_prints_model_version(self, tmp_path, capsys,
                                             trained_gemm_tuner):
        trained_gemm_tuner.save(tmp_path / "p100-gemm.npz")
        from repro.harness.cli import main

        assert main([
            "query", "--models", str(tmp_path), "--op", "gemm",
            "--shape", "64x64x64", "-k", "4", "--reps", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "model=v0" in out

    def test_serve_online_end_to_end(self, tmp_path, capsys,
                                     trained_gemm_tuner):
        """``serve --online`` fine-tunes from the replayed network's
        misses, reports per-version search counts, and persists the
        update log on exit."""
        trained_gemm_tuner.save(tmp_path / "pascal--gemm.npz")
        from repro.harness.cli import main

        rc = main([
            "serve", "--models", str(tmp_path), "--network", "rnn",
            "--passes", "2", "--concurrency", "8", "-k", "10",
            "--reps", "2", "--online", "--online-every", "8",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "served 32 requests" in out
        assert "searches by model version" in out
        # The close-path flush trained whatever the cadence left behind.
        log = json.loads((tmp_path / "online_updates.json").read_text())
        assert log and all(r["version"] >= 1 for r in log)

    def test_serve_parser_accepts_online_flags(self):
        from repro.harness.cli import _service_parser

        args = _service_parser().parse_args([
            "serve", "--models", "m", "--network", "rnn",
            "--online", "--online-every", "16", "--online-epochs", "2",
        ])
        assert args.online and args.online_every == 16
        assert args.online_interval is None
        frozen = _service_parser().parse_args([
            "serve", "--models", "m", "--network", "rnn",
        ])
        assert not frozen.online


class TestRollbackGuard:
    """The anchor-regression guard: a fine-tune that regresses the
    anchor slice beyond tolerance is discarded, recorded as rejected,
    and the serving fit stays at the parent version."""

    def _cfg(self, tol):
        return OnlineConfig(update_every=8, epochs=2, anchor_size=64,
                            batch_size=32, rollback_tolerance=tol)

    def test_negative_tolerance_rejects_every_update(self):
        engine = _online_engine(config=self._cfg(-1.0))
        replies, digests = _run_traffic(engine)
        # Every candidate was judged and thrown away: no applied updates,
        # no version bump, but the rejection is on the record.
        assert digests == []
        assert engine.model_version(DEVICE, "gemm") == 0
        log = engine.online.update_log()
        assert log and all(r.status == "rejected" for r in log)
        assert all(np.isfinite(r.parent_val_mse) for r in log)
        desc = engine.online.describe()[(DEVICE, "gemm")]
        assert desc["updates"] == 0
        assert desc["rejections"] == len(log)
        # Serving stayed on the offline fit throughout.
        assert all(
            r.model_version in (None, 0) for r in replies
        )

    def test_huge_tolerance_applies_updates(self):
        engine = _online_engine(config=self._cfg(1e6))
        _, digests = _run_traffic(engine)
        assert digests
        log = engine.online.update_log()
        assert all(r.status == "applied" for r in log)
        assert all(np.isfinite(r.parent_val_mse) for r in log)
        assert engine.model_version(DEVICE, "gemm") >= 1
        desc = engine.online.describe()[(DEVICE, "gemm")]
        assert desc["rejections"] == 0

    def test_rejection_is_deterministic(self):
        log1 = None
        for _ in range(2):
            engine = _online_engine(config=self._cfg(-1.0))
            _run_traffic(engine)
            log = [
                (r.status, r.digest) for r in engine.online.update_log()
            ]
            if log1 is None:
                log1 = log
            else:
                assert log == log1

    def test_disabled_guard_never_judges(self):
        engine = _online_engine(config=CFG)  # rollback_tolerance=None
        _, digests = _run_traffic(engine)
        assert digests
        log = engine.online.update_log()
        assert all(r.status == "applied" for r in log)
        # No judging happened: the parent mse field stays unset.
        assert all(np.isnan(r.parent_val_mse) for r in log)
