"""Tests for the on-disk candidate store and zero-enumeration cold start."""

import numpy as np
import pytest

import repro.core.candidate_store as candidate_store
import repro.inference.conv_search as conv_search
import repro.inference.search as search
from repro.core import integrity
from repro.core.candidate_store import CandidateStore
from repro.core.space import ParamSpace
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import GTX_980_TI
from repro.service.engine import Engine, KernelRequest


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Candidate caches are process-global; isolate this module's tests."""
    search.clear_cache()
    yield
    search.clear_cache()


def _forbid_enumeration(monkeypatch) -> None:
    def _boom(self, *args, **kwargs):
        raise AssertionError("product-space enumeration ran on a store hit")

    monkeypatch.setattr(ParamSpace, "grid", _boom)
    monkeypatch.setattr(ParamSpace, "iter_points", _boom)


class TestCandidateStore:
    def test_enum_round_trip_without_enumeration(
        self, tiny_space, tmp_path, monkeypatch
    ):
        configs, matrix = search.legal_configs(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        store = CandidateStore(tmp_path / "candidates")
        assert store.save() == 1
        search.clear_cache()
        assert store.load() == 1
        _forbid_enumeration(monkeypatch)
        loaded, loaded_matrix = search.legal_configs(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        assert loaded == configs
        assert np.array_equal(loaded_matrix, matrix)

    def test_conv_buckets_derive_from_the_stored_enumeration(
        self, tmp_path, monkeypatch
    ):
        """Only the GEMM enumeration is stored; a fresh process derives
        the CONV bucket from it, bit-identical, without enumerating."""
        shape = ConvShape.from_output(
            n=4, p=14, q=14, k=64, c=128, r=3, s=3
        )
        bucket = conv_search.conv_candidates_batch(GTX_980_TI, shape)
        cfgs, matrix = bucket.configs, bucket.matrix
        store = CandidateStore(tmp_path / "candidates")
        assert store.save() == 1  # the gemm enumeration, no conv bucket
        assert [p.name.split("--")[0] for p in store.files()] == ["enum"]
        search.clear_cache()
        assert store.load() == 1
        _forbid_enumeration(monkeypatch)
        loaded_bucket = conv_search.conv_candidates_batch(GTX_980_TI, shape)
        loaded, loaded_matrix = loaded_bucket.configs, loaded_bucket.matrix
        assert loaded == cfgs
        assert np.array_equal(loaded_matrix, matrix)

    def test_save_is_idempotent(self, tiny_space, tmp_path):
        search.legal_configs(GTX_980_TI, DType.FP32, "gemm", tiny_space)
        store = CandidateStore(tmp_path / "candidates")
        assert store.save() == 1
        assert store.save() == 0  # records are immutable, files kept
        assert len(store) == 1

    def test_save_rewrites_a_file_of_another_version(
        self, tiny_space, tmp_path, monkeypatch
    ):
        """A file load() skips as stale is rewritten by the next save(),
        digest sidecar included, so a later process loads it instead of
        enumerating again."""
        search.legal_configs(GTX_980_TI, DType.FP32, "gemm", tiny_space)
        store = CandidateStore(tmp_path / "candidates")
        assert store.save() == 1
        monkeypatch.setattr(
            candidate_store, "_VERSION", candidate_store._VERSION + 1
        )
        search.clear_cache()
        assert store.load() == 0  # another store version: skipped
        configs, matrix = search.legal_configs(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        assert store.save() == 1
        assert store.save() == 0
        assert len(store) == 1
        assert integrity.check(store.files()[0]) is True
        search.clear_cache()
        assert store.load() == 1
        _forbid_enumeration(monkeypatch)
        loaded, loaded_matrix = search.legal_configs(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        assert loaded == configs
        assert np.array_equal(loaded_matrix, matrix)

    def test_save_rewrites_a_file_from_before_a_space_edit(
        self, tiny_space, tmp_path, monkeypatch
    ):
        """Same space name, edited value sets: the set re-enumerates once,
        and the next save() replaces the pre-edit file."""
        from dataclasses import replace

        search.legal_configs(GTX_980_TI, DType.FP32, "gemm", tiny_space)
        store = CandidateStore(tmp_path / "candidates")
        store.save()
        edited = replace(
            tiny_space,
            params=tuple(
                (n, v if n != "u" else (8,)) for n, v in tiny_space.params
            ),
        )
        search.clear_cache()
        store.load()
        fresh, _ = search.legal_configs(GTX_980_TI, DType.FP32, "gemm",
                                        edited)
        assert store.save() == 1
        search.clear_cache()
        assert store.load() == 1
        _forbid_enumeration(monkeypatch)
        again, _ = search.legal_configs(GTX_980_TI, DType.FP32, "gemm",
                                        edited)
        assert again == fresh

    def test_conv_bucket_file_not_hashed_and_dropped(
        self, tmp_path, monkeypatch
    ):
        """A ``conv-bucket`` record from an older store: load() skips it
        on its ``__meta__`` without hashing it or seeding anything, and
        save() removes it and its digest sidecar."""
        import json

        shape = ConvShape.from_output(n=32, p=14, q=8, k=64, c=128, r=3,
                                      s=3)
        columns = conv_search.conv_candidates_batch(GTX_980_TI, shape).params
        key = conv_search.conv_bucket_key(GTX_980_TI, shape)
        old = tmp_path / "conv-bucket--conv--gtx-980-ti--fp32--32--8.npz"
        meta = {"version": candidate_store._VERSION, "kind": "conv-bucket",
                "op": "conv", "key": list(key), "space": None}
        np.savez(old, __meta__=np.array(json.dumps(meta)), **columns)
        integrity.write_digest(old)
        assert len(list(tmp_path.iterdir())) == 2  # record + sidecar
        search.clear_cache()
        hashed = []
        monkeypatch.setattr(integrity, "check", hashed.append)
        store = CandidateStore(tmp_path)
        assert store.load() == 0
        assert hashed == []
        assert search.enum_cache_snapshot() == {}
        assert conv_search._BUCKET_CACHE.snapshot() == {}

        assert store.save() == 0
        assert list(tmp_path.iterdir()) == []

    def test_file_of_another_version_is_not_hashed(self, tiny_space,
                                                   tmp_path, monkeypatch):
        search.legal_configs(GTX_980_TI, DType.FP32, "gemm", tiny_space)
        store = CandidateStore(tmp_path / "candidates")
        assert store.save() == 1
        monkeypatch.setattr(
            candidate_store, "_VERSION", candidate_store._VERSION + 1
        )
        search.clear_cache()
        hashed = []
        monkeypatch.setattr(integrity, "check", hashed.append)
        assert store.load() == 0
        assert hashed == []

    def test_seed_does_not_clobber_cached_records(self, tiny_space,
                                                  tmp_path):
        configs, _ = search.legal_configs(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        store = CandidateStore(tmp_path / "candidates")
        store.save()
        # The key is already cached in memory: load must keep the live
        # record (and report nothing seeded).
        assert store.load() == 0
        again, _ = search.legal_configs(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        assert again is configs

    def test_unreadable_record_is_skipped(self, tiny_space, tmp_path):
        search.legal_configs(GTX_980_TI, DType.FP32, "gemm", tiny_space)
        store = CandidateStore(tmp_path / "candidates")
        store.save()
        (tmp_path / "candidates" / "enum--garbage.npz").write_bytes(
            b"not an npz"
        )
        # A torn archive (valid PK magic, truncated body) raises
        # zipfile.BadZipFile rather than ValueError — must also skip.
        (tmp_path / "candidates" / "enum--torn.npz").write_bytes(
            b"PK\x03\x04" + b"\x00" * 16
        )
        search.clear_cache()
        with pytest.warns(UserWarning, match="unreadable"):
            assert store.load() == 1

    def test_missing_directory_is_empty(self, tmp_path):
        store = CandidateStore(tmp_path / "nope")
        assert store.load() == 0
        assert len(store) == 0

    def test_stale_space_definition_reenumerates(self, tiny_space,
                                                 tmp_path):
        """A record enumerated from different value sets must not be
        served for a space that now disagrees with them."""
        from dataclasses import replace

        configs, _ = search.legal_configs(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        store = CandidateStore(tmp_path / "candidates")
        store.save()
        search.clear_cache()
        store.load()
        # Same space *name*, edited value sets — as after a space change.
        edited = replace(
            tiny_space,
            params=tuple(
                (n, v if n != "u" else (8,)) for n, v in tiny_space.params
            ),
        )
        fresh, _ = search.legal_configs(GTX_980_TI, DType.FP32, "gemm",
                                        edited)
        assert all(c.u == 8 for c in fresh)  # re-enumerated, not stale
        assert fresh != configs

    def test_schema_mismatch_skipped_on_load(self, tiny_space, tmp_path):
        """Columns that no longer cover the config schema are not seeded
        (and so can never poison a cache key)."""
        search.legal_configs(GTX_980_TI, DType.FP32, "gemm", tiny_space)
        store = CandidateStore(tmp_path / "candidates")
        store.save()
        path = store.files()[0]
        with np.load(path, allow_pickle=False) as z:
            data = {k: z[k] for k in z.files}
        data.pop("ms")  # drop a column, as a config-schema change would
        np.savez(path, **data)
        search.clear_cache()
        assert store.load() == 0
        # The key re-enumerates normally.
        configs, _ = search.legal_configs(
            GTX_980_TI, DType.FP32, "gemm", tiny_space
        )
        assert len(configs) > 0


class TestEngineColdStart:
    def test_warmed_store_skips_enumeration(
        self, trained_gemm_tuner, tmp_path, monkeypatch
    ):
        """Engine cold start on a warmed cache dir performs zero
        product-space enumeration: the candidate store supplies the
        columns, only config materialization remains."""
        model_dir = tmp_path / "models"
        model_dir.mkdir()
        trained_gemm_tuner.save(model_dir / "pascal--gemm.npz")

        first = GemmShape(384, 384, 384, DType.FP32, False, True)
        with Engine.open(model_dir, max_workers=0) as engine:
            reply = engine.query(KernelRequest("gemm", first, k=5, reps=1))
            assert reply.source == "search"
        store = CandidateStore(model_dir / "candidates")
        assert len(store) >= 1  # close() persisted the enumeration

        # "New process": in-memory caches gone, enumeration forbidden.
        search.clear_cache()
        _forbid_enumeration(monkeypatch)
        second = GemmShape(640, 128, 640, DType.FP32, False, True)
        with Engine.open(model_dir, max_workers=0) as engine:
            reply = engine.query(KernelRequest("gemm", second, k=5, reps=1))
        assert reply.source == "search"


def test_worker_adopts_the_conv_term_by_base_key(small_conv_tuner):
    """The worker pack ships enumerations only, whatever buckets the
    parent searched: a worker derives the bucket from the GEMM
    enumeration, scores it through one first-layer term under the
    base key, and returns the parent's config and measurement."""
    from repro.core.tuner import Isaac
    from repro.gpu.device import TESLA_P100
    from repro.service.engine import WorkerEngine

    engine = Engine(max_workers=0)
    engine.register(Isaac.from_fit(
        TESLA_P100, "conv", small_conv_tuner.fit_result,
        dtypes=small_conv_tuner.dtypes,
    ))
    shape = ConvShape.from_output(n=4, p=14, q=14, k=64, c=128, r=3, s=3)
    other = ConvShape.from_output(n=64, p=7, q=7, k=64, c=64, r=3, s=3)
    want = engine.query(KernelRequest("conv", shape, k=8, reps=2))
    engine.query(KernelRequest("conv", other, k=8, reps=2))
    state = engine.export_worker_state()
    engine.close()
    assert [rec["op"] for rec in state.records] == ["gemm"]
    # Two buckets searched, only the enumeration's columns shipped.
    (columns,) = [rec["columns"] for rec in state.records]
    assert sorted(state.arrays) == sorted(columns.values())
    base_key = ("conv", TESLA_P100.name, "FP32")

    conv_search.clear_bucket_cache()  # the worker derives its own bucket
    worker = WorkerEngine(state, state.arrays)
    ((ok, payload),) = worker.search_batch(
        TESLA_P100.name, "conv", [shape], 8, 2
    )
    assert ok
    assert payload[0] == want.config
    assert payload[2] == want.measured_tflops
    search_ = worker._tuners[(TESLA_P100.name, "conv")].searcher
    term = search_._sets[conv_search.conv_bucket_key(TESLA_P100, shape)].term
    assert search_._terms == {base_key: term}
    assert search_.cascade_stats.cascade_queries == 1
