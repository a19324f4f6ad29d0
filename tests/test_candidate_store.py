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

    def test_conv_bucket_round_trip(self, tmp_path, monkeypatch):
        shape = ConvShape.from_output(
            n=4, p=14, q=14, k=64, c=128, r=3, s=3
        )
        cfgs, matrix = conv_search.conv_candidates_batch(GTX_980_TI, shape)
        store = CandidateStore(tmp_path / "candidates")
        saved = store.save()
        assert saved == 2  # the gemm enumeration + the conv bucket
        search.clear_cache()
        assert store.load() == 2
        _forbid_enumeration(monkeypatch)
        loaded, loaded_matrix = conv_search.conv_candidates_batch(
            GTX_980_TI, shape
        )
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

    def test_superseded_conv_file_is_not_hashed_and_save_drops_it(
        self, tmp_path, monkeypatch
    ):
        """A record stored under its canonical key and under the older
        pow2 key: load() hashes one file, and save() then leaves only
        the canonical file and its digest sidecar."""
        shape = ConvShape.from_output(n=32, p=14, q=128, k=64, c=128, r=3,
                                      s=3)
        conv_search.conv_candidates_batch(GTX_980_TI, shape)
        key = conv_search.conv_bucket_key(GTX_980_TI, shape)
        assert key[3:] == (32, 8)
        rec = conv_search.bucket_cache_snapshot()[key]
        store = CandidateStore(tmp_path)
        for stored in (key[:3] + (32, 128), key):
            store._write(
                tmp_path / store._filename("conv-bucket", stored),
                "conv-bucket", stored, "conv", rec.params, rec.space_params,
            )
        search.clear_cache()
        hashed = []
        check = integrity.check

        def spy(path):
            hashed.append(path.name)
            return check(path)

        monkeypatch.setattr(integrity, "check", spy)
        assert store.load() == 1
        canonical = tmp_path / store._filename("conv-bucket", key)
        assert hashed == [canonical.name]
        assert set(conv_search.bucket_cache_snapshot()) == {key}

        assert store.save() == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [canonical.name, integrity.digest_path(canonical).name]
        )
        assert check(canonical) is True

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
