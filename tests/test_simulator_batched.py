"""Scalar/batched parity of the array-core simulator.

The batched offline pipeline is only admissible if ``benchmark_many`` is
*bit-identical* to per-sample ``benchmark`` — same model chain, same
deterministic noise, same floats.  Three anchors enforce that:

1. golden values captured from the pre-refactor scalar chain (hex floats,
   so equality is exact);
2. property-style parity over random legal (config, shape) draws for every
   registered op;
3. counts parity between the vectorized extraction
   (:mod:`repro.ptx.batch_counts`) and the PTX code generators' per-kernel
   accounting, so the two implementations cannot drift.
"""

import hashlib
import warnings

import numpy as np
import pytest

from repro.core.batched import BatchedGemmShape
from repro.core.ops import get_op
from repro.core.soa import ConvPairArrays, GemmPairArrays
from repro.core.types import ConvShape, DType, GemmShape
from repro.gpu.device import get_device
from repro.gpu.simulator import simulate_many
from repro.inference.topk import rerank, rerank_with_report
from repro.ptx.batch_counts import conv_launch_arrays, gemm_launch_arrays
from repro.ptx.conv_codegen import ConvKernel
from repro.ptx.gemm_codegen import GemmKernel
from repro.sampling.dataset import (
    _make_accept,
    fit_generative_models,
    generate_dataset,
)
from tests.oracles import SCALAR_BENCHMARK, generate_dataset_loop

# ----------------------------------------------------------------------
# Golden measurements captured from the pre-refactor scalar chain
# (benchmark(device, cfg, shape, reps=3), values as exact hex floats).
# ----------------------------------------------------------------------

GOLDEN = [
    ("gemm", "GTX 980 TI",
     {"ms": 4, "ns": 8, "ml": 256, "nl": 64, "u": 32, "ks": 1, "kl": 1,
      "kg": 32, "vec": 4, "db": 1},
     GemmShape(512, 4096, 16384, DType.FP32, False, True),
     "0x1.7b50d12c97b59p+2"),
    ("gemm", "GTX 980 TI",
     {"ms": 4, "ns": 2, "ml": 64, "nl": 64, "u": 32, "ks": 4, "kl": 1,
      "kg": 8, "vec": 2, "db": 1},
     GemmShape(635, 510, 16384, DType.FP32, False, False),
     "0x1.0eadd32b36e1fp+2"),
    ("gemm", "GTX 980 TI",
     {"ms": 16, "ns": 2, "ml": 64, "nl": 32, "u": 16, "ks": 1, "kl": 1,
      "kg": 16, "vec": 2, "db": 2},
     GemmShape(32, 214, 55, DType.FP32, True, True),
     "0x1.0b1ceec76df7dp-4"),
    ("gemm", "GTX 980 TI",
     {"ms": 16, "ns": 4, "ml": 64, "nl": 64, "u": 4, "ks": 2, "kl": 4,
      "kg": 32, "vec": 2, "db": 1},
     GemmShape(1062, 1870, 65536, DType.FP32, False, True),
     "0x1.461d64edd5c2ap+1"),
    ("gemm", "GTX 980 TI",
     {"ms": 2, "ns": 2, "ml": 32, "nl": 16, "u": 16, "ks": 2, "kl": 2,
      "kg": 4, "vec": 2, "db": 1},
     GemmShape(92, 512, 2048, DType.FP32, True, False),
     "0x1.c3813eaac39bap+0"),
    ("gemm", "GTX 980 TI",
     {"ms": 4, "ns": 8, "ml": 128, "nl": 128, "u": 16, "ks": 1, "kl": 1,
      "kg": 2, "vec": 1, "db": 2},
     GemmShape(2048, 75, 226, DType.FP32, False, True),
     "0x1.ccae5ebad310bp+0"),
    # fp16 on Pascal exercises the packed-fp16x2 path.
    ("gemm", "Tesla P100 (PCIE)",
     {"ms": 4, "ns": 8, "ml": 128, "nl": 128, "u": 16, "ks": 2, "kl": 1,
      "kg": 4, "vec": 4, "db": 1},
     GemmShape(398, 24, 127, DType.FP16, False, True),
     "0x1.859f4546b654cp-3"),
    ("gemm", "Tesla P100 (PCIE)",
     {"ms": 8, "ns": 8, "ml": 16, "nl": 64, "u": 8, "ks": 4, "kl": 8,
      "kg": 2, "vec": 4, "db": 1},
     GemmShape(4065, 2048, 891, DType.FP16, True, True),
     "0x1.96f0edc5a3e20p+2"),
    ("gemm", "Tesla P100 (PCIE)",
     {"ms": 2, "ns": 8, "ml": 32, "nl": 32, "u": 2, "ks": 2, "kl": 4,
      "kg": 32, "vec": 1, "db": 2},
     GemmShape(25, 155, 65536, DType.FP16, True, True),
     "0x1.1c1966c53ba6dp+2"),
    ("gemm", "Tesla P100 (PCIE)",
     {"ms": 8, "ns": 2, "ml": 32, "nl": 64, "u": 16, "ks": 1, "kl": 1,
      "kg": 8, "vec": 2, "db": 2},
     GemmShape(1024, 256, 128, DType.FP16, True, True),
     "0x1.e04c2922092efp+1"),
    ("conv", "Tesla P100 (PCIE)",
     {"kt": 8, "pt": 2, "qt": 2, "nt": 2, "kb": 128, "pb": 4, "qb": 4,
      "nb": 4, "u": 2, "cs": 1, "cl": 1, "cg": 1, "vec": 1, "db": 1},
     ConvShape(n=11, c=177, h=35, w=85, k=709, r=20, s=20,
               dtype=DType.FP32),
     "0x1.aef9d689838a5p+2"),
    ("conv", "Tesla P100 (PCIE)",
     {"kt": 8, "pt": 4, "qt": 1, "nt": 1, "kb": 8, "pb": 16, "qb": 1,
      "nb": 2, "u": 4, "cs": 2, "cl": 8, "cg": 2, "vec": 2, "db": 1},
     ConvShape(n=15, c=11, h=45, w=66, k=256, r=11, s=3, dtype=DType.FP32),
     "0x1.614ea4e0a8edfp+1"),
    ("conv", "Tesla P100 (PCIE)",
     {"kt": 2, "pt": 2, "qt": 2, "nt": 4, "kb": 32, "pb": 4, "qb": 2,
      "nb": 4, "u": 8, "cs": 4, "cl": 8, "cg": 32, "vec": 2, "db": 2},
     ConvShape(n=1, c=701, h=20, w=60, k=771, r=7, s=1, dtype=DType.FP32),
     "0x1.6844bd847c74cp-1"),
    ("conv", "Tesla P100 (PCIE)",
     {"kt": 4, "pt": 1, "qt": 1, "nt": 2, "kb": 32, "pb": 4, "qb": 2,
      "nb": 4, "u": 8, "cs": 1, "cl": 4, "cg": 1, "vec": 2, "db": 1},
     ConvShape(n=16, c=16, h=142, w=205, k=288, r=7, s=1, dtype=DType.FP32),
     "0x1.fc913f1d0f8eap+1"),
    ("conv", "Tesla P100 (PCIE)",
     {"kt": 4, "pt": 1, "qt": 1, "nt": 4, "kb": 64, "pb": 1, "qb": 2,
      "nb": 8, "u": 8, "cs": 4, "cl": 8, "cg": 2, "vec": 1, "db": 1},
     ConvShape(n=4, c=85, h=64, w=20, k=1024, r=1, s=5, dtype=DType.FP32),
     "0x1.1d57a5d7eec34p+1"),
    ("bgemm", "Tesla P100 (PCIE)",
     {"ms": 4, "ns": 4, "ml": 128, "nl": 32, "u": 16, "ks": 1, "kl": 1,
      "kg": 32, "vec": 1, "db": 1},
     BatchedGemmShape(batch=8,
                      base=GemmShape(24, 156, 64, DType.FP32, False, True)),
     "0x1.d2c8f02ad1df3p-5"),
    ("bgemm", "Tesla P100 (PCIE)",
     {"ms": 2, "ns": 4, "ml": 64, "nl": 32, "u": 16, "ks": 4, "kl": 1,
      "kg": 4, "vec": 1, "db": 1},
     BatchedGemmShape(batch=64,
                      base=GemmShape(37, 403, 512, DType.FP32, True, False)),
     "0x1.d240f45e1e23cp+1"),
    ("bgemm", "Tesla P100 (PCIE)",
     {"ms": 16, "ns": 4, "ml": 64, "nl": 64, "u": 32, "ks": 2, "kl": 1,
      "kg": 64, "vec": 4, "db": 1},
     BatchedGemmShape(batch=10,
                      base=GemmShape(512, 512, 256, DType.FP32, False, True)),
     "0x1.44c9e02e3bf92p-1"),
    ("bgemm", "Tesla P100 (PCIE)",
     {"ms": 4, "ns": 8, "ml": 64, "nl": 16, "u": 16, "ks": 1, "kl": 2,
      "kg": 32, "vec": 4, "db": 1},
     BatchedGemmShape(batch=64,
                      base=GemmShape(32, 16, 2048, DType.FP32, False, True)),
     "0x1.9b5d877f7b249p+0"),
    ("bgemm", "Tesla P100 (PCIE)",
     {"ms": 8, "ns": 8, "ml": 64, "nl": 32, "u": 4, "ks": 1, "kl": 4,
      "kg": 4, "vec": 1, "db": 2},
     BatchedGemmShape(batch=25,
                      base=GemmShape(128, 572, 29, DType.FP32, True, False)),
     "0x1.25f55c4ca9c2ap+0"),
]

#: sha256 of Dataset.x / Dataset.y bytes for the per-sample generation
#: loop (tests/oracles.py), captured pre-refactor: same seed -> same
#: dataset.
DATASET_GOLDEN = [
    ("gemm", "GTX 980 TI", 12, 7,
     "4cd3768708320a38539bdfb987a84f219fc310656749aa5a54d4f21d7fa70f6f",
     "bc749524d0572e3f79c6a25450ae0682183603e67c671c575a451acf2cd91dcf"),
    ("conv", "Tesla P100 (PCIE)", 8, 9,
     "e51899c4559dfe1000f6575ac0d70247a05aae5fa0f078013daf9c364abf4dcf",
     "32bb7082807f85b8039585f07440160f64151813ec552d2dca056e46d898f29b"),
]


class TestGoldenParity:
    """Pre-refactor scalar values survive both paths, bit for bit."""

    @pytest.mark.parametrize(
        "op,dev,cfg_dict,shape,hexval",
        GOLDEN,
        ids=[f"{g[0]}-{i}" for i, g in enumerate(GOLDEN)],
    )
    def test_scalar_matches_golden(self, op, dev, cfg_dict, shape, hexval):
        spec = get_op(op)
        cfg = spec.config_from_point(cfg_dict)
        got = SCALAR_BENCHMARK[op](get_device(dev), cfg, shape, reps=3)
        assert got == float.fromhex(hexval)

    def test_batched_matches_golden(self):
        # Group by (op, device) so every golden rides one batched call.
        groups: dict[tuple, list] = {}
        for op, dev, cfg_dict, shape, hexval in GOLDEN:
            groups.setdefault((op, dev), []).append((cfg_dict, shape, hexval))
        for (op, dev), rows in groups.items():
            spec = get_op(op)
            cfgs = [spec.config_from_point(d) for d, _, _ in rows]
            shapes = [s for _, s, _ in rows]
            got = spec.benchmark_pairs(
                get_device(dev), cfgs, shapes, reps=3
            )
            want = np.array([float.fromhex(h) for _, _, h in rows])
            np.testing.assert_array_equal(got, want)


def _legal_pairs(device, op, dtype, count, seed):
    """Random legal (config, shape) draws via the generative model."""
    spec = get_op(op)
    rng = np.random.default_rng(seed)
    samplers = fit_generative_models(
        device, op=op, dtypes=(dtype,), rng=rng, target_accepted=60
    )
    shape_sampler = spec.make_shape_sampler((dtype,))
    accept = _make_accept(device, spec, dtype)
    pairs = []
    while len(pairs) < count:
        shape = shape_sampler(rng)
        point = samplers[dtype].sample_legal(accept, rng)
        pairs.append((spec.config_from_point(point), shape))
    return pairs


class TestPropertyParity:
    """benchmark_many == per-sample benchmark, bit for bit, for every op."""

    @pytest.mark.parametrize(
        "op,dev,dtype,seed",
        [
            ("gemm", "GTX 980 TI", DType.FP32, 0),
            ("gemm", "Tesla P100 (PCIE)", DType.FP16, 1),
            ("gemm", "Tesla P100 (PCIE)", DType.FP64, 2),
            ("conv", "GTX 980 TI", DType.FP32, 3),
            ("conv", "Tesla P100 (PCIE)", DType.FP16, 4),
            ("bgemm", "Tesla P100 (PCIE)", DType.FP32, 5),
        ],
    )
    def test_benchmark_many_bitwise(self, op, dev, dtype, seed):
        device = get_device(dev)
        spec = get_op(op)
        pairs = _legal_pairs(device, op, dtype, 25, seed)
        cfgs = [c for c, _ in pairs]
        shapes = [s for _, s in pairs]
        for reps, sigma in ((1, 0.06), (3, 0.06), (2, 0.0)):
            batched = spec.benchmark_pairs(
                device, cfgs, shapes, reps=reps, sigma=sigma
            )
            scalar = np.array([
                SCALAR_BENCHMARK[op](device, c, s, reps=reps, sigma=sigma)
                for c, s in pairs
            ])
            np.testing.assert_array_equal(batched, scalar)

    def test_simulate_many_times_match_scalar(self):
        device = get_device("Tesla P100 (PCIE)")
        spec = get_op("gemm")
        pairs = _legal_pairs(device, "gemm", DType.FP32, 15, 6)
        stats = simulate_many(
            device, "gemm", [c for c, _ in pairs], [s for _, s in pairs]
        )
        for i, (cfg, shape) in enumerate(pairs):
            one = spec.simulate(device, cfg, shape)
            row = stats.row(i)
            assert row.time_ms == one.time_ms
            assert row.limiter == one.limiter
            assert row.occupancy == one.occupancy
            assert row.traffic == one.traffic
            assert row.grid_size == one.grid_size
            assert row.waves == one.waves


class TestCountsParity:
    """Vectorized counts extraction == the PTX generators' accounting."""

    def test_gemm_counts_match_codegen(self):
        device = get_device("Tesla P100 (PCIE)")
        for dtype, seed in ((DType.FP32, 10), (DType.FP16, 11)):
            pairs = _legal_pairs(device, "gemm", dtype, 12, seed)
            cfgs = [c for c, _ in pairs]
            shapes = [s for _, s in pairs]
            for mode in ("predicated", "checked", "padded"):
                launch = gemm_launch_arrays(
                    device, GemmPairArrays.from_pairs(cfgs, shapes),
                    bounds_mode=mode,
                )
                for i, (cfg, shape) in enumerate(pairs):
                    kernel = GemmKernel(
                        cfg=cfg, shape=shape, device=device, bounds_mode=mode
                    )
                    assert launch.counts.row(i) == kernel.block_counts()
                    kc = kernel.kernel_counts()
                    assert int(launch.grid_size[i]) == kc.grid_size
                    assert (
                        int(launch.threads_per_block[i])
                        == kc.threads_per_block
                    )

    def test_conv_counts_match_codegen(self):
        device = get_device("GTX 980 TI")
        pairs = _legal_pairs(device, "conv", DType.FP32, 12, 12)
        cfgs = [c for c, _ in pairs]
        shapes = [s for _, s in pairs]
        for mode in ("predicated", "checked"):
            launch = conv_launch_arrays(
                device, ConvPairArrays.from_pairs(cfgs, shapes),
                bounds_mode=mode,
            )
            for i, (cfg, shape) in enumerate(pairs):
                kernel = ConvKernel(
                    cfg=cfg, shape=shape, device=device, bounds_mode=mode
                )
                assert launch.counts.row(i) == kernel.block_counts()
                assert int(launch.grid_size[i]) == cfg.grid_size(shape)


class TestIllegalHandling:
    """Illegal pairs: scalar raises, batched marks NaN — never silently."""

    def test_benchmark_many_nans_illegal_rows(self):
        from repro.gpu.simulator import IllegalKernelError

        device = get_device("Tesla P100 (PCIE)")
        spec = get_op("gemm")
        good_cfg, good_shape = _legal_pairs(
            device, "gemm", DType.FP32, 1, 20
        )[0]
        # threads = 8*8 = 64 but the 512x512 staging tile cannot be split
        # evenly — illegal, and far over the shared-memory budget too.
        bad_cfg = spec.config_from_point(
            {"ms": 8, "ns": 8, "ml": 64, "nl": 64, "u": 32, "ks": 1,
             "kl": 8, "kg": 1, "vec": 1, "db": 2}
        )
        with pytest.raises(IllegalKernelError):
            SCALAR_BENCHMARK[spec.name](device, bad_cfg, good_shape)
        out = spec.benchmark_pairs(
            device,
            [good_cfg, bad_cfg, good_cfg],
            [good_shape, good_shape, good_shape],
        )
        assert np.isnan(out[1])
        assert np.isfinite(out[[0, 2]]).all()
        assert out[0] == out[2]

    def test_rerank_counts_and_warns_on_drops(self):
        from repro.inference.search import Prediction

        device = get_device("Tesla P100 (PCIE)")
        spec = get_op("gemm")
        pairs = _legal_pairs(device, "gemm", DType.FP32, 4, 21)
        shape = pairs[0][1]
        bad_cfg = spec.config_from_point(
            {"ms": 8, "ns": 8, "ml": 64, "nl": 64, "u": 32, "ks": 1,
             "kl": 8, "kg": 1, "vec": 1, "db": 2}
        )
        cands = [Prediction(config=c, predicted_tflops=1.0)
                 for c, _ in pairs] + [
            Prediction(config=bad_cfg, predicted_tflops=9.9)
        ]
        report = rerank_with_report(device, shape, cands)
        assert report.dropped == 1
        assert report.evaluated == 5
        assert len(report.ranked) == 4
        with pytest.warns(RuntimeWarning, match="dropped 1 of 5"):
            ranked = rerank(device, shape, cands)
        assert [r.measured_tflops for r in ranked] == [
            r.measured_tflops for r in report.ranked
        ]

    def test_rerank_clean_shortlist_stays_silent(self):
        from repro.inference.search import Prediction

        device = get_device("Tesla P100 (PCIE)")
        pairs = _legal_pairs(device, "gemm", DType.FP32, 5, 22)
        shape = pairs[0][1]
        cands = [Prediction(config=c, predicted_tflops=1.0)
                 for c, _ in pairs]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranked = rerank(device, shape, cands)
        assert len(ranked) == 5


class TestDatasetDeterminism:
    """Fixed seed -> identical Dataset; oracle loop -> pre-refactor bytes."""

    @pytest.mark.parametrize(
        "op,dev,n,seed,x_sha,y_sha",
        DATASET_GOLDEN,
        ids=[g[0] for g in DATASET_GOLDEN],
    )
    def test_legacy_path_reproduces_prerefactor_dataset(
        self, op, dev, n, seed, x_sha, y_sha
    ):
        ds = generate_dataset_loop(
            get_device(dev), op, n, np.random.default_rng(seed),
            dtypes=(DType.FP32,),
        )
        assert hashlib.sha256(ds.x.tobytes()).hexdigest() == x_sha
        assert hashlib.sha256(ds.y.tobytes()).hexdigest() == y_sha

    @pytest.mark.parametrize("batched", [False, True])
    def test_fixed_seed_is_deterministic(self, batched):
        device = get_device("GTX 980 TI")
        generate = generate_dataset if batched else generate_dataset_loop
        runs = [
            generate(
                device, "gemm", 40, np.random.default_rng(13),
                dtypes=(DType.FP32,),
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].x, runs[1].x)
        np.testing.assert_array_equal(runs[0].y, runs[1].y)
        assert runs[0].feature_names == runs[1].feature_names

    def test_batched_rows_are_scalar_chain_measurements(self):
        """Every batched-path y is a scalar-chain benchmark of its x row."""
        device = get_device("GTX 980 TI")
        spec = get_op("gemm")
        rng = np.random.default_rng(14)
        samplers = fit_generative_models(
            device, op="gemm", dtypes=(DType.FP32,), rng=rng,
            target_accepted=60,
        )
        # Re-run the batched path's sampling with a cloned rng to recover
        # the (config, shape) pairs, then check each y against the scalar
        # chain.
        ds = generate_dataset(
            device, "gemm", 30, np.random.default_rng(99),
            samplers=samplers, dtypes=(DType.FP32,),
        )
        n_cfg = spec.n_config_features
        for i in range(len(ds)):
            cfg = spec.config_from_point(
                dict(zip(spec.config_features, ds.x[i, :n_cfg].astype(int)))
            )
            m, n, k, dsize, ta, tb = ds.x[i, n_cfg:]
            shape = GemmShape(
                int(m), int(n), int(k), DType(int(dsize)),
                bool(int(ta) - 1), bool(int(tb) - 1),
            )
            tflops = SCALAR_BENCHMARK[spec.name](device, cfg, shape)
            want = np.log2(max(tflops, 1e-6))
            assert ds.y[i] == want
