"""Tests for the vectorized count-domain engine and its satellites.

The load-bearing property: the vectorized ``sconna`` path (native C
kernel *and* pure-NumPy fallback) is bit-exact against the seed
per-output-channel implementation (kept as
``sconna_matmul_reference``) for every group size, precision and weight
sign pattern - the floor-decomposition identity is exact, not
approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnn.engine import (
    SconnaEngine,
    compile_layer_plan,
    psum_group_size,
    sconna_matmul_reference,
    vector_path_supported,
)
from repro.cnn.functional import im2col
from repro.cnn.inference import QuantLayer, QuantizedModel
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.cnn.datasets import N_CLASSES, generate_dataset
from repro.core.config import SconnaConfig
from repro.core.vdpe import SconnaVDPE
from repro.stochastic.arithmetic import sc_vdp, sc_vdp_batch
from repro.stochastic.error_models import PerRequestErrorModels, SconnaErrorModel
from repro.stochastic.lut import OsmLookupTable
from repro.utils import native


@pytest.fixture(scope="module")
def engines():
    return SconnaEngine(use_native=True), SconnaEngine(use_native=False)


class TestBitExactEquivalence:
    @given(
        b=st.sampled_from([4, 8, 12]),  # 12 exercises the uint16 low-bits path
        seed=st.integers(min_value=0, max_value=2**31),
        # groups past 255 reach split's uint16 partial-sum blocks
        group=st.one_of(st.integers(min_value=1, max_value=64),
                        st.integers(min_value=250, max_value=600)),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_any_group(self, engines, b, seed, group):
        """Odd groups, q not divisible by group, zero/negative weights,
        P on both sides of the cols/split cutoff, matmul and
        matmul_ideal."""
        rng = np.random.default_rng(seed)
        batch = int(rng.integers(1, 4))
        l = int(rng.integers(1, 9))
        q = int(rng.integers(1, 97 if group <= 64 else 700))
        p = int(rng.integers(1, 20))
        length = 1 << b
        cols = rng.integers(0, length + 1, size=(batch, q, p)).astype(np.int64)
        w = rng.integers(-length, length + 1, size=(l, q)).astype(np.int64)
        w[rng.random(w.shape) < 0.2] = 0  # force zero weights
        ref = sconna_matmul_reference(cols, w, b, group)
        plan = compile_layer_plan(w, b, group)
        for eng in engines:
            assert np.array_equal(ref, eng.matmul(plan, cols))
            assert np.array_equal(ref, eng.matmul_ideal(plan, cols))

    def test_extreme_operands(self, engines):
        """Saturated activations/weights (value 2**B) hit the wraparound."""
        b = 8
        cols = np.full((2, 7, 3), 256, dtype=np.int64)
        w = np.array([[256, -256, 0, 255, -255, 1, 256]] * 3, dtype=np.int64)
        ref = sconna_matmul_reference(cols, w, b, 5)
        plan = compile_layer_plan(w, b, 5)
        for eng in engines:
            assert np.array_equal(ref, eng.matmul(plan, cols))

    def test_matches_vdpe_exact_reference(self, engines):
        """Summed engine counts equal the VDPE's golden scalar reference."""
        rng = np.random.default_rng(3)
        for b in (4, 8):
            length = 1 << b
            q = 131  # not divisible by any nice group
            i_vec = rng.integers(0, length + 1, size=q)
            w_vec = rng.integers(-length, length + 1, size=q)
            exact = SconnaVDPE.exact_reference(i_vec, w_vec, b)
            cols = i_vec.astype(np.int64)[None, :, None]
            plan = compile_layer_plan(w_vec[None, :], b, 17)
            for eng in engines:
                out = eng.matmul(plan, cols)
                assert int(out[0, 0, 0]) == exact

    def test_noisy_path_is_reproducible(self, engines):
        rng = np.random.default_rng(5)
        cols = rng.integers(0, 257, size=(2, 50, 6)).astype(np.int64)
        w = rng.integers(-256, 257, size=(4, 50)).astype(np.int64)
        plan = compile_layer_plan(w, 8, 16)
        eng = engines[0]
        a = eng.matmul(plan, cols, SconnaErrorModel(seed=7))
        c = eng.matmul(plan, cols, SconnaErrorModel(seed=7))
        assert np.array_equal(a, c)
        # and the noise actually perturbs relative to the ideal path
        ideal = eng.matmul(plan, cols)
        assert not np.array_equal(a, ideal)

    def test_unsupported_configs_rejected(self):
        assert not vector_path_supported(17, 4)
        assert not vector_path_supported(8, 2**26)
        assert vector_path_supported(8, 704)
        with pytest.raises(ValueError):
            compile_layer_plan(np.zeros((2, 4), dtype=np.int64), 17, 4)

    def test_model_routes_through_engine_and_falls_back(self, monkeypatch):
        """In the envelope ``forward`` runs the fused plan on the engine;
        outside it (B = 17) the plan declines and ``forward`` runs the
        oracle without touching the engine.  Both equal ``fused=False``
        under seeded noise."""
        ds = generate_dataset(2, seed=0)
        x = ds.images[:3]

        def model(bits):
            net = Sequential(
                Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(1)),
                ReLU(), MaxPool2d(4), Flatten(),
                Linear(4 * 6 * 6, N_CLASSES, rng=np.random.default_rng(2)),
            )
            return QuantizedModel.from_trained(net, ds.images[:8], bits)

        def both(qm):
            return [qm.forward(x, mode="sconna", fused=fused,
                               error_model=SconnaErrorModel(seed=4))
                    for fused in (True, False)]

        qm8 = model(8)
        assert qm8.network_plan.try_execute(
            x, "sconna", SconnaErrorModel(seed=4)) is not None
        fused, oracle = both(qm8)
        assert np.array_equal(fused, oracle)

        qm17 = model(17)
        assert qm17.network_plan.try_execute(x, "sconna") is None

        def refuse(*args, **kwargs):
            raise AssertionError("engine called outside its envelope")

        monkeypatch.setattr(SconnaEngine, "matmul", refuse)
        monkeypatch.setattr(SconnaEngine, "matmul_ideal", refuse)
        fused, oracle = both(qm17)
        assert np.array_equal(fused, oracle)

    def test_reference_rejects_mismatched_weights(self):
        """The oracle never truncates: any Q mismatch between the columns
        and the weights raises instead of using a prefix of either."""
        with pytest.raises(ValueError, match="Q=100"):
            sconna_matmul_reference(
                np.zeros((1, 100, 1), dtype=np.int64),
                np.zeros((4, 300), dtype=np.int64), 8, 16,
            )
        with pytest.raises(ValueError, match="Q=300"):
            sconna_matmul_reference(
                np.zeros((1, 300, 1), dtype=np.int64),
                np.zeros((4, 100), dtype=np.int64), 8, 16,
            )


class TestLayerPlans:
    def test_stage_plans_compiled_by_network_plan(self):
        """The first sconna program compiles each stage's engine plan and
        every later batch size shares it; int8 programs take float
        weights straight from ``weight_q`` and compile no engine plan."""
        rng_model = Sequential(
            Conv2d(3, 4, 3, padding=1), ReLU(), MaxPool2d(4),
            Flatten(), Linear(4 * 6 * 6, N_CLASSES),
        )
        ds = generate_dataset(2, seed=0)
        qm = QuantizedModel.from_trained(rng_model, ds.images[:8])
        stages = qm.network_plan.stages
        qm.forward(ds.images[:2], mode="int8")
        assert stages and all(
            st.plan is None and st.w_f is not None for st in stages
        )
        qm.forward(ds.images[:2], mode="sconna")
        plans = [st.plan for st in stages]
        group = psum_group_size(qm.config)
        assert all(p is not None and p.group == group for p in plans)
        qm.forward(ds.images[:3], mode="sconna")
        assert all(st.plan is p for st, p in zip(stages, plans))

    def test_plan_recompiled_when_config_changes(self):
        rng = np.random.default_rng(0)
        w = rng.integers(-256, 257, size=(3, 20)).astype(np.int64)
        plan = compile_layer_plan(w, 8, 10)
        assert plan.n_out == 3 and plan.n_in == 20
        assert len(plan.group_slices) == 2
        assert plan.w_stacked.shape == (6, 20)
        # sign split: pos rows hold positive magnitudes only
        assert (plan.w_stacked[:3][w <= 0] == 0).all()
        assert (plan.w_stacked[3:][w >= 0] == 0).all()


class TestBiasedConvRegression:
    """Satellite: conv bias must survive quantization in every mode."""

    @pytest.fixture(scope="class")
    def biased_setup(self):
        rng = np.random.default_rng(9)
        conv = Conv2d(3, 5, 3, padding=1, rng=rng, bias=True)
        conv.bias[:] = rng.normal(0.0, 0.5, size=5)
        model = Sequential(
            conv, ReLU(), MaxPool2d(4), Flatten(),
            Linear(5 * 6 * 6, N_CLASSES, rng=rng),
        )
        ds = generate_dataset(3, seed=1)
        qm = QuantizedModel.from_trained(model, ds.images[:16])
        return model, ds, qm

    def test_float_and_int8_agree_with_bias(self, biased_setup):
        model, ds, qm = biased_setup
        x = ds.images[:6]
        f = qm.forward(x, mode="float")
        q = qm.forward(x, mode="int8")
        assert np.allclose(f, model.forward(x.astype(np.float64)))
        assert np.abs(f - q).max() < 0.25 * np.abs(f).max() + 0.1

    def test_quantized_conv_actually_applies_bias(self, biased_setup):
        """int8/sconna outputs shift by exactly the bias vector."""
        _, ds, qm = biased_setup
        x = ds.images[:4]
        layer = next(s for s in qm.structure if isinstance(s, QuantLayer))
        assert layer.kind == "conv" and layer.bias is not None
        saved = layer.bias
        for mode in ("int8", "sconna"):
            em = SconnaErrorModel(adc_mape=0.0) if mode == "sconna" else None
            with_bias = qm._run_quant_layer(layer, x.astype(np.float64), mode, em)
            layer.bias = None
            without = qm._run_quant_layer(layer, x.astype(np.float64), mode, em)
            layer.bias = saved
            delta = with_bias - without
            expected = np.broadcast_to(saved.reshape(1, -1, 1, 1), delta.shape)
            assert np.allclose(delta, expected)

    def test_conv_bias_trains(self):
        conv = Conv2d(1, 2, 3, bias=True)
        x = np.ones((2, 1, 5, 5))
        out = conv.forward(x)
        conv.backward(np.ones_like(out))
        assert conv.grad_bias.shape == (2,)
        assert np.all(conv.grad_bias == 2 * 3 * 3)  # batch * out_h * out_w
        assert len(conv.parameters()) == 2


class TestLutArrayApi:
    def test_matches_scalar_fetch(self):
        lut = OsmLookupTable(4)
        rng = np.random.default_rng(2)
        i_arr = rng.integers(0, 16, size=40)
        w_arr = rng.integers(0, 16, size=40)
        batch = lut.fetch_product_counts(i_arr, w_arr)
        scalar = [lut.fetch_product_count(int(i), int(w)) for i, w in zip(i_arr, w_arr)]
        assert batch.tolist() == scalar

    def test_counts_are_floor_products(self):
        lut = OsmLookupTable(8)
        rng = np.random.default_rng(4)
        i_arr = rng.integers(0, 256, size=(3, 17))
        w_arr = rng.integers(0, 256, size=(3, 17))
        out = lut.fetch_product_counts(i_arr, w_arr)
        assert np.array_equal(out, (i_arr * w_arr) >> 8)

    def test_osm_batch_wrapper_matches_lut(self):
        from repro.core.osm import OpticalStochasticMultiplier

        osm = OpticalStochasticMultiplier()
        rng = np.random.default_rng(14)
        i_arr = rng.integers(0, 256, size=25)
        w_arr = rng.integers(0, 256, size=25)
        assert np.array_equal(
            osm.multiply_streams_batch(i_arr, w_arr),
            osm.lut.fetch_product_counts(i_arr, w_arr),
        )

    def test_broadcasting_and_validation(self):
        lut = OsmLookupTable(4)
        out = lut.fetch_product_counts(np.arange(16), 15)
        assert out.shape == (16,)
        with pytest.raises(ValueError):
            lut.fetch_product_counts(np.array([16]), np.array([0]))
        with pytest.raises(ValueError):
            lut.fetch_product_counts(np.array([0]), np.array([-1]))

    def test_engine_counts_match_bit_true_lut_accumulation(self, engines):
        """The vectorized engine equals physically ANDing LUT streams.

        Cross-checks the closed-form floor decomposition against the
        bit-true OSM path: sign-steered sums of per-product AND
        popcounts fetched through the array API.
        """
        b = 4
        lut = OsmLookupTable(b)
        rng = np.random.default_rng(13)
        q, l, p = 23, 3, 5
        cols = rng.integers(0, 1 << b, size=(2, q, p)).astype(np.int64)
        w = rng.integers(-(1 << b) + 1, 1 << b, size=(l, q)).astype(np.int64)
        counts = lut.fetch_product_counts(
            cols[:, None, :, :], np.abs(w)[None, :, :, None]
        )
        expected = (np.sign(w)[None, :, :, None] * counts).sum(axis=2)
        plan = compile_layer_plan(w, b, group=7)
        for eng in engines:
            assert np.array_equal(eng.matmul(plan, cols), expected)


class TestBatchedVdp:
    def test_batch_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        i_mat = rng.integers(0, 257, size=(9, 33))
        w_mat = rng.integers(-256, 257, size=(9, 33))
        pos, neg = sc_vdp_batch(i_mat, w_mat, 8)
        for row in range(9):
            assert (int(pos[row]), int(neg[row])) == sc_vdp(i_mat[row], w_mat[row], 8)

    def test_vdpe_compute_vdp_unchanged(self):
        """The batched piece computation preserves the functional contract."""
        rng = np.random.default_rng(12)
        i = rng.integers(0, 257, size=450)  # 450 = 2*176 + 98: ragged tail
        w = rng.integers(-256, 257, size=450)
        vdpe = SconnaVDPE(seed=0)
        res = vdpe.compute_vdp(i, w, apply_adc_error=False)
        assert res.signed_count == SconnaVDPE.exact_reference(i, w, 8)
        assert res.optical_passes == 3


class TestIm2colBufferReuse:
    def test_out_buffer_matches_fresh_allocation(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 100, size=(2, 3, 9, 9)).astype(np.int64)
        fresh = im2col(x, 3, stride=2, padding=1)
        buf = np.empty(fresh.shape, dtype=np.int64)
        out = im2col(x, 3, stride=2, padding=1, out=buf)
        assert out is buf
        assert np.array_equal(fresh, buf)

    def test_out_buffer_fuses_dtype_cast(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 100, size=(1, 2, 6, 6)).astype(np.int64)
        fresh = im2col(x, 2)
        buf = np.empty(fresh.shape, dtype=np.float64)
        im2col(x, 2, out=buf)
        assert np.array_equal(fresh.astype(np.float64), buf)

    def test_bad_out_shape_rejected(self):
        x = np.zeros((1, 1, 4, 4))
        with pytest.raises(ValueError):
            im2col(x, 2, out=np.empty((1, 4, 4)))


class TestNativeKernel:
    def test_fallback_matches_native_when_available(self):
        """Both C kernels equal the NumPy fallback and int64 ground truth
        on a group slice spanning two of ``split``'s 255-product uint16
        partial-sum blocks plus a ragged tail."""
        if not native.native_available():
            pytest.skip("no native kernel in this environment")
        from repro.cnn.engine import _remainder_fallback

        rng = np.random.default_rng(10)
        b, p, q, l = 2, 5, 600, 4
        sl = slice(8, 580)
        for mask in (0xFF, 0x0F):  # B = 8 wraps, B = 4 masks
            a = rng.integers(0, 256, size=(b, q, p)).astype(np.uint8) & mask
            w = rng.integers(-255, 256, size=(l, q))
            w_mag = np.abs(w).astype(np.uint8) & mask
            w_pos = np.where(w > 0, 0xFF, 0).astype(np.uint8)
            a_rows = np.ascontiguousarray(a.transpose(0, 2, 1))
            prods = (
                a_rows[:, None, :, sl].astype(np.int64)
                * w_mag[None, :, None, sl]
            ) & mask
            pos = (w > 0)[None, :, None, sl]
            expect = np.concatenate(
                [(prods * pos).sum(axis=-1), (prods * ~pos).sum(axis=-1)],
                axis=1,
            )
            w_lo = np.concatenate(
                [np.where(w > 0, w_mag, 0), np.where(w < 0, w_mag, 0)]
            ).astype(np.uint8)
            fallback = np.empty((b, 2 * l, p), dtype=np.int32)
            _remainder_fallback(a_rows, w_lo, sl, mask, fallback)
            assert np.array_equal(fallback.astype(np.int64), expect)
            for kernel, operand in (
                (native.remainder_group_sums_split, a_rows),
                (native.remainder_group_sums_cols, np.ascontiguousarray(a)),
            ):
                out = np.empty((b, 2 * l, p), dtype=np.int32)
                assert kernel(
                    operand, w_mag, w_pos, sl.start, sl.stop, mask, out
                )
                assert np.array_equal(out, fallback)

    @pytest.mark.parametrize("q", [256, 257, 258, 514, 515])
    @pytest.mark.parametrize("b", [8, 4])
    def test_cols_block_and_tile_edges(self, q, b):
        """``cols`` keeps uint16 partial sums over blocks of 257
        contraction rows and 256-pixel tiles: one psum group of Q rows
        on either side of one and two block edges, P on either side of
        one and two tile edges, equals the reference.  Image 0 saturates
        every product's low bits (a = 2**B - 1, |w| = 1), so all-positive
        and all-negative rows reach the largest sums a block can hold."""
        if not native.native_available():
            pytest.skip("no native kernel in this environment")
        eng = SconnaEngine(use_native=True)
        top = (1 << b) - 1
        rng = np.random.default_rng(q + b)
        w = rng.integers(-(1 << b), (1 << b) + 1, size=(5, q))
        w[0], w[1] = 1, -1
        w[2, ::2] = 0  # zero low bits are skipped
        plan = compile_layer_plan(w, b, q)
        for p in (8, 255, 256, 257, 600):
            cols = rng.integers(0, (1 << b) + 1, size=(2, q, p))
            cols[0] = top
            ref = sconna_matmul_reference(cols, w, b, q)
            prof = []
            assert np.array_equal(ref, eng.matmul(plan, cols, profile=prof))
            assert {tags["kernel"] for name, _, _, tags in prof
                    if name == "engine.remainder"} == {"cols"}
            assert np.array_equal(ref, eng.matmul_ideal(plan, cols))

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        assert native.get_kernel() is None


#: (use_native, P) that make the engine pick each remainder kernel; the
#: two native cases sit on either side of the P cutoff
_KERNEL_CASES = {"cols": (True, 8), "split": (True, 7), "numpy": (False, 8)}
#: case ids name both halves of the product: the remainder kernel and
#: the BLAS matmul that always computes the quotient part
_KERNEL_IDS = [pytest.param(k, id=f"{k}-blas") for k in _KERNEL_CASES]


def _engine_for(kernel):
    use_native, p = _KERNEL_CASES[kernel]
    if use_native and not native.native_available():
        pytest.skip("no native kernel in this environment")
    return SconnaEngine(use_native=use_native), p


def _operand(seed, q, p, b=8, l=5, batch=2):
    rng = np.random.default_rng(seed)
    length = 1 << b
    cols = rng.integers(0, length + 1, size=(batch, q, p)).astype(np.int64)
    w = rng.integers(-length, length + 1, size=(l, q)).astype(np.int64)
    w[rng.random(w.shape) < 0.2] = 0
    return cols, w


class TestKernelVariants:
    """Every remainder kernel the engine can pick computes the seed
    reference's exact sums, through every engine entry point."""

    @staticmethod
    def _cases(p):
        """Groups and Q past ``split``'s 255-product partial-sum blocks
        at B = 4 and 8, plus saturated low bits."""
        cases = [(b, q, group, _operand(q + b, q, p, b))
                 for b in (4, 8) for q, group in ((43, 16), (700, 600))]
        # a*w == 255 (mod 256) for every product, all-positive and
        # all-negative rows: the largest partial sums either side can hold
        w_sat = np.ones((3, 700), dtype=np.int64)
        w_sat[1] = -1
        w_sat[2, ::2] = -1
        cases.append((8, 700, 600, (
            np.full((2, 700, p), 255, dtype=np.int64), w_sat,
        )))
        return cases

    @pytest.mark.parametrize("kernel", _KERNEL_IDS)
    def test_matmul_variants_match_reference(self, kernel):
        """``matmul`` (returned, ``out=``, seeded and per-request noise)
        equals the reference, and the profile names the kernel that
        ran."""
        eng, p = _engine_for(kernel)
        for b, q, group, (cols, w) in self._cases(p):
            ref = sconna_matmul_reference(cols, w, b, group)
            plan = compile_layer_plan(w, b, group)
            prof = []
            got = eng.matmul(plan, cols, profile=prof)
            assert np.array_equal(ref, got)
            assert {tags["kernel"] for name, _, _, tags in prof
                    if name == "engine.remainder"} == {kernel}
            out = np.empty_like(got)
            eng.matmul(plan, cols, out=out)
            assert np.array_equal(ref, out)
            # seeded noise: the reference draws in the engine's order
            for em in (
                lambda: SconnaErrorModel(seed=5),
                lambda: PerRequestErrorModels(
                    [SconnaErrorModel(seed=6), None]),
            ):
                assert np.array_equal(
                    sconna_matmul_reference(cols, w, b, group, em()),
                    eng.matmul(plan, cols, em()),
                )

    @pytest.mark.parametrize("kernel", _KERNEL_IDS)
    def test_matmul_ideal_matches_noisy_path_ideal(self, kernel):
        """The collapsed signed-BLAS ideal path equals the stacked
        reference for every kernel."""
        eng, p = _engine_for(kernel)
        for b, q, group, (cols, w) in self._cases(p):
            ref = sconna_matmul_reference(cols, w, b, group)
            plan = compile_layer_plan(w, b, group)
            assert np.array_equal(ref, eng.matmul_ideal(plan, cols))

    def test_kernel_rule_follows_operand_shape(self, engines):
        """``cols`` from P = 8 up, ``split`` below; NumPy without the
        native library or without uint8 sign-split arrays (B > 8)."""
        eng, no_native = engines
        w = np.ones((2, 4), dtype=np.int64)
        plan8, plan12 = compile_layer_plan(w, 8, 4), compile_layer_plan(w, 12, 4)
        assert no_native._remainder_kernel(plan8, 8) == "numpy"
        assert eng._remainder_kernel(plan12, 8) == "numpy"
        if native.native_available():
            assert eng._remainder_kernel(plan8, 8) == "cols"
            assert eng._remainder_kernel(plan8, 7) == "split"

    def test_float64_cols_operand_matches_int64(self, engines):
        """The fused path hands the engine C-contiguous float64 columns
        (used directly as the BLAS operand); results must be identical
        to the int64-cols reference call."""
        for p in (7, 8):
            cols, w = _operand(23, 43, p)
            plan = compile_layer_plan(w, 8, 16)
            cols_f = np.ascontiguousarray(cols.astype(np.float64))
            for eng in engines:
                ref = eng.matmul(plan, cols)
                assert np.array_equal(ref, eng.matmul(plan, cols_f))
                assert np.array_equal(ref, eng.matmul_ideal(plan, cols_f))

    def test_seeded_noise_identical_across_variants(self, engines):
        """Native and NumPy kernels feed the ADC draw identical counts,
        on both sides of the P cutoff."""
        for p in (7, 8):
            cols, w = _operand(24, 43, p)
            plan = compile_layer_plan(w, 8, 16)
            got = [eng.matmul(plan, cols, SconnaErrorModel(seed=5))
                   for eng in engines]
            assert np.array_equal(got[0], got[1])


class TestRemainderFallbackBoundary:
    """The chunked-broadcast fallback at the int32 top of the
    vector_path_supported envelope (the historical bug: accumulating
    with dtype=uint32 into the int32 buffer)."""

    def test_envelope_edges(self):
        # largest group whose remainder sums fit int32 at B=16
        assert vector_path_supported(16, 32768)
        assert not vector_path_supported(16, 32769)

    def test_exact_at_int32_boundary(self):
        from repro.cnn.engine import _remainder_fallback

        bits, qg = 16, 32768
        mask = (1 << bits) - 1
        # a*w mod 2**16 == 65535 for every q: the worst-case sum
        a_lo = np.full((1, 1, qg), mask, dtype=np.uint16)
        w_lo = np.ones((2, qg), dtype=np.uint16)
        out = np.empty((1, 2, 1), dtype=np.int32)
        _remainder_fallback(a_lo, w_lo, slice(0, qg), mask, out)
        expect = qg * mask  # 2147450880 < 2**31 - 1: must not wrap
        assert out.dtype == np.int32
        assert np.all(out == expect)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_property_matches_int64_ground_truth(self, seed):
        from repro.cnn.engine import _remainder_fallback

        rng = np.random.default_rng(seed)
        bits = int(rng.integers(9, 17))
        mask = (1 << bits) - 1
        qg = int(rng.integers(1, 200))
        b, l2, p = 2, 3, 4
        a_lo = rng.integers(0, mask + 1, size=(b, p, qg)).astype(np.uint16)
        w_lo = rng.integers(0, mask + 1, size=(l2, qg)).astype(np.uint16)
        out = np.empty((b, l2, p), dtype=np.int32)
        _remainder_fallback(a_lo, w_lo, slice(0, qg), mask, out)
        expect = (
            (a_lo[:, None, :, :].astype(np.int64) * w_lo[None, :, None, :])
            & mask
        ).sum(axis=-1)
        assert np.array_equal(out.astype(np.int64), expect)


class TestEventKernelBatch:
    def test_schedule_batch_orders_like_loop(self):
        from repro.arch.events import EventKernel

        seen = []
        k = EventKernel()
        k.schedule_batch([3e-9, 1e-9, 2e-9], lambda: seen.append(k.now))
        k.schedule(1e-9, lambda: seen.append(("single", k.now)))
        k.run()
        assert seen == [1e-9, ("single", 1e-9), 2e-9, 3e-9]

    def test_schedule_batch_rejects_past(self):
        from repro.arch.events import EventKernel, SimulationError

        with pytest.raises(SimulationError):
            EventKernel().schedule_batch([1.0, -0.5], lambda: None)
