"""Whole-network fused execution plans (graph_plan.py).

The load-bearing contract: fused execution is bit-identical to the
oracle (``forward(..., fused=False)``: the seed reference layer by
layer) for every zoo proxy, every supported mode and every batch size -
the fused path may only ever change wall time.  Also
locked here: the integer-native seams (an int8/uint8 batch never
materialises float64 between entry and logits), arena-slot reuse, and
the engine stages a fused profile reports.
"""

import numpy as np
import pytest

from repro.cnn.inference import QuantizedModel
from repro.cnn.train import PROXY_MODELS, build_proxy
from repro.cnn.datasets import IMAGE_SHAPE
from repro.cnn.engine import SconnaEngine
from repro.cnn.graph_plan import NetworkPlan
from repro.stochastic.error_models import PerRequestErrorModels, SconnaErrorModel


@pytest.fixture(scope="module")
def calib():
    rng = np.random.default_rng(0)
    return rng.random((32, *IMAGE_SHAPE))


@pytest.fixture(scope="module")
def models(calib):
    return {
        name: QuantizedModel.from_trained(build_proxy(name), calib)
        for name in sorted(PROXY_MODELS)
    }


def _batch(n, seed=1):
    return np.random.default_rng(seed).random((n, *IMAGE_SHAPE))


class TestFusedEqualsReference:
    @pytest.mark.parametrize("name", sorted(PROXY_MODELS))
    @pytest.mark.parametrize("mode", ["int8", "sconna"])
    def test_bit_identical_ideal(self, models, name, mode):
        qm = models[name]
        x = _batch(3)
        em = SconnaErrorModel(adc_mape=0.0) if mode == "sconna" else None
        ref = qm.forward(x, mode=mode, error_model=em, fused=False)
        fus = qm.forward(x, mode=mode, error_model=em, fused=True)
        assert np.array_equal(ref, fus)

    @pytest.mark.parametrize("name", sorted(PROXY_MODELS))
    def test_bit_identical_seeded_noise(self, models, name):
        """The fused noisy path replays the oracle's RNG stream: one
        stacked draw per psum group, same order, same shapes."""
        qm = models[name]
        x = _batch(2, seed=2)
        ref = qm.forward(
            x, mode="sconna", error_model=SconnaErrorModel(seed=11),
            fused=False,
        )
        fus = qm.forward(
            x, mode="sconna", error_model=SconnaErrorModel(seed=11),
            fused=True,
        )
        assert np.array_equal(ref, fus)

    @pytest.mark.parametrize("name", sorted(PROXY_MODELS))
    def test_bit_identical_per_request_mix(self, models, name):
        """A served batch's per-request error models (seeded, None,
        ideal) give the same logits fused and through the oracle."""
        qm = models[name]
        x = _batch(5, seed=12)

        def mix():
            return PerRequestErrorModels(
                [SconnaErrorModel(seed=21), None,
                 SconnaErrorModel(adc_mape=0.0), SconnaErrorModel(seed=22)],
                sizes=[1, 2, 1, 1],
            )

        ref = qm.forward(x, mode="sconna", error_model=mix(), fused=False)
        fus = qm.forward(x, mode="sconna", error_model=mix())
        assert np.array_equal(ref, fus)

    def test_oracle_touches_no_engine(self, models, monkeypatch):
        """``fused=False`` is the seed reference alone: no network plan
        and no engine method runs."""
        qm = models["mnet_proxy"]
        x = _batch(2, seed=14)
        want = {
            mode: qm.forward(x, mode=mode, error_model=em())
            for mode, em in (("int8", lambda: None),
                             ("sconna", lambda: SconnaErrorModel(seed=5)))
        }

        def refuse(*args, **kwargs):
            raise AssertionError("fused=False reached the engine")

        for name in ("matmul", "matmul_ideal", "_load_activations",
                     "_remainder", "_remainder_kernel"):
            monkeypatch.setattr(SconnaEngine, name, refuse)
        monkeypatch.setattr(SconnaEngine, "pool", property(refuse))
        monkeypatch.setattr(NetworkPlan, "try_execute", refuse)
        assert np.array_equal(
            want["int8"], qm.forward(x, mode="int8", fused=False))
        assert np.array_equal(
            want["sconna"],
            qm.forward(x, mode="sconna", error_model=SconnaErrorModel(seed=5),
                       fused=False),
        )

    def test_default_error_model_matches(self, models):
        """forward() installs SconnaErrorModel(seed=0) on both paths."""
        qm = models["mnet_proxy"]
        x = _batch(2, seed=3)
        ref = qm.forward(x, mode="sconna", fused=False)
        fus = qm.forward(x, mode="sconna", fused=True)
        assert np.array_equal(ref, fus)

    @pytest.mark.parametrize("batch", [1, 4, 7])
    @pytest.mark.parametrize("mode", ["int8", "sconna"])
    def test_batch_sizes(self, models, batch, mode):
        qm = models["snet_proxy"]
        x = _batch(batch, seed=4)
        em = SconnaErrorModel(adc_mape=0.0) if mode == "sconna" else None
        ref = qm.forward(x, mode=mode, error_model=em, fused=False)
        fus = qm.forward(x, mode=mode, error_model=em, fused=True)
        assert np.array_equal(ref, fus)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.uint16])
    def test_integer_inputs_match_reference(self, models, dtype):
        """The LUT entry quantizes integer batches exactly like the
        reference's float64 max/div/rint/clip sequence."""
        qm = models["gnet_proxy"]
        info = np.iinfo(dtype)
        rng = np.random.default_rng(5)
        x = rng.integers(
            info.min, info.max + 1, size=(3, *IMAGE_SHAPE)
        ).astype(dtype)
        for mode in ("int8", "sconna"):
            em = SconnaErrorModel(adc_mape=0.0) if mode == "sconna" else None
            ref = qm.forward(x, mode=mode, error_model=em, fused=False)
            fus = qm.forward(x, mode=mode, error_model=em, fused=True)
            assert np.array_equal(ref, fus)

    def test_unplannable_model_runs_the_oracle(self, calib):
        """B = 17 is outside the vectorized envelope: the network plan
        declines the whole model and the default forward runs the oracle,
        equal to ``fused=False`` under seeded noise."""
        qm = QuantizedModel.from_trained(
            build_proxy("mnet_proxy"), calib, precision_bits=17
        )
        x = _batch(2, seed=15)
        assert qm.network_plan.try_execute(x, "sconna") is None
        ref, dflt = (
            qm.forward(x, mode="sconna", error_model=SconnaErrorModel(seed=6),
                       fused=fused)
            for fused in (False, True)
        )
        assert np.array_equal(ref, dflt)


class TestIntegerSeams:
    """The int8 socket-to-logits acceptance gate: no float64 tensor at
    the entry, inter-layer, or exit seams for integer requests."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int8])
    def test_no_float64_between_entry_and_logits(self, models, dtype):
        qm = models["mnet_proxy"]
        x = (np.random.default_rng(6).random((2, *IMAGE_SHAPE)) * 120).astype(
            dtype
        )
        trace = []
        out = qm.forward(x, mode="int8", fused=True, trace=trace)
        entry = trace[0]
        assert entry == ("entry", f"lut:{np.dtype(dtype).name}")
        grids = [t for t in trace if t[0] == "grid"]
        assert grids, "expected inter-layer grid checkpoints"
        assert all(np.dtype(d).kind == "u" for _, d in grids)
        assert trace[-1] == ("logits", "float64")
        assert out.dtype == np.float64

    def test_float_input_uses_float_workspace_entry(self, models):
        qm = models["mnet_proxy"]
        trace = []
        qm.forward(_batch(2, seed=7), mode="int8", fused=True, trace=trace)
        assert trace[0] == ("entry", "float64-ws")


class TestBufferLifetimes:
    def test_arena_slots_are_reused(self, models):
        """Liveness analysis must map more logical buffers than slots."""
        qm = models["rnet_proxy"]
        qm.forward(_batch(2, seed=8), mode="sconna",
                   error_model=SconnaErrorModel(adc_mape=0.0), fused=True)
        prog = qm.network_plan.program_for("sconna", (2, *IMAGE_SHAPE))
        assert prog is not None
        assert prog.n_slots < prog.n_buffers
        assert prog.arena_bytes > 0

    @pytest.mark.parametrize("composite", [False, True])
    def test_steady_state_noisy_forward_allocates_nothing(self, models,
                                                          composite):
        """After two warm-up calls a seeded fused batch-32 forward of
        rnet_proxy (conv stages with P = 144 and more) draws its ADC
        noise into pooled buffers: the ``tracemalloc`` peak stays under
        1 MiB, for one ``SconnaErrorModel`` and for 32 per-request
        models alike.  The NumPy remainder fallback allocates its
        chunked products by design, so this needs the native kernel."""
        import tracemalloc

        from repro.stochastic.error_models import PerRequestErrorModels
        from repro.utils import native

        if not native.native_available():
            pytest.skip("no native kernel in this environment")

        def error_model(seed):
            if composite:
                return PerRequestErrorModels(
                    [SconnaErrorModel(seed=seed + i) for i in range(32)])
            return SconnaErrorModel(seed=seed)

        qm, x = models["rnet_proxy"], _batch(32, seed=9)
        for seed in (1, 2):
            qm.forward(x, mode="sconna", error_model=error_model(seed),
                       fused=True)
        em = error_model(3)
        tracemalloc.start()
        try:
            qm.forward(x, mode="sconna", error_model=em, fused=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"

    def test_scratch_memory_follows_the_largest_batch(self, calib):
        """Seeded forwards at every batch size 1..32 retain no more than
        a fixed multiple of what one batch-32 forward retains: each pool
        tag keeps one buffer grown to its largest request, and each
        thread caches only its last program's arena views."""
        import tracemalloc

        qm = QuantizedModel.from_trained(build_proxy("mnet_proxy"), calib)
        x = _batch(32, seed=16)
        tracemalloc.start()
        try:
            qm.forward(x, mode="sconna", error_model=SconnaErrorModel(seed=1))
            one, _ = tracemalloc.get_traced_memory()
            for b in range(1, 33):
                qm.forward(x[:b], mode="sconna",
                           error_model=SconnaErrorModel(seed=b))
            swept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert swept < 1.5 * one, (
            f"{swept / 2**20:.1f} MiB after the sweep vs "
            f"{one / 2**20:.1f} MiB after one batch-32 forward"
        )

    def test_programs_cached_per_shape(self, models):
        qm = models["mnet_proxy"]
        p1 = qm.network_plan.program_for("int8", (2, *IMAGE_SHAPE))
        p2 = qm.network_plan.program_for("int8", (2, *IMAGE_SHAPE))
        assert p1 is p2
        p3 = qm.network_plan.program_for("int8", (3, *IMAGE_SHAPE))
        assert p3 is not p1


class TestEngineProfile:
    def test_adc_stage_profiled_only_under_noise(self, models):
        """Seeded profiles time the ADC draw as ``engine.adc``, ideal ones
        have no such stage, ``engine.remainder`` names the kernel that
        ran, and profiling never changes the logits."""
        qm = models["snet_proxy"]
        x = _batch(2, seed=13)
        for make_em, noisy in (
            (lambda: SconnaErrorModel(seed=3), True),
            (lambda: SconnaErrorModel(adc_mape=0.0), False),
        ):
            prof = []
            on = qm.forward(x, mode="sconna", error_model=make_em(),
                            profile=prof)
            off = qm.forward(x, mode="sconna", error_model=make_em())
            assert np.array_equal(on, off)
            names = {name for name, *_ in prof}
            assert ("engine.adc" in names) == noisy
            kernels = {tags["kernel"] for name, _, _, tags in prof
                       if name == "engine.remainder"}
            assert kernels and kernels <= {"cols", "split", "numpy"}
