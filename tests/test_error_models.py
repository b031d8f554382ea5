"""Tests for the end-to-end SCONNA error model."""

import numpy as np
import pytest

from repro.photonics.converters import AdcErrorModel
from repro.stochastic.error_models import (
    PerRequestErrorModels,
    SconnaErrorModel,
    measure_vdp_error,
)

#: 0-size, 1-D and the engine's stacked (B, 2L, P) psum-group shape
_SHAPES = [(0,), (4, 0, 3), (37,), (4, 6, 7)]


def _counts(shape, seed=0):
    """Non-negative integer counts as float64, up to 2**20."""
    return np.random.default_rng(seed).integers(
        0, 1 << 20, size=shape).astype(np.float64)


class TestSconnaErrorModel:
    def test_ideal_model_is_identity(self):
        m = SconnaErrorModel(adc_mape=0.0)
        counts = np.array([100, 2000, 45056])
        assert np.array_equal(m.apply_to_counts(counts), counts)
        assert m.ideal()

    def test_default_paper_configuration(self):
        m = SconnaErrorModel()
        assert m.adc_mape == pytest.approx(0.013)
        assert not m.ideal()

    def test_noise_is_relative(self):
        m = SconnaErrorModel(seed=0)
        big = m.apply_to_counts(np.full(20_000, 10_000.0))
        err = np.abs(big - 10_000) / 10_000
        assert err.mean() == pytest.approx(0.013, rel=0.1)

    def test_skirt_leakage_requires_slots(self):
        m = SconnaErrorModel(skirt_leakage=0.02, adc_mape=0.0)
        with pytest.raises(ValueError):
            m.apply_to_counts(np.array([100.0]))

    def test_skirt_leakage_adds_expected_offset(self):
        m = SconnaErrorModel(skirt_leakage=0.05, adc_mape=0.0)
        out = m.apply_to_counts(np.array([100.0]), skirt_slots=np.array([200.0]))
        assert out[0] == 110  # 100 + 0.05*200

    def test_invalid_leakage_rejected(self):
        with pytest.raises(ValueError):
            SconnaErrorModel(skirt_leakage=1.0)

    def test_seeded_reproducibility(self):
        a = SconnaErrorModel(seed=5).apply_to_counts(np.arange(100.0, 200.0))
        b = SconnaErrorModel(seed=5).apply_to_counts(np.arange(100.0, 200.0))
        assert np.array_equal(a, b)


class TestMeasuredVdpError:
    def test_ideal_pipeline_error_is_floor_only(self):
        stats = measure_vdp_error(
            vdpe_size=176,
            precision_bits=8,
            model=SconnaErrorModel(adc_mape=0.0),
            n_trials=50,
        )
        # floor rounding alone stays well below 2 % relative on average
        assert stats.mean_relative_error < 0.02

    def test_adc_noise_raises_error(self):
        ideal = measure_vdp_error(
            176, 8, SconnaErrorModel(adc_mape=0.0), n_trials=50, seed=3
        )
        noisy = measure_vdp_error(
            176, 8, SconnaErrorModel(adc_mape=0.013, seed=1), n_trials=50, seed=3
        )
        assert noisy.mean_relative_error > ideal.mean_relative_error

    def test_stats_fields_consistent(self):
        stats = measure_vdp_error(64, 8, SconnaErrorModel(seed=2), n_trials=30)
        assert stats.max_relative_error >= stats.mean_relative_error
        assert stats.mape_percent == pytest.approx(
            stats.mean_relative_error * 100.0
        )


class TestInPlaceApply:
    """``out=`` writes the same bits as the int64 path and leaves every
    generator where the int64 path leaves it, so the next layer's draws
    continue the same stream."""

    @staticmethod
    def _state(model):
        adc = model if isinstance(model, AdcErrorModel) else model._adc
        return adc._rng.bit_generator.state

    @staticmethod
    def _same_bits(got, want):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.astype(np.float64).tobytes()

    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("mape", [0.013, 0.0])
    def test_adc_error_model(self, shape, mape):
        v = _counts(shape)
        old, new = AdcErrorModel(mape, seed=3), AdcErrorModel(mape, seed=3)
        want = old.apply(v)
        assert want.dtype == np.int64
        buf = np.full(shape, np.nan)
        assert new.apply(v, out=buf) is buf
        self._same_bits(buf, want)
        assert self._state(new) == self._state(old)
        # aliased: the counts are overwritten by their own perturbation
        alias = v.copy()
        assert AdcErrorModel(mape, seed=3).apply(alias, out=alias) is alias
        self._same_bits(alias, want)

    def test_adc_rejects_wrong_out(self):
        with pytest.raises(ValueError):
            AdcErrorModel(seed=0).apply(np.ones(4), out=np.empty(4, np.float32))
        with pytest.raises(ValueError):
            AdcErrorModel(seed=0).apply(np.ones(4), out=np.empty(5))

    def test_non_contiguous_out(self):
        v = _counts((6, 8))
        want = AdcErrorModel(seed=6).apply(v[:, ::2])
        buf = np.empty((6, 8))
        new = AdcErrorModel(seed=6)
        new.apply(v[:, ::2], out=buf[:, ::2])
        self._same_bits(buf[:, ::2], want)

    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("kwargs", [
        {"seed": 5},
        {"seed": 5, "adc_mape": 0.0},
        {"seed": 5, "skirt_leakage": 0.03},
    ])
    def test_sconna_error_model(self, shape, kwargs):
        v = _counts(shape, seed=1)
        slots = (_counts(shape, seed=2) if kwargs.get("skirt_leakage")
                 else None)
        old, new = SconnaErrorModel(**kwargs), SconnaErrorModel(**kwargs)
        want = old.apply_to_counts(v, slots)
        buf = np.empty(shape)
        assert new.apply_to_counts(v, slots, out=buf) is buf
        self._same_bits(buf, want)
        assert self._state(new) == self._state(old)
        alias = v.copy()
        SconnaErrorModel(**kwargs).apply_to_counts(alias, slots, out=alias)
        self._same_bits(alias, want)

    @staticmethod
    def _mix():
        """Seeded, ``None``, ideal, leaky and multi-image requests."""
        return (
            [SconnaErrorModel(seed=7), None, SconnaErrorModel(adc_mape=0.0),
             SconnaErrorModel(seed=8, skirt_leakage=0.02),
             SconnaErrorModel(seed=9)],
            [1, 2, 1, 1, 3],
        )

    @pytest.mark.parametrize("tail", [(), (0, 3), (6, 7)])
    def test_per_request_composite(self, tail):
        models, sizes = self._mix()
        shape = (sum(sizes), *tail)
        v, slots = _counts(shape, seed=3), _counts(shape, seed=4)
        # oracle: each request's own int64 path on its own slice
        ref_models, _ = self._mix()
        want = np.empty(shape)
        start = 0
        for model, size in zip(ref_models, sizes):
            sl = slice(start, start + size)
            want[sl] = (np.rint(v[sl]) if model is None else
                        model.apply_to_counts(v[sl], slots[sl]))
            start += size
        composite = PerRequestErrorModels(models, sizes)
        buf = np.empty(shape)
        assert composite.apply_to_counts(v, slots, out=buf) is buf
        self._same_bits(buf, want)
        self._same_bits(
            PerRequestErrorModels(self._mix()[0], sizes)
            .apply_to_counts(v, slots), want)
        for got, ref in zip(models, ref_models):
            if got is not None and got.seed is not None:
                assert self._state(got) == self._state(ref)
        alias = v.copy()
        PerRequestErrorModels(self._mix()[0], sizes).apply_to_counts(
            alias, slots, out=alias)
        self._same_bits(alias, want)
