"""Tests for the SC-aware training extension."""

import numpy as np
import pytest

from repro.cnn.datasets import generate_dataset
from repro.cnn.micro import Conv2d, Flatten, Linear, MaxPool2d, ReLU, Sequential
from repro.cnn.engine import SconnaEngine, compile_layer_plan
from repro.cnn.sc_aware import ScAwareConv2d, make_sc_aware, sc_aware_finetune
from repro.cnn.train import train
from repro.utils.rng import make_rng


def tiny_model(seed=0):
    rng = make_rng(seed)
    return Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng), ReLU(), MaxPool2d(4),
        Flatten(), Linear(4 * 6 * 6, 10, rng=rng),
    )


def _sc_counts(cols, w, precision_bits):
    """The count-domain product sums ``ScAwareConv2d.forward`` runs: the
    engine's ideal datapath, one psum group over the whole contraction."""
    plan = compile_layer_plan(w, precision_bits, w.shape[1])
    return SconnaEngine().matmul_ideal(plan, cols)


class TestScMatmul:
    def test_matches_reference(self):
        rng = make_rng(0)
        cols = rng.integers(0, 257, size=(2, 16, 5))
        w = rng.integers(-256, 257, size=(3, 16))
        out = _sc_counts(cols, w, 8)
        # reference: per-element floor with sign
        ref = np.zeros((2, 3, 5))
        for b in range(2):
            for l in range(3):
                for p in range(5):
                    for q in range(16):
                        prod = (cols[b, q, p] * abs(w[l, q])) >> 8
                        ref[b, l, p] += prod * np.sign(w[l, q])
        assert np.array_equal(out, ref)

    def test_floor_never_exceeds_exact(self):
        rng = make_rng(1)
        cols = rng.integers(0, 257, size=(1, 32, 4))
        w = rng.integers(1, 257, size=(2, 32))  # positive weights
        out = _sc_counts(cols, w, 8)
        exact = np.einsum("bqp,lq->blp", cols, w) / 256
        assert (out <= exact + 1e-9).all()
        assert (out >= exact - 32).all()  # at most 1 count lost per term


class TestScAwareConv:
    def test_shares_weights_with_original(self):
        model = tiny_model()
        sc = make_sc_aware(model)
        conv = model.layers[0]
        sc_conv = sc.layers[0]
        assert isinstance(sc_conv, ScAwareConv2d)
        assert sc_conv.weight is conv.weight

    def test_forward_close_to_float(self):
        model = tiny_model()
        sc = make_sc_aware(model, precision_bits=8)
        x = generate_dataset(2, seed=0).images[:4].astype(np.float64)
        f = model.layers[0].forward(x)
        q = sc.layers[0].forward(x)
        # quantization + floor keeps outputs in the same ballpark
        assert np.abs(f - q).mean() < 0.3 * np.abs(f).mean() + 0.05

    def test_backward_works_after_sc_forward(self):
        sc = make_sc_aware(tiny_model())
        x = generate_dataset(1, seed=1).images[:2].astype(np.float64)
        out = sc.forward(x)
        grad = sc.backward(np.ones_like(out))
        assert grad.shape == x.shape

    def test_linear_layers_untouched(self):
        model = tiny_model()
        sc = make_sc_aware(model)
        assert sc.layers[-1] is model.layers[-1]


class TestFinetune:
    def test_finetune_runs_and_updates_weights(self):
        ds = generate_dataset(6, seed=0)
        model = tiny_model()
        train(model, ds, epochs=1, seed=0)
        before = model.layers[0].weight.copy()
        losses = sc_aware_finetune(model, ds, epochs=1, batch_size=16, seed=0)
        assert len(losses) == 1
        assert not np.array_equal(before, model.layers[0].weight)

    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            sc_aware_finetune(tiny_model(), generate_dataset(2), epochs=0)
