"""Stochastic-computing-aware fine-tuning (paper Section VI-D future work).

The paper notes that "SCONNA's accuracy drop can be improved by
performing stochastic computing aware training of the CNN models on
SCONNA".  This module implements that extension: quantization-aware
fine-tuning whose *forward* pass runs the exact count-domain SC datapath
(per-product floor, sign-split accumulation) while the *backward* pass
uses the straight-through estimator (gradients flow as if the layer were
the plain float convolution evaluated at the SC activations) - the
standard QAT recipe extended with SCONNA's floor semantics.

ADC noise is zero-mean, so it is not simulated during fine-tuning; the
systematic error the network learns to absorb is the floor bias
(~ -Q/2 counts per output), which is exactly the component a network
*can* compensate.
"""

from __future__ import annotations

import numpy as np

from repro.cnn.datasets import Dataset
from repro.cnn.engine import SconnaEngine, compile_layer_plan
from repro.cnn.micro import Conv2d, Linear, Sequential, softmax_cross_entropy
from repro.cnn.quantize import calibrate_activation, calibrate_weight, quantize
from repro.utils.rng import make_rng


class ScAwareConv2d(Conv2d):
    """Conv2d whose forward runs the SCONNA count-domain datapath.

    Each forward quantizes the (RELU-clipped) input and the current
    weights at ``precision_bits``, computes the floor-product VDP counts
    and dequantises them.  The im2col cache holds the *actual* (SC)
    inputs, so the inherited backward implements the straight-through
    estimator.
    """

    precision_bits: int = 8

    @classmethod
    def from_conv(cls, conv: Conv2d, precision_bits: int = 8) -> "ScAwareConv2d":
        obj = cls.__new__(cls)
        obj.weight = conv.weight  # shared: fine-tuning updates the original
        obj.grad_weight = conv.grad_weight
        obj.bias = conv.bias
        obj.grad_bias = conv.grad_bias
        obj.stride = conv.stride
        obj.padding = conv.padding
        obj._cache = None
        obj.precision_bits = precision_bits
        obj._engine = SconnaEngine()
        return obj

    def forward(self, x: np.ndarray) -> np.ndarray:
        from repro.cnn.functional import conv_output_hw, im2col

        l, c, k, _ = self.weight.shape
        act = calibrate_activation(x, self.precision_bits)
        wqp = calibrate_weight(self.weight, self.precision_bits)
        x_q = quantize(np.maximum(x, 0.0), act)
        w_q = quantize(self.weight, wqp).reshape(l, -1)

        cols_q = im2col(x_q, k, self.stride, self.padding)
        # ideal datapath, one psum group over the whole contraction
        plan = compile_layer_plan(w_q, self.precision_bits, w_q.shape[1])
        counts = self._engine.matmul_ideal(plan, cols_q)
        scale = act.scale * wqp.scale * (1 << self.precision_bits)

        # STE cache: float im2col of the real input for the backward pass
        cols = im2col(x, k, self.stride, self.padding)
        self._cache = (x.shape, cols)

        b = x.shape[0]
        out_h, out_w = conv_output_hw(
            x.shape[2], x.shape[3], k, self.stride, self.padding
        )
        out = (counts * scale).reshape(b, l, out_h, out_w)
        if self.bias is not None:
            out = out + self.bias.reshape(1, l, 1, 1)
        return out


def make_sc_aware(model: Sequential, precision_bits: int = 8) -> Sequential:
    """Clone a trained network with SC-aware convolutions.

    Weights are *shared* with the original model, so fine-tuning the
    returned network updates the original's parameters in place (the
    usual QAT deployment flow: fine-tune, then re-quantize).  Linear
    layers are left float - the classifier's contribution to SC error is
    covered by its own quantization during deployment.
    """
    layers = []
    for layer in model.layers:
        if isinstance(layer, Conv2d) and not isinstance(layer, Linear):
            layers.append(ScAwareConv2d.from_conv(layer, precision_bits))
        else:
            layers.append(layer)
    return Sequential(*layers)


def sc_aware_finetune(
    model: Sequential,
    dataset: Dataset,
    epochs: int = 2,
    batch_size: int = 32,
    lr: float = 0.005,
    momentum: float = 0.9,
    precision_bits: int = 8,
    seed: int = 0,
) -> "list[float]":
    """Fine-tune ``model`` (in place) through the SC forward path.

    Returns the per-epoch mean losses.  A small learning rate is
    essential: the network only needs to nudge its weights to absorb the
    floor bias, not re-learn the task.
    """
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    sc_model = make_sc_aware(model, precision_bits)
    rng = make_rng(seed)
    velocity = [np.zeros_like(p) for p, _ in sc_model.parameters()]
    losses = []
    for _ in range(epochs):
        total, batches = 0.0, 0
        for images, labels in dataset.batches(batch_size, rng=rng):
            sc_model.zero_grad()
            logits = sc_model.forward(images.astype(np.float64))
            loss, grad = softmax_cross_entropy(logits, labels)
            sc_model.backward(grad)
            for v, (p, g) in zip(velocity, sc_model.parameters()):
                v *= momentum
                v -= lr * g
                p += v
            total += loss
            batches += 1
        losses.append(total / max(batches, 1))
    return losses
