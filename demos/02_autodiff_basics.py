"""Tour of the tape-based reverse-mode differentiation engine.

Every operation appends a node to a tape; walking the tape backwards
accumulates exact gradients into the leaves.  A central finite-difference
checker verifies any composite program end to end.
"""

import numpy as np

from wavestack import Tape, autodiff as ad

# A small program: y = relu(W x + b), loss = mean((y - target)^2)
rng = np.random.default_rng(0)
tape = Tape()
x = tape.tensor(rng.normal(size=4))
W = tape.tensor(rng.normal(size=(3, 4)))
b = tape.tensor(np.zeros(3))

y = ad.relu(ad.affine(x, W, b, tape), tape)
loss = ad.mse_loss(y, np.array([1.0, 0.0, -1.0]), tape)
print(f"loss: {loss.value:.4f}")

tape.backward(loss)
print("dL/db:", np.round(b.grad, 4))
print("dL/dW row norms:", np.round(np.linalg.norm(W.grad, axis=1), 4))

# The same leaves can drive a dilated convolution chain.
tape = Tape()
signal = tape.tensor(np.sin(np.linspace(0, 4 * np.pi, 32)))
kernel = tape.tensor(np.array([0.25, 0.5, 0.25]))
out = ad.dilated_conv1d(signal, kernel, dilation=2, tape=tape)
print("conv output length:", len(out.value), "(valid, no padding)")

# Verify an arbitrary program against central finite differences.
params = {"W": rng.normal(size=(3, 4)), "b": rng.normal(size=3)}
target = rng.normal(size=3)
x_fixed = rng.normal(size=4)


def build(tape, leaves):
    h = ad.affine(tape.tensor(x_fixed), leaves["W"], leaves["b"], tape)
    return ad.mse_loss(ad.relu(h, tape), target, tape)


err = ad.grad_check(build, params)
print(f"max relative gradient error vs finite differences: {err:.2e}")
