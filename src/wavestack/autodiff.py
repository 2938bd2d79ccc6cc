"""Minimal dense-tensor numerics with reverse-mode differentiation.

Values are double-precision numpy arrays.  Every operation works on the
last axis, so one window [T] and a batch of windows [B, T] take the same
path.  Every operation appends a node to a Tape; Tape.backward walks the
nodes in reverse append order exactly once, accumulating (never
overwriting) gradients into fan-out tensors.  An InferenceTape keeps the
values and records nothing, for forward passes that need no gradient.
"""

from __future__ import annotations

import numpy as np

from .errors import InputTooShort, NonFiniteLoss, ShapeMismatch


class Tensor:
    """A node in the computation graph.

    `parents` is a tuple of (parent, vjp) pairs where vjp maps this
    node's output gradient to the parent's gradient contribution.
    """

    __slots__ = ("value", "grad", "parents")

    def __init__(self, value, parents=()):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.parents = parents


class Tape:
    """Append-only operation record; topological order is append order."""

    def __init__(self):
        self.nodes = []

    def tensor(self, value, parents=()):
        node = Tensor(value, parents)
        self.nodes.append(node)
        return node

    def backward(self, loss: Tensor):
        """Populate .grad on every node reachable from `loss`.  A gradient
        is allocated when a node is first reached; a leaf never reached
        gets zeros.  Gradients are never updated in place, because the
        identity VJPs hand one array to several nodes."""
        if loss.value.ndim != 0 and loss.value.size != 1:
            raise ShapeMismatch("backward requires a scalar loss")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes):
            if node.grad is None:
                continue
            for parent, vjp in node.parents:
                contribution = vjp(node.grad)
                parent.grad = contribution if parent.grad is None \
                    else parent.grad + contribution
        for node in self.nodes:
            if node.grad is None and not node.parents:
                node.grad = np.zeros_like(node.value)


class InferenceTape(Tape):
    """A tape that keeps each operation's value and records no node and no
    parent: a forward pass on it holds nothing alive but the values the
    caller keeps."""

    def tensor(self, value, parents=()):
        return Tensor(value)


def affine(x: Tensor, w: Tensor, b: Tensor, tape: Tape) -> Tensor:
    """y = x W^T + b over the last axis of x: one vector [n] or a batch
    [B, n]."""
    if w.value.ndim != 2 or x.value.ndim not in (1, 2) or b.value.ndim != 1:
        raise ShapeMismatch("affine expects W[m,n], x[n] or x[B,n], b[m]")
    m, n = w.value.shape
    if x.value.shape[-1] != n or b.value.shape[0] != m:
        raise ShapeMismatch(
            f"affine shapes do not conform: W{w.value.shape} x{x.value.shape} "
            f"b{b.value.shape}")
    y = x.value @ w.value.T + b.value
    batched = x.value.ndim == 2
    return tape.tensor(y, (
        (w, lambda g, xv=x.value: g.T @ xv if batched else np.outer(g, xv)),
        (x, lambda g, wv=w.value: g @ wv),
        (b, lambda g: g.sum(axis=0) if batched else g),
    ))


def relu(x: Tensor, tape: Tape) -> Tensor:
    mask = x.value > 0.0  # subgradient 0 at 0
    return tape.tensor(np.where(mask, x.value, 0.0),
                       ((x, lambda g, m=mask: g * m),))


def dropout(x: Tensor, rate: float, draws: np.ndarray, tape: Tape) -> Tensor:
    """Inverted dropout with `draws`, uniform on [0, 1) in x's shape: an
    element survives where its draw is at least `rate` and is scaled by
    1/(1-rate).  Identity at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return x
    scale_arr = (draws >= rate) / (1.0 - rate)
    return tape.tensor(x.value * scale_arr,
                       ((x, lambda g, s=scale_arr: g * s),))


def dilated_conv1d(x: Tensor, kernel: Tensor, dilation: int,
                   tape: Tape) -> Tensor:
    """Causal valid convolution over the last axis:
    y_t = sum_j kernel_j * x_{t - j*dilation}."""
    shape = x.value.shape
    t = shape[-1]
    k = kernel.value.shape[0]
    if dilation < 1 or k < 1:
        raise ValueError("kernel size and dilation must be >= 1")
    span = (k - 1) * dilation
    if t < span + 1:
        raise InputTooShort(
            f"input length {t} < receptive field {span + 1}")
    t_out = t - span
    # [k, ...batch, t_out] flattened to [k, batch * t_out]: one product
    taps = np.concatenate([x.value[..., span - j * dilation:
                                   span - j * dilation + t_out]
                           for j in range(k)]).reshape(k, -1)
    y = (kernel.value @ taps).reshape(shape[:-1] + (t_out,))

    def vjp_x(g, k=k, span=span, t_out=t_out, dilation=dilation,
              kv=kernel.value):
        gx = np.zeros(shape)
        for j in range(k):
            start = span - j * dilation
            gx[..., start:start + t_out] += kv[j] * g
        return gx

    return tape.tensor(y, (
        (kernel, lambda g, tp=taps: tp @ g.reshape(-1)),
        (x, vjp_x),
    ))


def _pool_blocks(x: Tensor, window: int):
    """x's last axis cut into [..., t_out, window] blocks, the tail that
    fills no block dropped."""
    if window < 1:
        raise ValueError("window must be >= 1")
    t = x.value.shape[-1]
    if t < window:
        raise InputTooShort(f"input length {t} < window {window}")
    t_out = t // window
    lead = x.value.shape[:-1]
    return x.value[..., : t_out * window].reshape(lead + (t_out, window))


def _unpool(blocks_grad: np.ndarray, shape) -> np.ndarray:
    """Gradient of blocks back on the input shape; the tail gets zero."""
    gx = np.zeros(shape)
    gx[..., : blocks_grad.shape[-2] * blocks_grad.shape[-1]] = \
        blocks_grad.reshape(shape[:-1] + (-1,))
    return gx


def maxpool1d(x: Tensor, window: int, tape: Tape) -> Tensor:
    """Non-overlapping max pooling over the last axis, stride = window;
    gradient routes to the first argmax in each window."""
    blocks = _pool_blocks(x, window)
    arg = blocks.argmax(axis=-1)[..., None]  # first index on ties
    y = np.take_along_axis(blocks, arg, axis=-1)[..., 0]

    def vjp(g, arg=arg, shape=x.value.shape, blocks_shape=blocks.shape):
        gb = np.zeros(blocks_shape)
        np.put_along_axis(gb, arg, g[..., None], axis=-1)
        return _unpool(gb, shape)

    return tape.tensor(y, ((x, vjp),))


def avgpool1d(x: Tensor, window: int, tape: Tape) -> Tensor:
    """Non-overlapping mean pooling over the last axis, stride = window."""
    blocks = _pool_blocks(x, window)
    y = blocks.mean(axis=-1)

    def vjp(g, shape=x.value.shape, blocks_shape=blocks.shape):
        return _unpool(np.broadcast_to((g / window)[..., None],
                                       blocks_shape), shape)

    return tape.tensor(y, ((x, vjp),))


def add(x: Tensor, y: Tensor, tape: Tape) -> Tensor:
    if x.value.shape != y.value.shape:
        raise ShapeMismatch(f"add: {x.value.shape} vs {y.value.shape}")
    return tape.tensor(x.value + y.value,
                       ((x, lambda g: g), (y, lambda g: g)))


def sub(x: Tensor, y: Tensor, tape: Tape) -> Tensor:
    if x.value.shape != y.value.shape:
        raise ShapeMismatch(f"sub: {x.value.shape} vs {y.value.shape}")
    return tape.tensor(x.value - y.value,
                       ((x, lambda g: g), (y, lambda g: -g)))


def blend(const_branch: np.ndarray, x: Tensor, alpha: float,
          tape: Tape) -> Tensor:
    """Convex combination alpha*const + (1-alpha)*x, with the constant
    branch outside the gradient path.  The endpoints are exact."""
    if alpha == 0.0:
        return x
    if alpha == 1.0:
        return tape.tensor(np.array(const_branch, dtype=np.float64))
    y = alpha * np.asarray(const_branch) + (1.0 - alpha) * x.value
    return tape.tensor(y, ((x, lambda g: (1.0 - alpha) * g),))


def pad_left(x: Tensor, n: int, tape: Tape) -> Tensor:
    """Prepend n zeros to the last axis; gradient is the matching slice."""
    if n == 0:
        return x
    y = np.concatenate([np.zeros(x.value.shape[:-1] + (n,)), x.value],
                       axis=-1)
    return tape.tensor(y, ((x, lambda g: g[..., n:]),))


def mse_loss(pred: Tensor, target: np.ndarray, tape: Tape) -> Tensor:
    """Mean squared error over every element: for a [B, H] batch, the mean
    of the per-window losses."""
    target = np.asarray(target, dtype=np.float64)
    if pred.value.shape != target.shape:
        raise ShapeMismatch(f"mse: {pred.value.shape} vs {target.shape}")
    diff = pred.value - target
    n = diff.size
    return tape.tensor(np.mean(diff ** 2),
                       ((pred, lambda g, d=diff, n=n: g * 2.0 * d / n),))


def xavier_init(shape, rng: np.random.Generator) -> np.ndarray:
    """Uniform Glorot init of a [fan_out, fan_in] matrix in +-sqrt(6/sum)."""
    bound = np.sqrt(6.0 / sum(shape))
    return rng.uniform(-bound, bound, size=shape)


def grad_check(build, params: dict, eps: float = 1e-5) -> float:
    """Compare tape gradients of a scalar function against central
    differences; returns the max relative error over all coordinates.

    `build(tape, leaves)` must construct the loss from a dict of leaf
    tensors mirroring `params`.  The leaves are built once: each wraps its
    parameter's array without a copy, so the finite-difference runs see
    every in-place perturbation of it.
    """
    tape = Tape()
    leaves = {k: tape.tensor(v) for k, v in params.items()}
    loss = build(tape, leaves)
    if not np.isfinite(loss.value):
        raise NonFiniteLoss("loss is not finite at the check point")
    tape.backward(loss)

    max_err = 0.0
    for leaf in leaves.values():
        flat = leaf.value.reshape(-1)
        analytic = leaf.grad.reshape(-1).copy()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = build(InferenceTape(), leaves).value
            flat[i] = orig - eps
            f_minus = build(InferenceTape(), leaves).value
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            ad = analytic[i]
            denom = max(abs(fd), abs(ad), 1.0)
            max_err = max(max_err, abs(fd - ad) / denom)
    return max_err
