"""Minimal dense-tensor numerics with reverse-mode differentiation.

Values are double-precision numpy arrays: a Tensor keeps a native
float64 ndarray as given and converts anything else with np.asarray,
which would return that same array.  Every operation works on the
last axis, so one window [T] and a batch of windows [B, T] take the same
path.  On a recording Tape every operation appends a node, with its
parents and their VJP closures; Tape.backward walks the nodes in reverse
append order exactly once, accumulating (never overwriting) gradients
into fan-out tensors; only leaves keep a gradient, as each interior
node drops its own once its VJPs have read it.  A VJP whose second
parameter is `out` can write its result into a buffer the caller of
backward gives.  On an InferenceTape, for forward passes that
need no gradient, every operation computes the same value bits and
returns it as a bare Tensor before it builds any VJP closure or parents
tuple.
"""

from __future__ import annotations

import numpy as np

from .errors import InputTooShort, NonFiniteLoss, ShapeMismatch


_FLOAT64 = np.dtype(np.float64)


class Tensor:
    """A node in the computation graph.

    `value` is `np.asarray(value, dtype=np.float64)`: a plain ndarray of
    the native float64 dtype is kept as given, without the call, since
    that call would return the same object; anything else is converted.
    `parents` is a tuple of (parent, vjp) pairs where vjp maps this
    node's output gradient to the parent's gradient contribution.
    """

    __slots__ = ("value", "grad", "parents")

    def __init__(self, value, parents=()):
        if value.__class__ is not np.ndarray or value.dtype is not _FLOAT64:
            value = np.asarray(value, dtype=np.float64)
        self.value = value
        self.grad = None
        self.parents = parents


class Tape:
    """Append-only operation record; topological order is append order.
    `records` is fixed per tape class: an operation on a tape whose
    `records` is false returns its value before it builds backward
    state."""

    records = True

    def __init__(self):
        self.nodes = []

    def tensor(self, value, parents=()):
        node = Tensor(value, parents)
        self.nodes.append(node)
        return node

    def backward(self, loss: Tensor, into=None):
        """Give every leaf on the tape its gradient of `loss` as .grad; a
        leaf never reached gets zeros.  Only leaves keep a .grad: a node
        with parents hands its gradient to its VJPs and sets its .grad
        to None first, so each interior gradient is freed once backward
        has passed it.  A gradient is allocated when a node is first
        reached and never updated in place, because the identity VJPs
        hand one array to several nodes.

        `into` maps leaf tensors to buffers of their shape, which become
        their .grad: a VJP whose second parameter is `out` writes its
        result straight into the buffer, as numpy's `out=` does, any
        other is copied there, a later contribution is added in place,
        and the buffer of a leaf never reached is zero-filled.  The bits
        are those of the allocated gradients."""
        if loss.value.ndim != 0 and loss.value.size != 1:
            raise ShapeMismatch("backward requires a scalar loss")
        into = into or {}
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones_like(loss.value)
        for node in reversed(self.nodes):
            g = node.grad
            if g is None:
                continue
            if node.parents:
                node.grad = None
            for parent, vjp in node.parents:
                buf = into.get(parent)
                if buf is None:
                    contribution = vjp(g)
                    parent.grad = contribution if parent.grad is None \
                        else parent.grad + contribution
                elif parent.grad is not None:
                    buf += vjp(g)
                elif vjp.__code__.co_varnames[1:2] == ("out",):
                    parent.grad = vjp(g, out=buf)
                else:
                    np.copyto(buf, vjp(g))
                    parent.grad = buf
        for node in self.nodes:
            if node.grad is None and not node.parents:
                buf = into.get(node)
                if buf is None:
                    node.grad = np.zeros_like(node.value)
                else:
                    buf.fill(0.0)
                    node.grad = buf


class InferenceTape(Tape):
    """A tape that records nothing: each operation returns its value as a
    Tensor with no parents, and builds no VJP closure, so `nodes` stays
    empty and a forward pass on it holds nothing alive but the values
    the caller keeps."""

    records = False

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
    if not tape.records:
        return Tensor(y)
    # one vector is a batch of one: g [m] and x [n] as rows [1, m], [1, n]
    return tape.tensor(y, (
        (w, lambda g, out=None, xv=x.value:
            np.matmul(g.reshape(-1, m).T, xv.reshape(-1, n), out=out)),
        (x, lambda g, wv=w.value: g @ wv),
        (b, lambda g, out=None:
            np.add.reduce(g.reshape(-1, m), axis=0, out=out)),
    ))


def relu(x: Tensor, tape: Tape) -> Tensor:
    mask = x.value > 0.0  # subgradient 0 at 0
    y = np.where(mask, x.value, 0.0)
    if not tape.records:
        return Tensor(y)
    return tape.tensor(y, ((x, lambda g, m=mask: g * m),))


def dropout(x: Tensor, rate: float, draws: np.ndarray, tape: Tape) -> Tensor:
    """Inverted dropout with `draws`, uniform on [0, 1) in x's shape: an
    element survives where its draw is at least `rate` and is scaled by
    1/(1-rate).  Identity at rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0.0:
        return x
    scale_arr = (draws >= rate) / (1.0 - rate)
    y = x.value * scale_arr
    if not tape.records:
        return Tensor(y)
    return tape.tensor(y, ((x, lambda g, s=scale_arr: g * s),))


def _taps(xv: np.ndarray, k: int, dilation: int, t_out: int) -> np.ndarray:
    """The k shifted copies of xv's last axis that a dilated convolution
    weights, [k, ...batch, t_out] flattened to [k, batch * t_out]: row j
    is xv[..., span - j*dilation:][..., :t_out], span = (k-1)*dilation."""
    span = (k - 1) * dilation
    return np.concatenate([xv[..., span - j * dilation:
                              span - j * dilation + t_out]
                           for j in range(k)]).reshape(k, -1)


def dilated_conv1d(x: Tensor, kernel: Tensor, dilation: int,
                   tape: Tape) -> Tensor:
    """Causal valid convolution over the last axis:
    y_t = sum_j kernel_j * x_{t - j*dilation}.  The output is one product
    of the kernel with the taps; on a recording tape the kernel gradient
    keeps x's value, not the taps, and rebuilds them when called."""
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
    y = (kernel.value @ _taps(x.value, k, dilation, t_out)).reshape(
        shape[:-1] + (t_out,))
    if not tape.records:
        return Tensor(y)

    def vjp_x(g, k=k, t=t, span=span, t_out=t_out, dilation=dilation,
              kv=kernel.value):
        # g's rows padded with zeros to length t and laid end to end: tap
        # j adds the flat run g_flat[:n] at offset span - j*dilation, one
        # contiguous add.  Where the run crosses a row end it adds
        # kv[j] * 0.0, and a sum that starts at +0.0 is unchanged by +-0.0
        # (a non-finite kv[j] puts NaN there instead).
        rows = np.zeros((g.size // t_out, t))
        rows[:, :t_out] = g.reshape(-1, t_out)
        g_flat = rows.reshape(-1)
        n = g_flat.size - span
        gx = np.zeros(g_flat.size)
        for j in range(k):
            start = span - j * dilation
            gx[start:start + n] += kv[j] * g_flat[:n]
        return gx.reshape(shape)

    return tape.tensor(y, (
        (kernel, lambda g, out=None, xv=x.value:
            np.matmul(_taps(xv, k, dilation, t_out), g.reshape(-1),
                      out=out)),
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
    if not tape.records:
        return Tensor(y)

    def vjp(g, arg=arg, shape=x.value.shape, blocks_shape=blocks.shape):
        gb = np.zeros(blocks_shape)
        np.put_along_axis(gb, arg, g[..., None], axis=-1)
        return _unpool(gb, shape)

    return tape.tensor(y, ((x, vjp),))


def avgpool1d(x: Tensor, window: int, tape: Tape) -> Tensor:
    """Non-overlapping mean pooling over the last axis, stride = window."""
    blocks = _pool_blocks(x, window)
    y = blocks.mean(axis=-1)
    if not tape.records:
        return Tensor(y)

    def vjp(g, shape=x.value.shape, blocks_shape=blocks.shape):
        return _unpool(np.broadcast_to((g / window)[..., None],
                                       blocks_shape), shape)

    return tape.tensor(y, ((x, vjp),))


def add(x: Tensor, y: Tensor, tape: Tape) -> Tensor:
    if x.value.shape != y.value.shape:
        raise ShapeMismatch(f"add: {x.value.shape} vs {y.value.shape}")
    total = x.value + y.value
    if not tape.records:
        return Tensor(total)
    return tape.tensor(total, ((x, lambda g: g), (y, lambda g: g)))


def sub(x: Tensor, y: Tensor, tape: Tape) -> Tensor:
    if x.value.shape != y.value.shape:
        raise ShapeMismatch(f"sub: {x.value.shape} vs {y.value.shape}")
    difference = x.value - y.value
    if not tape.records:
        return Tensor(difference)
    return tape.tensor(difference, ((x, lambda g: g), (y, lambda g: -g)))


def blend(const_branch: np.ndarray, x: Tensor, alpha: float,
          tape: Tape) -> Tensor:
    """Convex combination alpha*const + (1-alpha)*x, with the constant
    branch outside the gradient path.  The endpoints are exact."""
    if alpha == 0.0:
        return x
    if alpha == 1.0:
        return tape.tensor(np.array(const_branch, dtype=np.float64))
    y = alpha * np.asarray(const_branch) + (1.0 - alpha) * x.value
    if not tape.records:
        return Tensor(y)
    return tape.tensor(y, ((x, lambda g: (1.0 - alpha) * g),))


def pad_left(x: Tensor, n: int, tape: Tape) -> Tensor:
    """Prepend n zeros to the last axis; gradient is the matching slice."""
    if n == 0:
        return x
    y = np.concatenate([np.zeros(x.value.shape[:-1] + (n,)), x.value],
                       axis=-1)
    if not tape.records:
        return Tensor(y)
    return tape.tensor(y, ((x, lambda g: g[..., n:]),))


def mse_loss(pred: Tensor, target: np.ndarray, tape: Tape) -> Tensor:
    """Mean squared error over every element: for a [B, H] batch, the mean
    of the per-window losses."""
    target = np.asarray(target, dtype=np.float64)
    if pred.value.shape != target.shape:
        raise ShapeMismatch(f"mse: {pred.value.shape} vs {target.shape}")
    diff = pred.value - target
    loss = np.mean(diff ** 2)
    if not tape.records:
        return Tensor(loss)
    n = diff.size
    return tape.tensor(loss, ((pred, lambda g, d=diff, n=n: g * 2.0 * d / n),))


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
