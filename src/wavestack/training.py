"""Windowing, losses, Adam with warmup + linear decay, early stopping and
checkpointing."""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from . import model as md
from .autodiff import InferenceTape, Tape
from .errors import (
    ConfigMismatch,
    CorruptCheckpoint,
    NonFiniteGradient,
    NonFiniteLoss,
    SeriesTooShort,
    ShapeMismatch,
)

CHECKPOINT_FORMAT_VERSION = 1

# Windows per forward pass in `forecast`.  A pass holds a few arrays of
# [chunk, lookback] per block, so the chunk bounds inference memory
# however many windows a set has.
FORECAST_CHUNK = 256


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 100
    warmup_fraction: float = 0.10
    decay_slope: float = 1e-3  # multiplicative decay per post-warmup epoch
    patience: int = 50  # validation checks without improvement
    batch_size: int = 128
    loss: str = "mse"
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: Optional[float] = 10.0  # global norm; None disables
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in (0, 1)")
        for name in ("epochs", "batch_size", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.grad_clip is not None and self.grad_clip <= 0.0:
            raise ValueError("grad_clip must be positive or null")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.loss != "mse":
            raise ValueError("only MSE training loss is supported")


# The most elements one parameter bucket holds.  The benchmark model fits
# in one bucket; the paper model's 10.2M parameters take dozens.  One
# buffer per model would be mapped, and page-faulted, afresh on every
# `train` call, where malloc recycles buckets of this size.
BUCKET_ELEMENTS = 1 << 17

# The elements of a bucket that Adam's update takes at a time.  Its 14
# passes then cycle over 6 x 256 KiB of p, g, m, v and scratch, which
# stays in cache, where passes over whole buckets (6 x 1 MiB) miss it.
# Of 2^11 to 2^17, 2^15 was the fastest on the paper model.
ADAM_CHUNK = 1 << 15


class Buckets:
    """A layout of named tensors in contiguous float64 buffers.  Tensors
    keep their dict order; consecutive ones share a bucket of at most
    BUCKET_ELEMENTS elements, and a larger tensor has a bucket of its
    own.  `slots[b]` lists bucket b's (name, slice, shape)."""

    def __init__(self, tensors: dict):
        self.slots, self.sizes = [], []
        for name, value in tensors.items():
            if not self.sizes or \
                    self.sizes[-1] + value.size > BUCKET_ELEMENTS:
                self.slots.append([])
                self.sizes.append(0)
            start = self.sizes[-1]
            self.sizes[-1] += value.size
            self.slots[-1].append(
                (name, slice(start, self.sizes[-1]), value.shape))

    def new(self, fill=np.empty) -> list:
        return [fill(size) for size in self.sizes]

    def views(self, buffers: list) -> dict:
        """Every tensor as a view into `buffers`, in layout order."""
        return {name: buf[where].reshape(shape)
                for buf, slots in zip(buffers, self.slots)
                for name, where, shape in slots}

    def gather(self, tensors: dict, buffers: list) -> None:
        """Copy `tensors` into `buffers`, popping each from the dict as
        its bucket is filled, so that the memory it alone holds is freed
        as the buckets fill."""
        for buf, slots in zip(buffers, self.slots):
            np.concatenate([tensors.pop(name).reshape(-1)
                            for name, _, _ in slots], out=buf)


@dataclass
class TrainState:
    buckets: Buckets
    m: list  # Adam's moments, one buffer per bucket
    v: list
    scratch: tuple  # two buffers of one Adam chunk
    step: int = 0


@dataclass(frozen=True)
class WindowSet:
    inputs: list  # each length T
    targets: list  # each length H
    offsets: list

    def __len__(self):
        return len(self.inputs)


def make_windows(series, lookback: int, horizon: int,
                 stride: int = 1) -> WindowSet:
    """Slide contiguous (input, target) pairs over the series; each input
    ends exactly where its target begins."""
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    if n < lookback + horizon:
        raise SeriesTooShort(
            f"series of length {n} cannot yield a {lookback}+{horizon} window")
    offsets = list(range(0, n - lookback - horizon + 1, stride))
    inputs = [series[o:o + lookback] for o in offsets]
    targets = [series[o + lookback:o + lookback + horizon] for o in offsets]
    return WindowSet(inputs=inputs, targets=targets, offsets=offsets)


def _score(name, pointwise, pred, target) -> float:
    """Mean over the horizon, then over the windows of an [N, H] set: the
    mean of per-window scores, for one window or many."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"{name}: {pred.shape} vs {target.shape}")
    return float(np.mean(np.mean(pointwise(pred - target), axis=-1)))


def mse(pred, target) -> float:
    return _score("mse", np.square, pred, target)


def mae(pred, target) -> float:
    return _score("mae", np.abs, pred, target)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Linear ramp to the base rate over the warmup span, then a linear
    multiplicative decay floored at zero."""
    warmup_epochs = max(1, int(round(cfg.warmup_fraction * cfg.epochs)))
    if epoch < warmup_epochs:
        return cfg.learning_rate * (epoch + 1) / (warmup_epochs + 1)
    since = epoch - warmup_epochs
    return cfg.learning_rate * max(0.0, 1.0 - cfg.decay_slope * since)


def init_train_state(buckets: Buckets) -> TrainState:
    chunk = min(ADAM_CHUNK, max(buckets.sizes))
    return TrainState(buckets=buckets, m=buckets.new(np.zeros),
                      v=buckets.new(np.zeros),
                      scratch=(np.empty(chunk), np.empty(chunk)))


def adam_step(state: TrainState, params: list, grads: list, lr: float,
              cfg: TrainConfig) -> None:
    """In-place bias-corrected Adam update of the parameter buckets.
    Each chunk of ADAM_CHUNK elements of a bucket takes the per-tensor
    expressions `m = b1*m + (1-b1)*g`, `v = b2*v + (1-b2)*g*g` and
    `p -= lr*m_hat / (sqrt(v_hat) + eps)` one operation at a time, in
    their order, so the result is the same bits a per-tensor update
    gives.  Raises NonFiniteGradient, naming the first bad tensor in
    layout order, before it writes anything."""
    with np.errstate(over="ignore"):
        for g, slots in zip(grads, state.buckets.slots):
            # A non-finite element makes the sum of squares non-finite;
            # finite elements whose squares overflow make it inf too.
            if np.isfinite(g @ g):
                continue
            bad = next((name for name, where, _ in slots
                        if not np.isfinite(g[where]).all()), None)
            if bad is not None:
                raise NonFiniteGradient(
                    f"non-finite gradient in parameter {bad!r} at step "
                    f"{state.step}")
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        for lo in range(0, g.size, ADAM_CHUNK):
            hi = lo + ADAM_CHUNK
            p_, g_, m_, v_ = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            s1, s2 = (s[:g_.size] for s in state.scratch)
            m_ *= b1
            m_ += np.multiply(g_, 1.0 - b1, out=s1)
            v_ *= b2
            v_ += np.multiply(np.multiply(g_, 1.0 - b2, out=s1), g_, out=s1)
            np.multiply(np.divide(m_, c1, out=s1), lr, out=s1)  # lr * m_hat
            np.sqrt(np.divide(v_, c2, out=s2), out=s2)  # sqrt(v_hat)
            s2 += cfg.adam_eps
            p_ -= np.divide(s1, s2, out=s1)


def _clip_grads(grads: list, max_norm: float) -> float:
    """Scale the gradient buckets in place to a global norm of at most
    `max_norm`; returns the norm before clipping."""
    with np.errstate(over="ignore"):
        total = np.sqrt(sum(float(g @ g) for g in grads))
    big = 1.0
    if total == np.inf and all(np.isfinite(g).all() for g in grads):
        # finite gradients whose squares overflow: take the norm of
        # g / max|g|, so that the factor is not max_norm / inf = 0
        big = max(float(np.max(np.abs(g), initial=0.0)) for g in grads)
        total = np.sqrt(sum(float((g / big) @ (g / big)) for g in grads))
    if not np.isfinite(total):
        # an inf or NaN element: scaling would turn an inf into NaN and
        # zero the rest, and adam_step raises NonFiniteGradient naming it
        return float(total)
    if total > max_norm / big:
        factor = (max_norm / big) / total
        for g in grads:
            g *= factor
    return big * float(total)


# The buffers of the largest bucket layout trained so far, by bucket sizes:
# {sizes: (weights, grads, TrainState)}.  A `train` call takes them with
# `pop` and puts them back only when it returns, so a call that raises
# leaves none behind, and no two calls share them.  Reused, the paper
# model's 4 x 81 MB stay mapped between calls; freed and allocated anew,
# whether they page-fault again depends on how malloc laid out its heap.
_WORKSPACE: dict = {}
_WORKSPACE_LOCK = threading.Lock()


def _take_workspace(buckets: Buckets):
    """(weights, grads, TrainState) for `buckets`: the held ones when the
    bucket sizes match, with Adam's moments zeroed, else new ones."""
    with _WORKSPACE_LOCK:
        held = _WORKSPACE.pop(tuple(buckets.sizes), None)
    if held is None:
        return buckets.new(), buckets.new(), init_train_state(buckets)
    weights, grads, old = held
    for buf in old.m + old.v:
        buf.fill(0.0)
    return weights, grads, TrainState(buckets, old.m, old.v, old.scratch)


def _keep_workspace(weights: list, grads: list, state: TrainState) -> None:
    """Hold these buffers for the next call, in place of any held ones of
    no larger a layout; the process holds at most one workspace."""
    sizes = tuple(state.buckets.sizes)
    with _WORKSPACE_LOCK:
        if all(sum(held) <= sum(sizes) for held in _WORKSPACE):
            _WORKSPACE.clear()
            _WORKSPACE[sizes] = (weights, grads, state)


def _batch_grads(batch_idx, windows, params, model_cfg, rng):
    """Mean loss and mean gradients over one batch of windows, from one
    forward and one backward pass over the whole batch."""
    inputs = np.stack([windows.inputs[j] for j in batch_idx])
    targets = np.stack([windows.targets[j] for j in batch_idx])
    tape = Tape()
    loss, leaves = md.forward_loss(inputs, targets, params, model_cfg,
                                   tape, rng)
    if not np.isfinite(loss.value):
        (pred, _), = loss.parents  # the loss's one parent: the forecast
        bad = ~np.isfinite(np.mean((pred.value - targets) ** 2, axis=-1))
        raise NonFiniteLoss(f"non-finite loss on window index "
                            f"{batch_idx[int(np.argmax(bad))]}")
    tape.backward(loss)
    return float(loss.value), {name: leaves[name].grad for name in params}


def forecast(inputs, params: dict, model_cfg) -> np.ndarray:
    """Inference-mode global forecasts of a window set [N, T], shape
    [N, H].  The one place that forecasts many windows: one forward pass
    per FORECAST_CHUNK windows, on a tape that records nothing.  It calls
    `md.model_forward` by its module attribute so that wrappers installed
    there see every call."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2:
        raise ShapeMismatch(f"expected a window set [N, T], got "
                            f"{inputs.shape}")
    return np.concatenate([
        md.model_forward(inputs[start:start + FORECAST_CHUNK], params,
                         model_cfg, InferenceTape()).global_forecast
        for start in range(0, len(inputs), FORECAST_CHUNK)])


def evaluate(windows: WindowSet, params: dict, model_cfg) -> dict:
    """Inference-mode MSE and MAE over a window set."""
    pred = forecast(windows.inputs, params, model_cfg)
    return {"mse": mse(pred, windows.targets),
            "mae": mae(pred, windows.targets)}


@dataclass
class TrainResult:
    params: dict
    history: list  # rows of (epoch, lr, train_loss, val_loss)
    best_epoch: int
    best_val: float
    stopped_early: bool


def train(model_cfg: md.ModelConfig, train_windows: WindowSet,
          val_windows: WindowSet, cfg: TrainConfig,
          init: Optional[dict] = None) -> TrainResult:
    """Full training loop; returns the checkpoint with the lowest
    validation loss.  Parameters, gradients and Adam's moments live in
    one `Buckets` layout, and the model reads the parameters as views
    into their buckets, which come from the process's workspace when
    their layout matches.  `init` is copied, never written, and the
    returned parameters are a copy that no later call writes.  Raises
    NonFiniteLoss when no epoch gives a finite validation loss."""
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise ValueError("train and validation window sets must be nonempty")
    init = init or md.init_params(model_cfg)
    buckets = Buckets(init)
    weights, grads, state = _take_workspace(buckets)
    buckets.gather(dict(init), weights)  # pops from a copy: `init` stays
    params = buckets.views(weights)
    frozen = [(b, where) for b, slots in enumerate(buckets.slots)
              for name, where, _ in slots
              if model_cfg.freeze_conv and ".conv" in name]
    rng = np.random.default_rng(cfg.seed)
    batch_size = min(cfg.batch_size, len(train_windows))
    history = []
    best_val, best_params, best_epoch, since_best = np.inf, None, -1, 0
    stopped_early = False
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = np.arange(len(train_windows))
        if cfg.shuffle:
            rng.shuffle(order)
        epoch_losses = []
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            loss, leaf_grads = _batch_grads(
                batch, train_windows, params, model_cfg, rng)
            buckets.gather(leaf_grads, grads)
            for b, where in frozen:
                grads[b][where] = 0.0
            if cfg.grad_clip is not None:
                _clip_grads(grads, cfg.grad_clip)
            adam_step(state, weights, grads, lr, cfg)
            epoch_losses.append(loss)
        train_loss = float(np.mean(epoch_losses))
        val_loss = evaluate(val_windows, params, model_cfg)["mse"]
        history.append((epoch, lr, train_loss, val_loss))
        if val_loss < best_val:
            best_val, best_epoch, since_best = val_loss, epoch, 0
            best_params = buckets.views([w.copy() for w in weights])
        else:
            since_best += 1
            if since_best >= cfg.patience:
                stopped_early = True
                break
    if best_params is None:  # NaN and inf never beat best_val = inf
        raise NonFiniteLoss(f"no finite validation loss after "
                            f"{len(history)} epoch(s)")
    _keep_workspace(weights, grads, state)
    return TrainResult(params=best_params, history=history,
                       best_epoch=best_epoch, best_val=best_val,
                       stopped_early=stopped_early)


# --- checkpoint / history serialization ---------------------------------

def config_hash(model_cfg: md.ModelConfig) -> str:
    blob = json.dumps(asdict(model_cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def save_checkpoint(path, params: dict, model_cfg: md.ModelConfig,
                    epoch: int = -1, val_loss: float = float("nan")) -> None:
    """Plain-text named-tensor container; floats are written with repr so
    reloads are bit-exact.  The file is written one tensor at a time, so
    that the text of only one tensor is held at once."""
    with open(path, "w") as fh:
        fh.write(f"format_version {CHECKPOINT_FORMAT_VERSION}\n"
                 f"config_hash {config_hash(model_cfg)}\n"
                 f"epoch {epoch}\n"
                 f"val_loss {val_loss!r}\n")
        for name in sorted(params):
            arr = params[name]
            shape = ",".join(str(s) for s in arr.shape)
            values = np.asarray(arr, dtype=np.float64).reshape(-1).tolist()
            fh.write(f"tensor {name} {shape}\n")
            fh.write(" ".join(map(repr, values)))
            fh.write("\n")


def load_checkpoint(path, model_cfg: Optional[md.ModelConfig] = None):
    """Returns (params, header dict); raises CorruptCheckpoint on a
    malformed file.  Given a model config, verifies the config hash and
    that the tensor names and shapes are the ones the model needs.

    The file is read one line at a time.  A file that does not decode
    raises the UnicodeDecodeError that reading it whole reports, wherever
    the bad byte lies, before any other error."""
    try:
        with open(path) as fh:
            params, header = _read_checkpoint(path, fh)
    except UnicodeDecodeError:
        with open(path) as fh:
            fh.read()  # the error, at the offset a whole-file read gives
        raise
    if model_cfg is not None:
        if header.get("config_hash") != config_hash(model_cfg):
            raise ConfigMismatch(
                "checkpoint was produced by a different model configuration")
        if {k: v.shape for k, v in params.items()} != \
                md.param_shapes(model_cfg):
            raise CorruptCheckpoint(
                f"{path}: tensor names or shapes differ from the model's")
    return params, header


def _read_checkpoint(path, fh):
    """(params, header) from an open checkpoint.  Its lines, numbered
    from 1, are those of `str.splitlines`, which also breaks at \\x0b,
    \\x0c, \\x1c-\\x1e, \\x85, \\u2028 and \\u2029 where file
    iteration breaks only at newlines."""
    lines = enumerate((part for raw in fh for part in raw.splitlines()),
                      start=1)

    def corrupt(message):
        for _ in fh:  # decode the rest: a decode error anywhere comes first
            pass
        return CorruptCheckpoint(f"{path}: {message}")

    header = {}
    for no, line in lines:
        if line.startswith("tensor "):
            break
        key, sep, value = line.partition(" ")
        if not sep:
            raise corrupt(f"line {no}: expected 'KEY VALUE'")
        header[key] = value
    else:
        return {}, header
    params = {}
    while line is not None:
        fields = line.split(" ")
        _, value_line = next(lines, (None, None))
        if len(fields) != 3 or value_line is None:
            raise corrupt(f"line {no}: expected 'tensor NAME SHAPE' "
                          f"followed by a value line")
        _, name, shape_s = fields
        try:
            shape = tuple(int(s) for s in shape_s.split(",") if s)
            tokens = value_line.split()
            values = np.fromiter(map(float, tokens), np.float64, len(tokens))
        except ValueError as exc:
            raise corrupt(f"tensor {name}: {exc}") from None
        if values.size != int(np.prod(shape)):
            raise corrupt(f"tensor {name}: {values.size} values for shape "
                          f"{shape}")
        params[name] = values.reshape(shape)
        no, line = next(lines, (None, None))
    return params, header


def save_history(path, history) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,lr,train_loss,val_loss\n")
        for epoch, lr, train_loss, val_loss in history:
            fh.write(f"{epoch},{lr!r},{train_loss!r},{val_loss!r}\n")
