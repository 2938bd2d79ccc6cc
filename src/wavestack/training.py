"""Windowing, losses, Adam with warmup + linear decay, early stopping and
checkpointing."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict
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


@dataclass
class TrainState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    lr: float = 0.0
    best_val: float = np.inf
    best_params: Optional[dict] = None
    best_epoch: int = -1
    epochs_since_improvement: int = 0


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


def init_train_state(params: dict) -> TrainState:
    state = TrainState()
    state.m = {k: np.zeros_like(v) for k, v in params.items()}
    state.v = {k: np.zeros_like(v) for k, v in params.items()}
    return state


def adam_step(state: TrainState, params: dict, grads: dict, lr: float,
              cfg: TrainConfig) -> None:
    """In-place bias-corrected Adam update."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(
                f"non-finite gradient in parameter {name!r} at step "
                f"{state.step}")
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for name, p in params.items():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1 ** t)
        v_hat = state.v[name] / (1.0 - b2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
    state.lr = lr


def _clip_grads(grads: dict, max_norm: float) -> None:
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        factor = max_norm / total
        for name in grads:
            grads[name] = grads[name] * factor


def _batch_grads(batch_idx, windows, params, model_cfg, rng):
    """Mean loss and mean gradients over one batch of windows, from one
    forward and one backward pass over the whole batch."""
    inputs = np.stack([windows.inputs[j] for j in batch_idx])
    targets = np.stack([windows.targets[j] for j in batch_idx])
    tape = Tape()
    loss, leaves = md.forward_loss(inputs, targets, params, model_cfg,
                                   tape, rng=rng, training=True)
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
    validation loss."""
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise ValueError("train and validation window sets must be nonempty")
    params = {k: v.copy() for k, v in
              (init or md.init_params(model_cfg)).items()}
    state = init_train_state(params)
    rng = np.random.default_rng(cfg.seed)
    batch_size = min(cfg.batch_size, len(train_windows))
    history = []
    stopped_early = False
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        order = np.arange(len(train_windows))
        if cfg.shuffle:
            rng.shuffle(order)
        epoch_losses = []
        for start in range(0, len(order), batch_size):
            batch = order[start:start + batch_size]
            loss, grads = _batch_grads(
                batch, train_windows, params, model_cfg, rng)
            if model_cfg.freeze_conv:
                for name in grads:
                    if ".conv" in name:
                        grads[name] = np.zeros_like(grads[name])
            if cfg.grad_clip is not None:
                _clip_grads(grads, cfg.grad_clip)
            adam_step(state, params, grads, lr, cfg)
            epoch_losses.append(loss)
        train_loss = float(np.mean(epoch_losses))
        val_loss = evaluate(val_windows, params, model_cfg)["mse"]
        history.append((epoch, lr, train_loss, val_loss))
        if val_loss < state.best_val:
            state.best_val = val_loss
            state.best_params = {k: v.copy() for k, v in params.items()}
            state.best_epoch = epoch
            state.epochs_since_improvement = 0
        else:
            state.epochs_since_improvement += 1
            if state.epochs_since_improvement >= cfg.patience:
                stopped_early = True
                break
    return TrainResult(params=state.best_params, history=history,
                       best_epoch=state.best_epoch, best_val=state.best_val,
                       stopped_early=stopped_early)


# --- checkpoint / history serialization ---------------------------------

def config_hash(model_cfg: md.ModelConfig) -> str:
    blob = json.dumps(asdict(model_cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def save_checkpoint(path, params: dict, model_cfg: md.ModelConfig,
                    epoch: int = -1, val_loss: float = float("nan")) -> None:
    """Plain-text named-tensor container; floats are written with repr so
    reloads are bit-exact."""
    lines = [f"format_version {CHECKPOINT_FORMAT_VERSION}",
             f"config_hash {config_hash(model_cfg)}",
             f"epoch {epoch}",
             f"val_loss {val_loss!r}"]
    for name in sorted(params):
        arr = params[name]
        shape = ",".join(str(s) for s in arr.shape)
        lines.append(f"tensor {name} {shape}")
        lines.append(" ".join(repr(float(v)) for v in arr.reshape(-1)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_checkpoint(path, model_cfg: Optional[md.ModelConfig] = None):
    """Returns (params, header dict); raises CorruptCheckpoint on a
    malformed file.  Given a model config, verifies the config hash and
    that the tensor names and shapes are the ones the model needs."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = {}
    i = 0
    while i < len(lines) and not lines[i].startswith("tensor "):
        key, sep, value = lines[i].partition(" ")
        if not sep:
            raise CorruptCheckpoint(
                f"{path}: line {i + 1}: expected 'KEY VALUE'")
        header[key] = value
        i += 1
    params = {}
    while i < len(lines):
        fields = lines[i].split(" ")
        if len(fields) != 3 or i + 1 == len(lines):
            raise CorruptCheckpoint(
                f"{path}: line {i + 1}: expected 'tensor NAME SHAPE' "
                f"followed by a value line")
        _, name, shape_s = fields
        try:
            shape = tuple(int(s) for s in shape_s.split(",") if s)
            values = np.array([float(v) for v in lines[i + 1].split()])
        except ValueError as exc:
            raise CorruptCheckpoint(
                f"{path}: tensor {name}: {exc}") from None
        if values.size != int(np.prod(shape)):
            raise CorruptCheckpoint(
                f"{path}: tensor {name}: {values.size} values for shape "
                f"{shape}")
        params[name] = values.reshape(shape)
        i += 2
    if model_cfg is not None:
        if header.get("config_hash") != config_hash(model_cfg):
            raise ConfigMismatch(
                "checkpoint was produced by a different model configuration")
        expected = {k: v.shape for k, v in md.init_params(model_cfg).items()}
        if {k: v.shape for k, v in params.items()} != expected:
            raise CorruptCheckpoint(
                f"{path}: tensor names or shapes differ from the model's")
    return params, header


def save_history(path, history) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,lr,train_loss,val_loss\n")
        for epoch, lr, train_loss, val_loss in history:
            fh.write(f"{epoch},{lr!r},{train_loss!r},{val_loss!r}\n")
