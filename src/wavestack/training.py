"""Windowing, losses, Adam with warmup + linear decay, early stopping and
checkpointing."""

from __future__ import annotations

import hashlib
import json
import math
import warnings
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

# Values per piece of a value line that `save_checkpoint` formats at once:
# a piece's floats and their text are all that is held beside the tensor.
SAVE_PIECE = 1 << 16

# Windows per forward pass in `forecast_bundles`.  A pass holds a few
# arrays of [chunk, lookback] per block, so the chunk bounds inference
# memory however many windows a set has.
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
        if self.decay_slope < 0.0:
            raise ValueError("decay_slope must be >= 0")
        if self.loss != "mse":
            raise ValueError("only MSE training loss is supported")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if not self.adam_eps > 0.0:
            raise ValueError("adam_eps must be positive")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# The elements of a vector that Adam's update takes at a time.  Its 14
# passes then cycle over 6 x 256 KiB of p, g, m, v and scratch, which
# stays in cache, where passes over whole vectors miss it.  Of 2^11 to
# 2^17, 2^15 was the fastest on the paper model.
ADAM_CHUNK = 1 << 15


@dataclass
class TrainState:
    """A model's parameters, gradients and Adam moments, each laid out
    end to end, in the parameter dict's order, in one float64 vector.
    `slots` lists each tensor's (name, slice, shape) in them.  Every
    vector is the state's own.  Until the first step, `init` holds the
    starting tensors, each a C-contiguous float64 array (the caller's
    own where it is one already, else a converted copy), and the weight
    vector holds nothing: the first step reads its weights from `init`,
    which it never writes, and then drops it."""
    weights: np.ndarray
    grads: np.ndarray
    m: np.ndarray
    v: np.ndarray
    scratch: tuple  # two buffers of one Adam chunk
    slots: list
    init: Optional[dict]
    step: int = 0

    @classmethod
    def new(cls, tensors: dict) -> "TrainState":
        """Lay `tensors` out in new, unwritten vectors, with Adam at its
        start: its first step writes the weights and the moments whole."""
        slots, end = [], 0
        for name, value in tensors.items():
            slots.append((name, slice(end, end + value.size), value.shape))
            end += value.size
        init = {name: np.asarray(value, dtype=np.float64, order="C")
                for name, value in tensors.items()}
        chunk = min(ADAM_CHUNK, end)
        return cls(*(np.empty(end) for _ in range(4)),
                   (np.empty(chunk), np.empty(chunk)), slots, init)

    def views(self, buf: np.ndarray) -> dict:
        """Every parameter as a view into `buf`, one of the vectors of
        this layout, in layout order."""
        return {name: buf[where].reshape(shape)
                for name, where, shape in self.slots}


@dataclass(frozen=True)
class WindowSet:
    """`inputs` [N, T] and `targets` [N, H] of one series (read-only views
    from `make_windows`); row i starts at `offsets[i]`."""
    inputs: np.ndarray
    targets: np.ndarray
    offsets: np.ndarray

    def __len__(self):
        return len(self.inputs)


def make_windows(series, lookback: int, horizon: int,
                 stride: int = 1) -> WindowSet:
    """Slide contiguous (input, target) pairs, `stride` apart, over the
    series, as views of it; each input ends where its target begins."""
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    if n < lookback + horizon:
        raise SeriesTooShort(
            f"series of length {n} cannot yield a {lookback}+{horizon} window")
    pairs = np.lib.stride_tricks.sliding_window_view(
        series, lookback + horizon)[::stride]
    return WindowSet(inputs=pairs[:, :lookback], targets=pairs[:, lookback:],
                     offsets=np.arange(n - lookback - horizon + 1)[::stride])


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


def _sum_squares(g: np.ndarray) -> float:
    """g @ g, where finite elements whose squares overflow give inf
    without a warning."""
    with np.errstate(over="ignore"):
        return g @ g


def adam_step(state: TrainState, lr: float, cfg: TrainConfig, sq: float,
              last: bool = False) -> None:
    """In-place bias-corrected Adam update of `state.weights` from
    `state.grads`.  Each chunk of ADAM_CHUNK elements takes the
    per-tensor expressions `m = b1*m + (1-b1)*g`, `v = b2*v + (1-b2)*g*g`
    and `p -= lr*m_hat / (sqrt(v_hat) + eps)` one operation at a time, in
    their order, so the result is the same bits a per-tensor update
    gives.  A state's first step takes m and v as zeros without reading
    them: it writes `(1-b1)*g + 0.0` and `((1-b2)*g)*g`, the bits of
    `b*0.0 + x` for b >= 0, signed zeros included.  v needs no `+ 0.0`:
    with 1-b2 > 0 and g finite, `((1-b2)*g)*g` is never -0.0 or NaN.
    The first step also copies each chunk's weights from `state.init`,
    after the chunk's last read of g, and then drops `state.init`.

    With `last`, no later step reads the moments, so `state.m` and
    `state.v` are not written: each chunk's new m goes to scratch, and
    its new v over the chunk's spent gradients, which `state.grads` then
    holds.  The weights take the same bits.  A first step that is also
    last touches neither moment vector nor the weight vector: each
    chunk's v stays in scratch and its new weights go over its spent
    gradients, so that `state.weights` is then `state.grads`.

    `sq` is the gradients' sum of squares, `_sum_squares(state.grads)`;
    a non-finite element makes it non-finite (so do finite elements
    whose squares overflow).  Raises NonFiniteGradient, naming the first
    bad tensor in layout order, before it writes anything."""
    p, g, m, v = state.weights, state.grads, state.m, state.v
    if not np.isfinite(sq):
        bad = next((name for name, where, _ in state.slots
                    if not np.isfinite(g[where]).all()), None)
        if bad is not None:
            raise NonFiniteGradient(
                f"non-finite gradient in parameter {bad!r} at step "
                f"{state.step}")
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    if t == 1:
        p = g if last else p  # a one-step call's weights go over g
        fill = _init_pieces(state)
    for lo in range(0, g.size, ADAM_CHUNK):
        hi = lo + ADAM_CHUNK
        p_, g_ = p[lo:hi], g[lo:hi]
        s1, s2 = (s[:g_.size] for s in state.scratch)
        # a last step's m is divided in place into lr * m_hat's buffer,
        # and its v overwrites g once g's last read is done; at a first
        # step that is last, v stays in scratch and the weights take g
        m_, v_ = ((s1, s2 if t == 1 else g_) if last
                  else (m[lo:hi], v[lo:hi]))
        if t == 1:  # m and v are zeros, not read; p_ is filled from
            # init after g_'s last read, as at a last step p_ is g_
            np.add(np.multiply(g_, 1.0 - b1, out=s2), 0.0, out=m_)
            np.multiply(np.multiply(g_, 1.0 - b2, out=s2), g_, out=v_)
            np.concatenate(next(fill), axis=None, out=p_)
        else:
            np.multiply(m[lo:hi], b1, out=m_)
            m_ += np.multiply(g_, 1.0 - b1, out=s2)
            np.multiply(np.multiply(g_, 1.0 - b2, out=s2), g_, out=s2)
            np.multiply(v[lo:hi], b2, out=v_)
            v_ += s2
        np.multiply(np.divide(m_, c1, out=s1), lr, out=s1)  # lr * m_hat
        np.sqrt(np.divide(v_, c2, out=s2), out=s2)  # sqrt(v_hat)
        s2 += cfg.adam_eps
        p_ -= np.divide(s1, s2, out=s1)
    if t == 1:
        state.weights, state.init = p, None


def _init_pieces(state: TrainState):
    """Yields, per Adam chunk of the layout in order, the tensors of
    `state.init` and the flat slices of them that fill the chunk end to
    end, for `np.concatenate(..., axis=None)`."""
    chunk, room = [], ADAM_CHUNK
    for value in state.init.values():
        while value.size >= room:  # it fills the chunk
            flat = value.reshape(-1)
            chunk.append(flat[:room])
            yield chunk
            value, chunk, room = flat[room:], [], ADAM_CHUNK
        if value.size:
            chunk.append(value)
            room -= value.size
    if chunk:
        yield chunk


def _clip_grads(g: np.ndarray, max_norm: float, sq: float) -> float:
    """Scale the gradient vector in place to a norm of at most
    `max_norm`; returns the norm before clipping.  `sq` is the vector's
    sum of squares, `_sum_squares(g)`."""
    total = np.sqrt(sq)
    big = 1.0
    if total == np.inf and np.isfinite(g).all():
        # finite gradients whose squares overflow: take the norm of
        # g / max|g|, so that the factor is not max_norm / inf = 0
        big = float(np.max(np.abs(g), initial=0.0))
        total = np.sqrt((g / big) @ (g / big))
    if not np.isfinite(total):
        # an inf or NaN element: scaling would turn an inf into NaN and
        # zero the rest, and adam_step raises NonFiniteGradient naming it
        return float(total)
    if total > max_norm / big:
        g *= (max_norm / big) / total
    return big * float(total)


def _batch_grads(batch_idx, windows, params, model_cfg, rng, out) -> float:
    """Mean loss over one batch of windows, from one forward and one
    backward pass over the whole batch; the mean gradients are written
    into `out`, a dict of buffers shaped as `params`."""
    inputs = windows.inputs[batch_idx]
    targets = windows.targets[batch_idx]
    tape = Tape()
    loss, leaves = md.forward_loss(inputs, targets, params, model_cfg,
                                   tape, rng)
    if not np.isfinite(loss.value):
        (pred, _), = loss.parents  # the loss's one parent: the forecast
        bad = ~np.isfinite(np.mean((pred.value - targets) ** 2, axis=-1))
        raise NonFiniteLoss(f"non-finite loss on window index "
                            f"{batch_idx[int(np.argmax(bad))]}")
    tape.backward(loss, {leaves[name]: buf for name, buf in out.items()})
    return float(loss.value)


def forecast_bundles(inputs, params: dict, model_cfg):
    """Inference-mode forward passes over a window set [N, T], on a tape
    that records nothing: one ForecastBundle per FORECAST_CHUNK windows,
    whose parts hold the chunk's rows.  Each chunk is converted on its
    own, and a chunk of an array set is a view, so no copy of the set is
    made; a consumer that reduces each bundle as it comes holds one
    chunk's parts at a time.  It calls `md.model_forward` by its module
    attribute so that wrappers installed there see every call."""
    for start in range(0, max(len(inputs), 1), FORECAST_CHUNK):
        chunk = np.asarray(inputs[start:start + FORECAST_CHUNK],
                           dtype=np.float64)
        if chunk.ndim != 2:
            raise ShapeMismatch(f"expected a window set [N, T], got a set "
                                f"of shape {(len(inputs),) + chunk.shape[1:]}")
        yield md.model_forward(chunk, params, model_cfg, InferenceTape())


def forecast(inputs, params: dict, model_cfg) -> np.ndarray:
    """Inference-mode global forecasts [N, H] of a window set [N, T]."""
    return np.concatenate([bundle.global_forecast for bundle in
                           forecast_bundles(inputs, params, model_cfg)])


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
    one TrainState of this call's own, and the model reads the
    parameters as views into its weight vector; backward writes the
    gradients into its gradient vector.  The first minibatch's forward
    reads `init` itself, and the first step fills the weight vector from
    it (a one-step call writes its weights over its spent gradients);
    `init` is never written.  The returned parameters are views into the
    weight vector when the last epoch run is the best, else into one
    copy of the best epoch's weights; no later call writes either.
    Raises NonFiniteLoss when no epoch gives a finite validation loss."""
    if len(train_windows) == 0 or len(val_windows) == 0:
        raise ValueError("train and validation window sets must be nonempty")
    init = init or md.init_params(model_cfg)
    state = TrainState.new(init)
    params = state.init  # until the first step fills the weights
    grads = state.views(state.grads)
    frozen = [where for name, where, _ in state.slots
              if model_cfg.freeze_conv and ".conv" in name]
    rng = np.random.default_rng(cfg.seed)
    history = []
    best_val, best_epoch, since_best = np.inf, -1, 0
    best = None  # the best epoch's weights, once a later epoch runs
    stopped_early = False
    for epoch in range(cfg.epochs):
        if epoch > 0 and best_epoch == epoch - 1:  # it moves the best
            if best is None:
                best = np.empty_like(state.weights)
            np.copyto(best, state.weights)
        lr = lr_at(epoch, cfg)
        order = np.arange(len(train_windows))
        if cfg.shuffle:
            rng.shuffle(order)
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            loss = _batch_grads(batch, train_windows, params, model_cfg,
                                rng, grads)
            for where in frozen:
                state.grads[where] = 0.0
            sq = _sum_squares(state.grads)
            if cfg.grad_clip is not None:
                _clip_grads(state.grads, cfg.grad_clip, sq)
            # no step follows a call's last to read its moments
            last = (epoch == cfg.epochs - 1
                    and start + cfg.batch_size >= len(order))
            # clipping scales by at most 1, and not at all when sq is not
            # finite, so the elements sq found finite stay finite
            adam_step(state, lr, cfg, sq, last=last)
            if state.step == 1:
                params = state.views(state.weights)
            epoch_losses.append(loss)
        train_loss = float(np.mean(epoch_losses))
        val_loss = evaluate(val_windows, params, model_cfg)["mse"]
        history.append((epoch, lr, train_loss, val_loss))
        if val_loss < best_val:
            best_val, best_epoch, since_best = val_loss, epoch, 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                stopped_early = True
                break
    if best_epoch < 0:  # NaN and inf never beat best_val = inf
        raise NonFiniteLoss(f"no finite validation loss after "
                            f"{len(history)} epoch(s)")
    if best_epoch < len(history) - 1:
        params = state.views(best)
    return TrainResult(params=params, history=history,
                       best_epoch=best_epoch, best_val=best_val,
                       stopped_early=stopped_early)


# --- checkpoint / history serialization ---------------------------------

def config_hash(model_cfg: md.ModelConfig) -> str:
    blob = json.dumps(asdict(model_cfg), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def save_checkpoint(path, params: dict, model_cfg: md.ModelConfig,
                    epoch: int = -1, val_loss: float = float("nan")) -> None:
    """Plain-text named-tensor container; floats are written with repr so
    reloads are bit-exact.  Each value line is written in pieces of at
    most SAVE_PIECE values, so only one piece's floats and text are held
    at once."""
    with open(path, "w") as fh:
        fh.write(f"format_version {CHECKPOINT_FORMAT_VERSION}\n"
                 f"config_hash {config_hash(model_cfg)}\n"
                 f"epoch {epoch}\n"
                 f"val_loss {val_loss!r}\n")
        for name in sorted(params):
            arr = params[name]
            shape = ",".join(str(s) for s in arr.shape)
            flat = np.asarray(arr, dtype=np.float64).reshape(-1)
            fh.write(f"tensor {name} {shape}\n")
            for start in range(0, flat.size, SAVE_PIECE):
                if start:
                    fh.write(" ")
                piece = flat[start:start + SAVE_PIECE].tolist()
                fh.write(" ".join(map(repr, piece)))
            fh.write("\n")


def load_checkpoint(path, model_cfg: Optional[md.ModelConfig] = None):
    """Returns (params, header dict); raises CorruptCheckpoint on a
    malformed file or one whose format_version is not
    CHECKPOINT_FORMAT_VERSION.  Given a model config, verifies the config
    hash and that the tensor names and shapes are the ones the model
    needs.

    The file is read one line at a time.  A file that does not decode
    raises the UnicodeDecodeError that reading it whole reports, wherever
    the bad byte lies, before any other error."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            # numpy releases that only warn about text np.fromstring cannot
            # read to its end: the warning rejects the line as an error does
            warnings.simplefilter("error", DeprecationWarning)
            params, header = _read_checkpoint(path, fh)
    except UnicodeDecodeError:
        with open(path) as fh:
            fh.read()  # the error, at the offset a whole-file read gives
        raise
    version = header.get("format_version")
    if version != str(CHECKPOINT_FORMAT_VERSION):
        raise CorruptCheckpoint(f"{path}: format_version {version!r} is not "
                                f"{CHECKPOINT_FORMAT_VERSION}")
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
        if len(fields) != 3 or fields[0] != "tensor" or value_line is None:
            raise corrupt(f"line {no}: expected 'tensor NAME SHAPE' "
                          f"followed by a value line")
        _, name, shape_s = fields
        if name in params:
            raise corrupt(f"line {no}: tensor {name} is listed twice")
        try:
            shape = tuple(int(s) for s in shape_s.split(",") if s)
            values = _parse_values(value_line)
            if min(shape, default=0) < 0:
                raise ValueError(f"negative dimension in shape {shape}")
            if values.size != math.prod(shape):
                raise ValueError(f"{values.size} values for shape {shape}")
            params[name] = values.reshape(shape)
        except ValueError as exc:
            raise corrupt(f"tensor {name}: {exc}") from None
        no, line = next(lines, (None, None))
    return params, header


def _parse_values(line: str) -> np.ndarray:
    """The floats of a value line, with `float()`'s bits and errors.
    numpy parses the line in C with the same correctly rounded conversion
    that `float()` uses, without a Python object per value.  A line it
    rejects (underscores, non-ASCII digits or whitespace, junk) goes
    through `float()`, which reports the error or reads what numpy cannot,
    and so does a line that numpy reads differently: one that holds `n`
    or `N` (numpy drops the sign of `-nan` and accepts `nan(1)`) or only
    whitespace (numpy reads one value from it)."""
    if "n" not in line and "N" not in line and not line.isspace():
        try:
            return np.fromstring(line, np.float64, sep=" ")
        except (ValueError, DeprecationWarning):
            pass
    tokens = line.split()
    return np.fromiter(map(float, tokens), np.float64, len(tokens))


def save_history(path, history) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,lr,train_loss,val_loss\n")
        for epoch, lr, train_loss, val_loss in history:
            fh.write(f"{epoch},{lr!r},{train_loss!r},{val_loss!r}\n")
