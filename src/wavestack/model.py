"""Wavelet-infused doubly-residual forecasting architecture.

Each stack blends a wavelet sub-series into the running residual, applies
an optional multi-resolution convolution, and runs a chain of basis
expansion blocks.  Stack forecasts sum to the global forecast; stack
backcasts drive the inter-stack residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import NonFiniteInput, ShapeMismatch
from .wavelet import FilterKind, mdwd

CONV_VARIANTS = ("none", "dcn", "cnn", "maxpool", "avgpool")


@dataclass(frozen=True)
class ModelConfig:
    n_stacks: int = 4
    blocks_per_stack: int = 5
    alpha: float = 0.4
    lookback: int = 720
    horizon: int = 24
    hidden_depth: int = 3
    hidden_width: int = 16
    conv_variant: str = "dcn"  # one of CONV_VARIANTS, shared by stacks
    kernel_sizes: Optional[tuple[int, ...]] = None  # per stack; default below
    dilations: tuple[int, ...] = (1, 2, 4)
    wavelet_kind: str = "haar"
    theta_backcast_dim: Optional[int] = None  # default: conv output length
    theta_forecast_dim: Optional[int] = None  # default: horizon
    dropout_rate: float = 0.1
    freeze_conv: bool = False
    seed: int = 0

    def __post_init__(self):
        """The one check of the config: a config that passes builds a
        model whose forward pass runs."""
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.n_stacks < 1:
            raise ValueError("n_stacks must be >= 1")
        if self.alpha > 0.0 and self.n_stacks < 2:
            raise ValueError("wavelet infusion requires at least 2 stacks")
        if self.conv_variant not in CONV_VARIANTS:
            raise ValueError(f"unknown conv variant: {self.conv_variant}")
        if self.kernel_sizes is None:
            ks = tuple(max(3, 2 * (self.n_stacks - i) + 1)
                       for i in range(1, self.n_stacks + 1))
            object.__setattr__(self, "kernel_sizes", ks)
        else:
            object.__setattr__(self, "kernel_sizes",
                               tuple(self.kernel_sizes))
        if len(self.kernel_sizes) != self.n_stacks:
            raise ValueError("need one kernel size per stack")
        if any(a < b for a, b in zip(self.kernel_sizes,
                                     self.kernel_sizes[1:])):
            raise ValueError("kernel sizes must be monotonically nonincreasing")
        if self.n_stacks >= 2 and self.lookback < 2 ** (self.n_stacks - 1):
            raise ValueError("lookback too short for n_stacks-1 wavelet levels")
        object.__setattr__(self, "dilations", tuple(self.dilations))
        FilterKind(self.wavelet_kind)  # validates
        for name in ("lookback", "horizon", "blocks_per_stack",
                     "hidden_depth", "hidden_width", "theta_backcast_dim",
                     "theta_forecast_dim"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1")
        if min(self.kernel_sizes + self.dilations, default=1) < 1:
            raise ValueError("kernel sizes and dilations must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for i in range(1, self.n_stacks + 1):
            if self.conv_output_length(i) < 1:
                raise ValueError(
                    f"stack {i}: conv variant {self.conv_variant} consumes "
                    f"the whole lookback window")

    def conv_output_length(self, stack: int) -> int:
        """Length of the block input for 1-based stack index."""
        t = self.lookback
        k = self.kernel_sizes[stack - 1]
        if self.conv_variant == "none":
            return t
        if self.conv_variant == "dcn":
            return t - (k - 1) * sum(self.dilations)
        if self.conv_variant == "cnn":
            return t - (k - 1) * len(self.dilations)
        return t // k  # pooling


@dataclass(frozen=True)
class ForecastBundle:
    """Interpretability artifact: the global forecast plus every stack's
    contribution and input signal.  Each array has the input's leading
    axes: [H] or [T] for one window, [B, H] or [B, T] for a batch."""

    global_forecast: np.ndarray
    per_stack_forecast: list
    per_stack_backcast: list  # zero-padded to lookback length
    stack_inputs: list  # post-infusion, pre-convolution
    infused_signals: list  # wavelet branch blended into each stack
    forecast_node: Tensor = field(repr=False, compare=False)


def _conv_kernel_names(i, cfg: ModelConfig):
    if cfg.conv_variant not in ("dcn", "cnn"):
        return []
    return [f"s{i}.conv{j}.kernel" for j in range(len(cfg.dilations))]


def param_shapes(cfg: ModelConfig) -> dict:
    """{name: shape} of every parameter the model reads, in the order
    `init_params` draws them.  Convolution kernels end in `.kernel`,
    affine weights in `.W` and biases in `.b`."""
    shapes = {}
    for i in range(1, cfg.n_stacks + 1):
        k = cfg.kernel_sizes[i - 1]
        for name in _conv_kernel_names(i, cfg):
            shapes[name] = (k,)
        in_dim = cfg.conv_output_length(i)
        tb = cfg.theta_backcast_dim or in_dim
        tf = cfg.theta_forecast_dim or cfg.horizon
        w = cfg.hidden_width
        for kb in range(1, cfg.blocks_per_stack + 1):
            prefix = f"s{i}.b{kb}"
            dims = [in_dim] + [w] * cfg.hidden_depth
            for d in range(cfg.hidden_depth):
                shapes[f"{prefix}.trunk{d}.W"] = (dims[d + 1], dims[d])
                shapes[f"{prefix}.trunk{d}.b"] = (dims[d + 1],)
            for name, out in ((f"{prefix}.head_b", tb),
                              (f"{prefix}.head_f", tf)):
                shapes[f"{name}.W"] = (out, w)
                shapes[f"{name}.b"] = (out,)
            shapes[f"{prefix}.proj_b.W"] = (in_dim, tb)
            shapes[f"{prefix}.proj_b.b"] = (in_dim,)
            shapes[f"{prefix}.proj_f.W"] = (cfg.horizon, tf)
            shapes[f"{prefix}.proj_f.b"] = (cfg.horizon,)
    return shapes


def init_params(cfg: ModelConfig, seed: Optional[int] = None) -> dict:
    """Deterministic parameter initialization: Xavier-uniform affine
    weights, zero biases, delta-initialized convolution kernels."""
    rng = np.random.default_rng(cfg.seed if seed is None else seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".W"):
            params[name] = ad.xavier_init(shape, rng)
        else:
            params[name] = np.zeros(shape)
            if name.endswith(".kernel"):
                params[name][0] = 1.0
    return params


def stack_conv(i: int, x_in: Tensor, cfg: ModelConfig, leaves: dict,
               tape: Tape) -> Tensor:
    """Apply the configured multi-resolution operator for stack i."""
    variant = cfg.conv_variant
    k = cfg.kernel_sizes[i - 1]
    if variant == "none":
        return x_in
    if variant in ("dcn", "cnn"):
        out = x_in
        for j, d in enumerate(cfg.dilations):
            dilation = d if variant == "dcn" else 1
            out = ad.dilated_conv1d(out, leaves[f"s{i}.conv{j}.kernel"],
                                    dilation, tape)
        return out
    if variant == "maxpool":
        return ad.maxpool1d(x_in, k, tape)
    return ad.avgpool1d(x_in, k, tape)


def block_forward(x_block_in: Tensor, i: int, k: int, cfg: ModelConfig,
                  leaves: dict, tape: Tape, draws=None):
    """One basis-expansion block: trunk MLP, two coefficient heads, two
    linear projections.  Returns (backcast, forecast).  `draws`, the
    forward pass's dropout draws (see `_forward`), turn dropout on."""
    prefix = f"s{i}.b{k}"
    layer = ((i - 1) * cfg.blocks_per_stack + k - 1) * cfg.hidden_depth
    h = x_block_in
    for d in range(cfg.hidden_depth):
        h = ad.affine(h, leaves[f"{prefix}.trunk{d}.W"],
                      leaves[f"{prefix}.trunk{d}.b"], tape)
        h = ad.relu(h, tape)
        if draws is not None:
            h = ad.dropout(h, cfg.dropout_rate, draws[..., layer + d, :],
                           tape)
    theta_b = ad.affine(h, leaves[f"{prefix}.head_b.W"],
                        leaves[f"{prefix}.head_b.b"], tape)
    theta_f = ad.affine(h, leaves[f"{prefix}.head_f.W"],
                        leaves[f"{prefix}.head_f.b"], tape)
    backcast = ad.affine(theta_b, leaves[f"{prefix}.proj_b.W"],
                         leaves[f"{prefix}.proj_b.b"], tape)
    forecast = ad.affine(theta_f, leaves[f"{prefix}.proj_f.W"],
                         leaves[f"{prefix}.proj_f.b"], tape)
    return backcast, forecast


def stack_forward(i: int, x_conv: Tensor, cfg: ModelConfig, leaves: dict,
                  tape: Tape, draws=None):
    """Chain blocks with backcast residuals; sum block backcasts and
    forecasts into the stack outputs."""
    block_in = x_conv
    sum_backcast = None
    sum_forecast = None
    for k in range(1, cfg.blocks_per_stack + 1):
        backcast, forecast = block_forward(
            block_in, i, k, cfg, leaves, tape, draws)
        sum_backcast = backcast if sum_backcast is None else \
            ad.add(sum_backcast, backcast, tape)
        sum_forecast = forecast if sum_forecast is None else \
            ad.add(sum_forecast, forecast, tape)
        if k < cfg.blocks_per_stack:
            block_in = ad.sub(block_in, backcast, tape)
    return sum_backcast, sum_forecast


def make_leaves(params: dict, tape: Tape) -> dict:
    return {name: tape.tensor(value) for name, value in params.items()}


def _forward(x, cfg: ModelConfig, leaves: dict, tape: Tape,
             rng: Optional[np.random.Generator] = None) -> ForecastBundle:
    """The forward pass of one window [T] or a batch [B, T]: check the
    input, decompose it once, then run blend -> conv -> blocks over every
    stack.  Stack 1 blends the coarsest approximation into the raw window;
    each later stack blends the next finer detail branch into the residual
    the previous stack left.

    Dropout runs exactly when an `rng` is given: every draw of the pass
    is taken from it at once, window by window and in layer order within
    a window, so a batch consumes the stream exactly as its windows would
    one after another.  At rate 0 nothing is drawn."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != cfg.lookback:
        raise ShapeMismatch(
            f"expected input of length {cfg.lookback} or a batch of them, "
            f"got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("model input contains NaN or Inf")
    draws = None
    if rng is not None and cfg.dropout_rate > 0.0:
        layers = cfg.n_stacks * cfg.blocks_per_stack * cfg.hidden_depth
        draws = rng.random(x.shape[:-1] + (layers, cfg.hidden_width))
    branches = [None]  # one stack: alpha is 0, nothing to blend
    if cfg.n_stacks >= 2:
        pyramid = mdwd(x, cfg.n_stacks - 1, cfg.wavelet_kind)
        branches = [pyramid.approx[-1]] + pyramid.detail[::-1]
    x_in = tape.tensor(x)
    global_forecast = backcast_t = None
    stack_forecasts, stack_backcasts, stack_inputs = [], [], []
    for i, branch in enumerate(branches, start=1):
        if i > 1:
            x_in = ad.sub(x_in, backcast_t, tape)
        x_in = ad.blend(branch, x_in, cfg.alpha, tape)
        x_conv = stack_conv(i, x_in, cfg, leaves, tape)
        backcast, forecast = stack_forward(
            i, x_conv, cfg, leaves, tape, draws)
        backcast_t = ad.pad_left(
            backcast, cfg.lookback - backcast.value.shape[-1], tape)
        global_forecast = forecast if global_forecast is None else \
            ad.add(global_forecast, forecast, tape)
        stack_forecasts.append(forecast.value)
        stack_backcasts.append(backcast_t.value)
        stack_inputs.append(x_in.value)
    return ForecastBundle(
        global_forecast=global_forecast.value,
        per_stack_forecast=stack_forecasts,
        per_stack_backcast=stack_backcasts,
        stack_inputs=stack_inputs,
        infused_signals=branches,
        forecast_node=global_forecast,
    )


def model_forward(x, params: dict, cfg: ModelConfig,
                  tape: Tape) -> ForecastBundle:
    """Forward pass, without dropout, of one window [T] or a batch [B, T]
    with `params` as fresh tape leaves."""
    return _forward(x, cfg, make_leaves(params, tape), tape)


def forward_loss(x, target, params: dict, cfg: ModelConfig, tape: Tape,
                 rng: Optional[np.random.Generator] = None):
    """MSE loss of the global forecast against a horizon target [H], or
    [B, H] for a batch (the mean of the per-window losses), with dropout
    drawn from `rng` when one is given; returns (loss tensor, leaves) so
    callers can read gradients after backward."""
    leaves = make_leaves(params, tape)
    bundle = _forward(x, cfg, leaves, tape, rng)
    return ad.mse_loss(bundle.forecast_node, target, tape), leaves
