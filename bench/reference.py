"""Plain-numpy references that the benchmark checks wavestack against.

Nothing here imports wavestack.  Each result is worked out by its own
route: the Haar branches as dyadic block means instead of a filter bank,
the forward pass batched over windows with no tape, the checkpoint and
CSV files parsed line by line.  A fault in the program therefore cannot
cancel out of a check.
"""

from __future__ import annotations

import numpy as np


def haar_branches(x, levels):
    """Haar approximation and detail branches of the windows in `x`
    ([..., T]), each at full length T.

    The level-L approximation is the mean over aligned blocks of 2^L
    samples; the level-L detail is approx_{L-1} - approx_L, with
    approx_0 = x.  Returns (approx, detail) with approx[L] for L = 0..levels
    and detail[L-1] for L = 1..levels.
    """
    x = np.asarray(x, dtype=np.float64)
    t = x.shape[-1]
    approx = [x]
    for level in range(1, levels + 1):
        block = 2 ** level
        if t % block:
            raise ValueError(f"length {t} is not a multiple of {block}")
        means = x.reshape(*x.shape[:-1], t // block, block).mean(axis=-1)
        approx.append(np.repeat(means, block, axis=-1))
    detail = [approx[level - 1] - approx[level]
              for level in range(1, levels + 1)]
    return approx, detail


def _blend(branch, base, alpha):
    if alpha == 0.0:
        return base
    if alpha == 1.0:
        return branch
    return alpha * branch + (1.0 - alpha) * base


def _causal_conv(x, kernel, dilation):
    """Valid causal convolution along the last axis:
    y[t] = sum_j kernel[j] * x[t + span - j * dilation]."""
    k = len(kernel)
    span = (k - 1) * dilation
    t_out = x.shape[-1] - span
    y = np.zeros(x.shape[:-1] + (t_out,))
    for j in range(k):
        start = span - j * dilation
        y += kernel[j] * x[..., start:start + t_out]
    return y


def _dense(x, params, name):
    return x @ params[f"{name}.W"].T + params[f"{name}.b"]


def forward(x, params, cfg):
    """Inference forward pass of the wavelet-infused stack model.

    `x` is [B, T] (or [T]); `cfg` is read for its plain fields only
    (n_stacks, blocks_per_stack, alpha, hidden_depth, dilations,
    conv_variant, wavelet_kind).  Returns (global forecast [B, H], list of
    per-stack forecasts).  Only the Haar wavelet and the dilated
    convolution variant are modelled, which is what the workloads use.
    """
    if cfg.wavelet_kind != "haar" or cfg.conv_variant != "dcn":
        raise ValueError("reference covers haar + dcn only")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n, t = cfg.n_stacks, x.shape[-1]
    approx, detail = haar_branches(x, n - 1)
    stacks = []
    prev_in = prev_back = None
    for i in range(1, n + 1):
        if i == 1:
            x_in = _blend(approx[n - 1], x, cfg.alpha)
        else:
            x_in = _blend(detail[n - i], prev_in - prev_back, cfg.alpha)
        h = x_in
        for j, d in enumerate(cfg.dilations):
            h = _causal_conv(h, params[f"s{i}.conv{j}.kernel"], d)
        block_in = h
        back_sum = fore_sum = 0.0
        for k in range(1, cfg.blocks_per_stack + 1):
            p = f"s{i}.b{k}"
            z = block_in
            for d in range(cfg.hidden_depth):
                z = np.maximum(_dense(z, params, f"{p}.trunk{d}"), 0.0)
            back = _dense(_dense(z, params, f"{p}.head_b"), params,
                          f"{p}.proj_b")
            fore = _dense(_dense(z, params, f"{p}.head_f"), params,
                          f"{p}.proj_f")
            back_sum = back_sum + back
            fore_sum = fore_sum + fore
            block_in = block_in - back
        pad = np.zeros(back_sum.shape[:-1] + (t - back_sum.shape[-1],))
        prev_in, prev_back = x_in, np.concatenate([pad, back_sum], axis=-1)
        stacks.append(fore_sum)
    return sum(stacks[1:], stacks[0]), stacks


def persistence(x, horizon):
    """Repeat the last observed value of each window over the horizon."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    return np.repeat(x[:, -1:], horizon, axis=1)


def mse_loss(x, y, params, cfg):
    pred, _ = forward(x, params, cfg)
    return float(np.mean((pred - np.atleast_2d(y)) ** 2))


def finite_difference_errors(x, y, params, cfg, grads, coords, eps=1e-6):
    """Central differences of the reference MSE at each (name, flat index)
    coordinate; returns [(name, index, tape gradient, finite difference)].
    """
    rows = []
    for name, idx in coords:
        flat = params[name].reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + eps
        plus = mse_loss(x, y, params, cfg)
        flat[idx] = orig - eps
        minus = mse_loss(x, y, params, cfg)
        flat[idx] = orig
        rows.append((name, idx, float(grads[name].reshape(-1)[idx]),
                     (plus - minus) / (2.0 * eps)))
    return rows


def windows(series, lookback, horizon, stride):
    """Every (input, target) pair whose input starts at a multiple of
    `stride`, as two arrays [N, T] and [N, H]."""
    starts = range(0, len(series) - lookback - horizon + 1, stride)
    xs = np.array([series[s:s + lookback] for s in starts])
    ys = np.array([series[s + lookback:s + lookback + horizon]
                   for s in starts])
    return xs, ys


def read_checkpoint(path):
    """Parse the plain-text checkpoint: `key value` header lines, then a
    `tensor <name> <d0,d1,...>` line followed by one line of the tensor's
    values.  Returns (header dict, {name: array})."""
    header, params = {}, {}
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if parts[0] != "tensor":
                header[parts[0]] = " ".join(parts[1:])
                continue
            name = parts[1]
            shape = tuple(int(d) for d in parts[2].split(",")) \
                if len(parts) > 2 else ()
            values = np.array(fh.readline().split(), dtype=np.float64)
            params[name] = values.reshape(shape)
    return header, params


def read_series_csv(path):
    """Second column of a `t,value` CSV with a header row."""
    with open(path) as fh:
        next(fh)
        return np.array([float(line.split(",")[1]) for line in fh])


def read_metrics_csv(path):
    """{(scale, model): (mse, mae)} from an eval metrics table."""
    rows = {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            scale, label, m, a = line.strip().split(",")
            rows[(scale, label)] = (float(m), float(a))
    return rows


def write_series_csv(path, series):
    with open(path, "w") as fh:
        fh.write("t,value\n")
        fh.writelines(f"{t},{float(v)!r}\n" for t, v in enumerate(series))
