import numpy as np
import pytest

from wavestack import autodiff as ad
from wavestack import model as md
from wavestack.autodiff import Tape


def _detached_forward(x, params, cfg):
    """The plain doubly-residual stack written out from its parts, with no
    wavelet decomposition and no blend: what the model must reduce to at
    alpha = 0.  Returns (global forecast, per-stack forecasts, per-stack
    backcasts padded to the lookback)."""
    tape = Tape()
    leaves = md.make_leaves(params, tape)
    residual = tape.tensor(np.asarray(x, dtype=np.float64))
    total, forecasts, backcasts = None, [], []
    for i in range(1, cfg.n_stacks + 1):
        x_conv = md.stack_conv(i, residual, cfg, leaves, tape)
        backcast, forecast = md.stack_forward(i, x_conv, cfg, leaves, tape)
        backcast = ad.pad_left(backcast,
                               cfg.lookback - backcast.value.shape[-1], tape)
        total = forecast.value if total is None else total + forecast.value
        forecasts.append(forecast.value)
        backcasts.append(backcast.value)
        residual = ad.sub(residual, backcast, tape)
    return total, forecasts, backcasts


@pytest.fixture
def detached_forward():
    return _detached_forward
