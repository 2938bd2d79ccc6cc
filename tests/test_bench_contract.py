"""The benchmark under `bench/` patches library functions by name and
edits forecast bundles; a refactor that renames what it relies on must
fail here, not only when the benchmark runs."""

import dataclasses
import importlib.util
from pathlib import Path

from wavestack import model as md

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for owner, attr, layer in _load_tracing()._WRAPPED:
        assert callable(getattr(owner, attr, None)), (attr, layer)


def test_forecast_bundle_keeps_forecast_node():
    # the benchmark keeps bundles as replace(bundle, forecast_node=None)
    fields = {f.name for f in dataclasses.fields(md.ForecastBundle)}
    assert "forecast_node" in fields
