"""The benchmark under `bench/` patches library functions by name and
edits forecast bundles; a refactor that renames what it relies on must
fail here, not only when the benchmark runs."""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from wavestack import cli, dataio
from wavestack import model as md
from wavestack import training as tr
from wavestack.autodiff import Tape

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for owner, attr, layer in _load_bench("tracing")._WRAPPED:
        assert callable(getattr(owner, attr, None)), (attr, layer)


def test_forecast_bundle_keeps_forecast_node():
    # the benchmark keeps bundles as replace(bundle, forecast_node=None)
    fields = {f.name for f in dataclasses.fields(md.ForecastBundle)}
    assert "forecast_node" in fields


def test_tracer_counts_every_evaluated_window():
    # an inference path that bound model_forward privately would read 0 here
    cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=1, lookback=16,
                         horizon=4, hidden_depth=1, hidden_width=4,
                         conv_variant="none")
    windows = tr.make_windows(np.sin(np.arange(40) / 3.0), 16, 4, stride=3)
    params = md.init_params(cfg)
    with _load_bench("tracing").Tracer() as tracer:
        tr.evaluate(windows, params, cfg)
    # one forward pass per chunk of windows: 7 windows make one chunk
    assert len(windows) == 7 <= tr.FORECAST_CHUNK
    assert tracer.calls["model.forward"] == 1
    assert tracer.evaluated_windows == len(windows)


def test_tracer_counts_cli_config_load(tmp_path):
    # the benchmark times config loading by wrapping cli.load_run_config, so
    # cli.main must look the name up in its module on every call
    cfg = tmp_path / "run.cfg"
    cfg.write_text("synthetic.length = 64\n")
    with _load_bench("tracing").Tracer() as tracer:
        assert cli.main(["decompose", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 0
    assert tracer.calls["config.load_run_config"] == 1


def test_workloads_take_window_sets(tmp_path, monkeypatch):
    # bench/workload.py builds window sets with make_windows, slices them
    # into positional WindowSets, counts, evaluates and forecasts them;
    # it imports its sibling modules by bare name
    monkeypatch.syspath_prepend(str(BENCH))
    added = {"workload", "reference", "tracing"} - set(sys.modules)
    try:
        workload = importlib.import_module("workload")
        for name in workload.WORKLOADS:
            w = workload.setup(name, 0, tmp_path / name)
            part = workload._slice(w.train_windows, 0, 1)
            assert len(part) == 1 < len(w.train_windows)
            metrics = tr.evaluate(w.eval_sets[0], w.params, w.model)
            assert np.isfinite([metrics["mse"], metrics["mae"]]).all()
            bundle = md.model_forward(w.forecast_inputs[0], w.params,
                                      w.model, Tape())
            assert bundle.global_forecast.shape == (w.model.horizon,)
    finally:
        for module in added:
            sys.modules.pop(module, None)


def test_forward_calls_by_position():
    # bench/workload.py calls both forward entry points positionally
    cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=1, lookback=16,
                         horizon=4, hidden_depth=1, hidden_width=4,
                         conv_variant="none")
    params = md.init_params(cfg)
    x, y = np.ones((3, 16)), np.zeros((3, 4))
    bundle = md.model_forward(x, params, cfg, Tape())
    assert bundle.global_forecast.shape == (3, 4)
    tape = Tape()
    loss, leaves = md.forward_loss(x, y, params, cfg, tape)
    tape.backward(loss)
    assert set(leaves) == set(params)


def test_tracer_counts_one_adam_step_per_minibatch():
    # training.adam_step.ms_per_call is a time per optimizer step only
    # while train makes one adam_step call, by module attribute, per batch
    cfg = md.ModelConfig(n_stacks=2, blocks_per_stack=1, lookback=16,
                         horizon=4, hidden_depth=1, hidden_width=4,
                         conv_variant="none")
    windows = tr.make_windows(np.sin(np.arange(60) / 3.0), 16, 4, stride=2)
    tcfg = tr.TrainConfig(epochs=3, batch_size=4, patience=3)
    with _load_bench("tracing").Tracer() as tracer:
        result = tr.train(cfg, windows, windows, tcfg)
    batches = -(-len(windows) // tcfg.batch_size)
    assert len(windows) % tcfg.batch_size != 0  # a short last batch too
    assert tracer.calls["training.adam_step"] == \
        tracer.calls["training.batch_grads"] == \
        batches * len(result.history)


def test_reference_readers_read_what_the_cli_writes(tmp_path):
    # the benchmark checks CLI output with its own readers; a change to
    # the checkpoint or CSV format must fail here, not only in the bench
    ref = _load_bench("reference")
    series = dataio.multi_frequency_benchmark(length=200, noise_level=0.05,
                                              seed=3)
    data = tmp_path / "series.csv"
    ref.write_series_csv(data, series)
    assert dataio.load_csv(data, "value").tobytes() == series.tobytes()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model.n_stacks = 2\nmodel.blocks_per_stack = 1\n"
        "model.lookback = 16\nmodel.horizon = 4\nmodel.hidden_depth = 1\n"
        "model.hidden_width = 4\nmodel.conv_variant = \"dcn\"\n"
        "model.dilations = [1, 2]\ntrain.epochs = 1\nstride = 4\n"
        f"data = \"{data}\"\n")
    ckpt = tmp_path / "train" / "checkpoint.txt"
    assert cli.main(["train", "--config", str(cfg),
                     "--out", str(tmp_path / "train")]) == 0
    assert cli.main(["forecast", "--config", str(cfg), "--checkpoint",
                     str(ckpt), "--out", str(tmp_path / "fc")]) == 0
    params, header = tr.load_checkpoint(ckpt)
    ref_header, ref_params = ref.read_checkpoint(ckpt)
    assert ref_header == header
    assert list(ref_params) == list(params)
    for name, arr in params.items():
        assert ref_params[name].shape == arr.shape, name
        assert ref_params[name].tobytes() == arr.tobytes(), name
    csvs = sorted((tmp_path / "fc").glob("*.csv"))
    assert len(csvs) == 7  # global, and forecast/backcast/infused per stack
    for path in csvs:
        assert ref.read_series_csv(path).tobytes() == \
            dataio.load_csv(path, "value").tobytes(), path.name
