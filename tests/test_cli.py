import contextlib
import csv
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import typing
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavestack import cli, config as cfgmod, dataio, errors
from wavestack import ensemble as ens, training as tr
from wavestack.errors import ConfigError
from wavestack.model import CONV_VARIANTS

ROOT = Path(__file__).resolve().parents[1]

TINY_CONFIG = """
# fast synthetic run
model.n_stacks = 2
model.blocks_per_stack = 1
model.alpha = 0.4
model.lookback = 16
model.horizon = 4
model.hidden_depth = 1
model.hidden_width = 4
model.conv_variant = "none"
model.dropout_rate = 0.0
train.learning_rate = 0.003
train.epochs = 2
train.batch_size = 16
stride = 4
synthetic.length = 480
synthetic.noise = 0.02
"""


def with_entries(*entries):
    """TINY_CONFIG with each `key = value` entry set, replacing its line."""
    keys = {entry.split("=")[0].strip() for entry in entries}
    kept = [line for line in TINY_CONFIG.splitlines()
            if line.split("=")[0].strip() not in keys]
    return "\n".join(kept + list(entries)) + "\n"


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return path


class TestConfigParsing:
    def test_key_value_types(self):
        entries = cfgmod.parse_config_text(
            'a = 3\nb = 0.5\nc = "text"\nd = [1, 2]\ne = true\nf = null\n')
        assert entries == {"a": 3, "b": 0.5, "c": "text", "d": [1, 2],
                           "e": True, "f": None}

    def test_comments_and_blank_lines(self):
        entries = cfgmod.parse_config_text("# header\n\na = 1  # trailing\n")
        assert entries == {"a": 1}

    def test_bare_string_fallback(self):
        assert cfgmod.parse_config_text("kind = haar\n") == {"kind": "haar"}

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_config_text("a = 1\na = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            cfgmod.parse_config_text("just a line\n")


# values every one of which loads, in any combination
VALID_ENTRIES = {
    "model.n_stacks": st.integers(2, 4),
    "model.alpha": st.floats(0.0, 1.0) | st.sampled_from([0, 1]),
    "model.lookback": st.integers(64, 720),
    "model.horizon": st.integers(1, 48),
    "model.hidden_width": st.integers(1, 64),
    "model.conv_variant": st.sampled_from(CONV_VARIANTS),
    "model.wavelet_kind": st.sampled_from(["haar", "db2", "sym4"]),
    "model.theta_forecast_dim": st.none() | st.integers(1, 32),
    "model.dropout_rate": st.floats(0.0, 0.9) | st.just(0),
    "model.freeze_conv": st.booleans(),
    "train.learning_rate": st.floats(1e-6, 1.0),
    "train.epochs": st.integers(1, 500),
    "train.grad_clip": st.none() | st.floats(1e-3, 1e3) | st.integers(1, 9),
    "ensemble.aggregation": st.sampled_from(["median", "mean"]),
    "ensemble.bootstrap": st.booleans(),
    "data": st.none() | st.text("abc/._", min_size=1, max_size=8),
    "stride": st.integers(1, 8),
    "standardize": st.booleans(),
    "synthetic.noise": st.floats(0.0, 1.0) | st.just(0),
    "decompose.levels": st.none() | st.integers(1, 6),
    "ablate.alpha_grid": st.lists(st.floats(0.0, 1.0) | st.just(1),
                                  max_size=4),
    "ablate.conv_grid": st.lists(st.sampled_from(CONV_VARIANTS),
                                 max_size=3),
}


class TestRunConfig:
    def test_defaults_applied(self):
        run = cfgmod.load_run_config(text="")
        assert run["stride"] == 1
        assert run["standardize"] is True
        assert run.model.n_stacks == 4
        assert run.train.epochs == 100
        assert run.ensemble.size == 5

    def test_section_values(self):
        run = cfgmod.load_run_config(
            text="model.n_stacks = 3\ntrain.epochs = 7\nensemble.size = 2\n")
        assert run.model.n_stacks == 3
        assert run.train.epochs == 7
        assert run.ensemble.size == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            cfgmod.load_run_config(text="model.n_stack = 3\n")
        with pytest.raises(ConfigError):
            cfgmod.load_run_config(text="mystery = 1\n")

    def test_invalid_value_becomes_config_error(self):
        with pytest.raises(ConfigError):
            cfgmod.load_run_config(text="model.alpha = 2.0\n")

    def test_unsupported_spec_version(self):
        with pytest.raises(ConfigError):
            cfgmod.load_run_config(text="spec_version = 99\n")

    def test_split_fractions_must_sum(self):
        with pytest.raises(ConfigError):
            cfgmod.load_run_config(text="split.train = 0.9\n")

    def test_decompose_defaults_follow_model(self):
        run = cfgmod.load_run_config(
            text='model.n_stacks = 4\nmodel.wavelet_kind = "db2"\n')
        assert run["decompose.levels"] == 3
        assert run["decompose.kind"] == "db2"

    def test_top_level_int_for_float_and_null_default(self):
        run = cfgmod.load_run_config(text=with_entries(
            "synthetic.noise = 0", "data = null", "decompose.levels = null"))
        assert run["synthetic.noise"] == 0
        assert run["data"] is None
        assert run["decompose.levels"] == 1

    def test_resolved_round_trip(self):
        run = cfgmod.load_run_config(text=TINY_CONFIG)
        resolved = cfgmod.resolved_config_text(run)
        again = cfgmod.load_run_config(text=resolved)
        assert cfgmod.resolved_config_text(again) == resolved

    @settings(max_examples=60, deadline=None)
    @given(st.fixed_dictionaries({}, optional=VALID_ENTRIES))
    def test_resolved_round_trip_property(self, entries):
        run = cfgmod.load_run_config(text="".join(
            f"{key} = {json.dumps(value)}\n"
            for key, value in entries.items()))
        resolved = cfgmod.resolved_config_text(run)
        again = cfgmod.load_run_config(text=resolved)
        assert again == run
        assert cfgmod.resolved_config_text(again) == resolved

    def test_int_for_float_is_float(self):
        run = cfgmod.load_run_config(text=with_entries(
            "model.dropout_rate = 0", "ablate.alpha_grid = [0, 1]"))
        assert type(run.model.dropout_rate) is float
        assert [type(a) for a in run["ablate.alpha_grid"]] == [float, float]


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["decompose", "--config",
                         str(tmp_path / "absent.cfg")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery = 1\n")
        assert cli.main(["train", "--config", str(bad)]) == 2

    def test_partition_too_short(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(TINY_CONFIG + "synthetic.length = 60\n")
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("entry", [
        'stride = "x"',  # int
        "stride = 2.5",
        'split.train = "a"',  # float
        "standardize = 1",  # bool
        "value_column = 3",  # str
        "ablate.alpha_grid = 0.4",  # list
        "synthetic.length = true",  # a bool is not a number
        "split.val = false",
        "stride = null",  # null only where the default is None
        'synthetic.length = "480"',
        'ablate.alpha_grid = ["x"]',  # each element is checked
        "synthetic.noise = Infinity",  # a float must be finite
    ])
    def test_mistyped_top_level_key(self, entry, tmp_path, capsys):
        cfg = tmp_path / "typed.cfg"
        cfg.write_text(with_entries(entry))
        with pytest.raises(ConfigError, match=entry.split(" ")[0]):
            cfgmod.load_run_config(cfg)
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("entries", [
        pytest.param(("model.blocks_per_stack = 0",), id="no_blocks"),
        pytest.param(("model.hidden_depth = 0",), id="no_trunk"),
        pytest.param(("model.horizon = 0",), id="no_horizon"),
        pytest.param(("model.lookback = 0", "model.n_stacks = 1",
                      "model.alpha = 0.0"), id="no_lookback"),
        pytest.param(('model.conv_variant = "avgpool"',
                      "model.kernel_sizes = [0, 0]"), id="pool_kernel_0"),
        pytest.param(('model.conv_variant = "dcn"',
                      "model.dilations = [1, 0]"), id="dilation_0"),
        pytest.param(("model.dropout_rate = 1.0",), id="dropout_1"),
        pytest.param(("model.dropout_rate = -0.1",), id="dropout_negative"),
        # receptive field 8 * (1 + 2 + 4) > lookback 16
        pytest.param(('model.conv_variant = "dcn"',
                      "model.kernel_sizes = [9, 9]"), id="dcn_too_wide"),
        pytest.param(('model.conv_variant = "maxpool"',
                      "model.kernel_sizes = [17, 17]"), id="pool_too_wide"),
        pytest.param(("model.hidden_width = 0",), id="no_width"),
        pytest.param(("model.theta_backcast_dim = -1",), id="theta_b_neg"),
        pytest.param(("model.theta_forecast_dim = 0",), id="theta_f_0"),
    ])
    def test_unbuildable_model(self, entries, tmp_path, capsys):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(with_entries(*entries))
        with pytest.raises(ConfigError):
            cfgmod.load_run_config(cfg)
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("entries", [
        pytest.param(("model.lookback = 16.5",), id="lookback_float"),
        pytest.param(("train.epochs = 1.5",), id="epochs_float"),
        pytest.param(('model.conv_variant = "dcn"',
                      "model.dilations = [1, 1.5]"), id="dilation_float"),
        pytest.param(("train.epochs = 0",), id="no_epochs"),
        pytest.param(("model.alpha = true",), id="alpha_bool"),
        pytest.param(("train.grad_clip = -1",), id="grad_clip_negative"),
        pytest.param(("train.adam_beta1 = 1.0",), id="adam_beta1_1"),
        pytest.param(("train.adam_beta2 = 1.0",), id="adam_beta2_1"),
        pytest.param(("train.adam_beta1 = -0.5",), id="adam_beta1_negative"),
        pytest.param(("train.adam_eps = 0.0",), id="adam_eps_0"),
        pytest.param(("train.adam_eps = -1.0",), id="adam_eps_negative"),
        pytest.param(("ablate.repetitions = 0",), id="no_repetitions"),
        pytest.param(("stride = 0",), id="stride_0"),
        pytest.param(("train.batch_size = 0",), id="batch_size_0"),
        pytest.param(("synthetic.length = 0",), id="synthetic_length_0"),
        pytest.param(("decompose.levels = 0",), id="levels_0"),
        pytest.param(('decompose.kind = "foo"',), id="kind_unknown"),
        pytest.param(("train.learning_rate = NaN",), id="nan"),
        pytest.param(("ablate.alpha_grid = [0.4, 1.5]",),
                     id="alpha_grid_above_1"),
        pytest.param(("ablate.alpha_grid = [-0.1]",), id="alpha_grid_neg"),
        pytest.param(("ablate.stacks_grid = [2, 0]",), id="stacks_grid_0"),
        pytest.param(("ablate.ensemble_grid = [0]",), id="ensemble_grid_0"),
        pytest.param(("ablate.noise_grid = [-0.1]",), id="noise_grid_neg"),
        pytest.param(('ablate.conv_grid = ["dcn", "conv"]',),
                     id="conv_grid_unknown"),
        pytest.param(("model.seed = -1",), id="model_seed_negative"),
        pytest.param(("train.seed = -1",), id="train_seed_negative"),
        pytest.param(("ensemble.base_seed = -1",),
                     id="ensemble_seed_negative"),
        pytest.param(("synthetic.seed = -1",), id="synthetic_seed_negative"),
    ])
    def test_config_fault(self, entries, tmp_path, capsys):
        cfg = tmp_path / "fault.cfg"
        cfg.write_text(with_entries(*entries))
        with pytest.raises(ConfigError):
            cfgmod.load_run_config(cfg)
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_negative_seed_is_a_usage_error(self, tiny_config, capsys,
                                            tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(tiny_config), "--seed", "-1",
                      "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "argument --seed: must be at least 0, got -1" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("fault", ["data_dir", "checkpoint_dir",
                                       "constant_series", "huge_field"])
    def test_input_fault(self, fault, tiny_config, tmp_path, capsys):
        cfg, argv = tiny_config, ["train"]
        if fault == "checkpoint_dir":
            argv = ["forecast", "--checkpoint", str(tmp_path)]
        else:
            data = tmp_path
            if fault == "constant_series":
                data = tmp_path / "flat.csv"
                data.write_text("t,value\n" + "".join(
                    f"{t},1.5\n" for t in range(200)))
            elif fault == "huge_field":  # over the csv module's field limit
                data = tmp_path / "huge.csv"
                data.write_text("t,value\n0," + "1" * 200_000 + "\n")
            cfg = tmp_path / "data.cfg"
            cfg.write_text(with_entries(f"data = {json.dumps(str(data))}"))
        assert cli.main(argv + ["--config", str(cfg),
                                "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if fault == "huge_field":
            assert str(data) in err

    @pytest.mark.parametrize("char", ["\n", "\r"])
    def test_line_break_in_message_is_escaped(self, char, tmp_path, capsys):
        data = tmp_path / f"header{char}only.csv"
        data.write_text("t,value\n")
        cfg = tmp_path / "data.cfg"
        cfg.write_text(with_entries(f"data = {json.dumps(str(data))}"))
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        escaped = str(data).replace(char, {"\n": r"\n", "\r": r"\r"}[char])
        err = capsys.readouterr().err
        assert err == f"error: no data rows in {escaped}\n", err
        # a message without a line break keeps its bytes
        assert errors.describe(ValueError("a, b\\n\t")) == "a, b\\n\t"

    def test_every_key_is_type_checked(self):
        def mistyped(kind):
            if typing.get_origin(kind) is typing.Union:  # Optional[X]
                kind = typing.get_args(kind)[0]
            if typing.get_origin(kind) in (list, tuple):
                return [mistyped(typing.get_args(kind)[0])]
            return {int: 1.5, float: True, str: 3, bool: 1}[kind]

        for key, (kind, _) in cfgmod._SCHEMA.items():
            text = f"{key} = {json.dumps(mistyped(kind))}\n"
            with pytest.raises(ConfigError, match=re.escape(key)):
                cfgmod.load_run_config(text=text)

    EXIT_CODES = {
        "WavestackError": 3, "InvalidInput": 2, "SeriesTooShort": 2,
        "NonFiniteInput": 3, "ResolutionTooFine": 3, "ShapeMismatch": 3,
        "InputTooShort": 3, "NonFiniteGradient": 3, "NonFiniteLoss": 3,
        "MissingColumn": 2, "MalformedCsv": 2, "NonNumericCell": 2,
        "EmptySeries": 2, "PartitionTooShort": 2, "ZeroVariance": 2,
        "ConfigError": 2, "ConfigMismatch": 2, "CorruptCheckpoint": 2,
    }

    def test_exit_code_table_covers_errors_module(self):
        classes = {name for name, obj in vars(errors).items()
                   if inspect.isclass(obj)
                   and issubclass(obj, errors.WavestackError)}
        assert classes == set(self.EXIT_CODES)

    @pytest.mark.parametrize("exc,code,prefix", [
        *(pytest.param(getattr(errors, name)("boom"), code,
                       "error: " if code == 2 else "runtime error: ", id=name)
          for name, code in sorted(EXIT_CODES.items())),
        pytest.param(OSError("disk full"), 2, "error: ", id="os"),
        pytest.param(UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad byte"),
                     2, "error: ", id="decode"),
        pytest.param(KeyError("s1.b1.W"), 3, "internal error: KeyError: ",
                     id="internal"),
    ])
    def test_exit_code(self, exc, code, prefix, tiny_config, tmp_path,
                       monkeypatch, capsys):
        def failing(run, out):
            raise exc

        monkeypatch.setattr(cli, "cmd_train", failing)
        assert cli.main(["train", "--config", str(tiny_config),
                         "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1, err

    @pytest.mark.parametrize("make,code", [
        *(pytest.param(partial(getattr(errors, name), "boom"), code, id=name)
          for name, code in sorted(EXIT_CODES.items())),
        pytest.param(partial(UnicodeDecodeError, "utf-8", b"\xff", 0, 1,
                             "bad byte"), 2, id="decode"),
    ])
    def test_ensemble_member_failure_keeps_class(
            self, make, code, tiny_config, tmp_path, monkeypatch, capsys):
        # the member's own exception comes out, whatever its constructor
        # takes, and the one-line message names the member's seed
        def failing(*args, **kwargs):
            raise make()

        def train_two_members(run, out):
            windows = tr.make_windows(np.arange(40.0), 16, 4)
            ens.train_ensemble(run.model, windows, windows, run.train,
                               ens.EnsembleConfig(size=2, base_seed=9))

        monkeypatch.setattr(tr, "train", failing)
        with pytest.raises(Exception) as info:
            train_two_members(cfgmod.load_run_config(tiny_config), tmp_path)
        assert type(info.value) is type(make())
        assert str(info.value) == str(make())
        monkeypatch.setattr(cli, "cmd_train", train_two_members)
        assert cli.main(["train", "--config", str(tiny_config),
                         "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.endswith(f"{make()}; in ensemble member with seed 9\n")
        assert err.count("\n") == 1, err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_runtime_error_is_three(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(TINY_CONFIG.replace(
            "train.learning_rate = 0.003", "train.learning_rate = 1e30") +
            "train.grad_clip = null\n")
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3
        assert "runtime error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_finite_validation_loss_is_three(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(with_entries(
            "model.hidden_depth = 2", "train.learning_rate = 1e200",
            "train.epochs = 1", "train.batch_size = 128",
            "train.grad_clip = null", "synthetic.length = 200"))
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "runtime error: no finite validation loss after 1 epoch(s)\n")

    def test_diverging_run_writes_one_line_to_stderr(self, tmp_path):
        # in a process of its own, so that numpy's warnings reach stderr
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(with_entries(
            "model.hidden_depth = 2", "train.learning_rate = 1e200",
            "train.epochs = 1", "train.batch_size = 128",
            "train.grad_clip = null", "synthetic.length = 200"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                                   if p]))
        done = subprocess.run(
            [sys.executable, "-m", "wavestack.cli", "train", "--config",
             str(cfg), "--out", str(tmp_path / "o")], env=env,
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 3
        assert done.stderr == (
            "runtime error: no finite validation loss after 1 epoch(s)\n")


# every key outside ablate.*, each set alone in TINY_CONFIG to one of these
FUZZ_KEYS = sorted(key for key in cfgmod._SCHEMA
                   if not key.startswith("ablate."))
EDGE_VALUES = [0, 1, -1, 64, 1e-300, 1e300, 0.999, 1.5, "", "unknown", [],
               [0], [1], [3, 2], None, True]


def _run_quietly(argv):
    """`cli.main`'s exit code and stderr text; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


class TestExitCodeFuzz:
    """The exit-code contract over the config schema's keys."""

    @settings(max_examples=1000, deadline=None, derandomize=True,
              database=None)
    @given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(EDGE_VALUES))
    def test_edge_values_keep_exit_code_contract(self, key, value):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(with_entries(f"{key} = {json.dumps(value)}"))
            results = {}
            for command in ("train", "decompose"):
                code, err = results[command] = _run_quietly(
                    [command, "--config", str(cfg),
                     "--out", str(Path(tmp) / command)])
                assert code in (0, 2, 3), (command, err)
                if code:
                    assert err.endswith("\n") and err.count("\n") == 1, err
                assert "internal error:" not in err
            # a fault every ablation cell would hit ends the grid before
            # it runs, as it ends `train`
            if results["train"][0] == 2:
                out = Path(tmp) / "ablate"
                assert _run_quietly(
                    ["ablate", "--config", str(cfg), "--axis", "alpha",
                     "--out", str(out)]) == results["train"]
                assert not (out / "ablation_alpha.csv").exists()


class TestDecompose:
    def test_outputs_and_reconstruction(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "dec"
        assert cli.main(["decompose", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        assert (out / "resolved_config.txt").exists()
        approx = dataio.load_csv(out / "synthetic.L1.approx.csv", "value")
        detail = dataio.load_csv(out / "synthetic.L1.detail.csv", "value")
        series = dataio.multi_frequency_benchmark(length=480,
                                                  noise_level=0.02, seed=0)
        np.testing.assert_allclose(approx + detail, series, atol=1e-8)
        assert float((out / "recon_error.txt").read_text()) < 1e-8


class TestTrainForecastEval:
    def test_full_pipeline(self, tiny_config, tmp_path):
        out = tmp_path / "run1"
        assert cli.main(["train", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        ckpt = out / "checkpoint.txt"
        assert ckpt.exists()
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,lr,train_loss,val_loss"
        assert len(history) == 3  # header + 2 epochs

        fc_out = tmp_path / "fc"
        assert cli.main(["forecast", "--config", str(tiny_config),
                         "--out", str(fc_out),
                         "--checkpoint", str(ckpt)]) == 0
        total = dataio.load_csv(fc_out / "global.csv", "value")
        parts = [dataio.load_csv(fc_out / f"stack{i}.forecast.csv", "value")
                 for i in (1, 2)]
        np.testing.assert_array_equal(parts[0] + parts[1], total)

        ev_out = tmp_path / "ev"
        assert cli.main(["eval", "--config", str(tiny_config),
                         "--out", str(ev_out), "--checkpoint", str(ckpt),
                         "--baseline"]) == 0
        lines = (ev_out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "scale,model,mse,mae"
        labels = {line.split(",")[1] for line in lines[1:]}
        assert labels == {"model", "persistence"}

    def test_checkpoint_config_mismatch(self, tiny_config, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        other = tmp_path / "other.cfg"
        other.write_text(TINY_CONFIG.replace("model.hidden_width = 4",
                                             "model.hidden_width = 8"))
        assert cli.main(["forecast", "--config", str(other),
                         "--out", str(tmp_path / "fc"),
                         "--checkpoint", str(out / "checkpoint.txt")]) == 2

    def test_int_and_float_spellings_share_a_checkpoint(self, tmp_path):
        # equal configs must hash equally, however a float is spelled
        out = tmp_path / "run"
        int_cfg, float_cfg = tmp_path / "int.cfg", tmp_path / "float.cfg"
        int_cfg.write_text(with_entries("model.dropout_rate = 0"))
        float_cfg.write_text(with_entries("model.dropout_rate = 0.0"))
        assert cli.main(["train", "--config", str(int_cfg),
                         "--out", str(out)]) == 0
        assert cli.main(["forecast", "--config", str(float_cfg),
                         "--out", str(tmp_path / "fc"),
                         "--checkpoint", str(out / "checkpoint.txt")]) == 0

    @pytest.mark.parametrize("damage", ["header_only", "tensor_removed",
                                        "cut_mid_line", "header_key_only"])
    def test_corrupt_checkpoint(self, damage, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        ckpt = out / "checkpoint.txt"
        lines = ckpt.read_text().splitlines()
        if damage == "header_only":  # a tensor line with no values after it
            lines = lines[:5]
        elif damage == "tensor_removed":
            at = lines.index(next(line for line in lines if
                                  line.startswith("tensor s1.b1.proj_f.b ")))
            del lines[at:at + 2]
        elif damage == "cut_mid_line":
            lines[-1] = lines[-1][:len(lines[-1]) // 2]
        else:
            lines[1] = "config_hash"
        ckpt.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["forecast", "--config", str(tiny_config),
                         "--out", str(tmp_path / "fc"),
                         "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(ckpt) in err

    def test_tensor_header_not_starting_with_tensor(self, tiny_config,
                                                    tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.txt"
        ckpt.write_text("tensor w 2\n1.0 2.0\nbogus b 1\n3.0\n")
        capsys.readouterr()
        assert cli.main(["forecast", "--config", str(tiny_config),
                         "--out", str(tmp_path / "fc"),
                         "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{ckpt}: line 3: " in err, err

    def test_seed_override_changes_result(self, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["train", "--config", str(tiny_config),
                         "--out", str(a), "--seed", "1"]) == 0
        assert cli.main(["train", "--config", str(tiny_config),
                         "--out", str(b), "--seed", "2"]) == 0
        assert (a / "checkpoint.txt").read_bytes() != \
            (b / "checkpoint.txt").read_bytes()


class TestDeterminism:
    def test_byte_identical_reruns(self, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["train", "--config", str(tiny_config),
                             "--out", str(out), "--seed", "3"]) == 0
        for name in ("checkpoint.txt", "history.csv",
                     "resolved_config.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestAblate:
    def test_alpha_axis(self, tmp_path):
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(TINY_CONFIG +
                       "ablate.alpha_grid = [0.0, 0.4]\n"
                       "ablate.repetitions = 1\n")
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(cfg), "--axis", "alpha",
                         "--out", str(out)]) == 0
        lines = (out / "ablation_alpha.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("0.0,1,")
        assert lines[2].startswith("0.4,1,")

    def test_parallel_matches_serial_with_failed_cell(self, tmp_path):
        # 9 stacks need 8 wavelet levels, more than lookback 16 allows
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(TINY_CONFIG + "ablate.stacks_grid = [2, 9]\n"
                       "ablate.repetitions = 1\n")
        csvs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main(["ablate", "--config", str(cfg), "--axis",
                             "stacks", "--jobs", jobs, "--out", str(out)]) == 0
            csvs.append((out / "ablation_stacks.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert b"\n9,0,,,,,ValueError: lookback too short" in csvs[0]

    def test_failure_with_comma_keeps_seven_fields(self, tmp_path,
                                                   monkeypatch):
        def failing(task):
            raise errors.PartitionTooShort("val partition, cut\r\nshort")

        monkeypatch.setattr(cli, "_run_cell", failing)
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(TINY_CONFIG + "ablate.alpha_grid = [0.0, 0.4]\n"
                       "ablate.repetitions = 2\n")
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(cfg), "--axis", "alpha",
                         "--out", str(out)]) == 0
        with open(out / "ablation_alpha.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        message = "PartitionTooShort: val partition, cut\\r\\nshort"
        assert rows[1:] == [[value, "0", "", "", "", "",
                             f"{message};{message}"]
                            for value in ("0.0", "0.4")]
        assert all(len(row) == 7 for row in rows)

    @pytest.mark.parametrize("axis", cli.ABLATION_AXES)
    def test_input_fault_of_every_cell_exits_two(self, axis, tmp_path,
                                                 capsys):
        # a val partition of 12 points is too short for a 16+4 window
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(with_entries("synthetic.length = 128"))
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(cfg), "--axis", axis,
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: val partition has 12 points, needs 20\n")
        assert not list(out.iterdir())

    def test_unknown_axis_rejected(self, tiny_config, capsys):
        with pytest.raises(SystemExit):
            cli.main(["ablate", "--config", str(tiny_config),
                      "--axis", "bogus"])

    def test_jobs_capped_at_cell_count(self, tmp_path, monkeypatch):
        # a pool forks all its workers up front: never more than the cells
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        csvs = []
        for grid, jobs in (("[0.0, 0.4]", "64"), ("[0.0, 0.4]", "1"),
                           ("[0.4]", "64")):
            cfg = tmp_path / "ab.cfg"
            cfg.write_text(TINY_CONFIG + f"ablate.alpha_grid = {grid}\n"
                           "ablate.repetitions = 1\n")
            out = tmp_path / f"ab{len(csvs)}"
            assert cli.main(["ablate", "--config", str(cfg), "--axis",
                             "alpha", "--jobs", jobs, "--out", str(out)]) == 0
            csvs.append((out / "ablation_alpha.csv").read_bytes())
        assert pools == [2]  # one cell runs in this process
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, tiny_config, capsys,
                                             tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ablate", "--config", str(tiny_config), "--axis",
                      "alpha", "--jobs", jobs, "--out", str(tmp_path / "ab")])
        assert exc.value.code == 2
        assert f"argument --jobs: must be at least 1, got {jobs}" in \
            capsys.readouterr().err
        assert not (tmp_path / "ab").exists()

    @pytest.mark.parametrize("command", ["decompose", "train", "forecast",
                                         "eval"])
    def test_jobs_only_on_ablate(self, command, tiny_config, capsys):
        checkpoint = ["--checkpoint", "c.txt"] if command in (
            "forecast", "eval") else []
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(tiny_config), *checkpoint,
                      "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
