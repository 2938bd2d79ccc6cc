import contextlib
import csv
import gc
import inspect
import io
import json
import math
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
from wavestack import ensemble as ens, model as md, training as tr
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


def subprocess_env(**extra):
    """os.environ with the source tree first on PYTHONPATH, and `extra`."""
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")]
                               if p]))


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
                                  min_size=1, max_size=4),
    "ablate.conv_grid": st.lists(st.sampled_from(CONV_VARIANTS),
                                 min_size=1, max_size=3),
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
        pytest.param(("train.decay_slope = -0.1",), id="decay_slope_negative"),
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
        pytest.param(("split.train = -0.5", "split.val = 0.5",
                      "split.test = 1.0"), id="split_train_negative"),
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

    @pytest.mark.parametrize("key", ["model.seed", "train.seed",
                                     "ensemble.base_seed"])
    def test_section_fault_names_its_section(self, key, tmp_path, capsys):
        cfg = tmp_path / "fault.cfg"
        cfg.write_text(with_entries(f"{key} = -1"))
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2
        head, name = key.split(".")
        assert capsys.readouterr().err == \
            f"error: {head}: {name} must be >= 0\n"

    def test_negative_seed_is_a_usage_error(self, tiny_config, capsys,
                                            tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(tiny_config), "--seed", "-1",
                      "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "argument --seed: must be at least 0, got -1" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    # a 400-row sin(t / 3) series with one value replaced: (row index,
    # value, extra config entries, the one stderr line)
    SPIKES = {
        "overflowing_standardized": (
            390, 1.7e308, (),
            "error: test partition row 391 is not finite once standardized\n"),
        "square_overflows_standardized": (
            300, 1e300, (),
            "error: val partition row 301 overflows when squared once "
            "standardized\n"),
        "square_overflows_unscaled": (
            390, 1e300, ("standardize = false",),
            "error: test partition row 391 overflows when squared\n"),
    }

    @pytest.mark.parametrize("fault", ["data_dir", "checkpoint_dir",
                                       "constant_series", "huge_field",
                                       "overflowing_scale", *SPIKES])
    def test_input_fault(self, fault, tiny_config, tmp_path, capsys):
        cfg, argv, entries = tiny_config, ["train"], ()
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
            elif fault == "overflowing_scale":  # finite, but its sums are not
                data = tmp_path / "huge_values.csv"
                data.write_text("t,value\n" + "".join(
                    f"{t},{(-1) ** t * 1e308 + math.sin(t)!r}\n"
                    for t in range(400)))
            elif fault in self.SPIKES:
                row, value, entries, _ = self.SPIKES[fault]
                data = tmp_path / "spike.csv"
                data.write_text("t,value\n" + "".join(
                    f"{t},{value if t == row else math.sin(t / 3)!r}\n"
                    for t in range(400)))
            cfg = tmp_path / "data.cfg"
            cfg.write_text(with_entries(f"data = {json.dumps(str(data))}",
                                        *entries))
        assert cli.main(argv + ["--config", str(cfg),
                                "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        if fault == "huge_field":
            assert str(data) in err
        if fault == "overflowing_scale":
            assert "train partition" in err
        if fault in self.SPIKES:
            assert err == self.SPIKES[fault][3]
            # every cell would read the value: ablate exits 2 before any runs
            out = tmp_path / "ab"
            assert cli.main(["ablate", "--config", str(cfg), "--axis",
                             "alpha", "--out", str(out)]) == 2
            assert capsys.readouterr().err == err
            assert not list(out.iterdir())

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

    def test_readme_exit_two_row_names_every_invalid_input(self):
        readme = Path(__file__).parents[1] / "README.md"
        rows = [line.split("|") for line in readme.read_text().splitlines()
                if line.startswith("| 2 |") and "`InvalidInput`" in line]
        assert len(rows) == 1, rows
        named = set(re.findall(r"`(\w+)`", rows[0][3]))
        subclasses = {name for name, obj in vars(errors).items()
                      if inspect.isclass(obj)
                      and issubclass(obj, errors.InvalidInput)}
        assert named == subclasses

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
        done = subprocess.run(
            [sys.executable, "-m", "wavestack.cli", "train", "--config",
             str(cfg), "--out", str(tmp_path / "o")], env=subprocess_env(),
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 3
        assert done.stderr == (
            "runtime error: no finite validation loss after 1 epoch(s)\n")


# every key, each set alone in TINY_CONFIG to one of these
FUZZ_KEYS = sorted(cfgmod._SCHEMA)
AXIS_OF_GRID = {key: axis for axis, key in cli.ABLATION_AXES.items()}
EDGE_VALUES = [0, 1, -1, 64, 1e-300, 1e300, 0.999, 1.5, "", "unknown", [],
               [0], [1], [3, 2], None, True]


def _run_quietly(argv):
    """`cli.main`'s exit code and stderr text; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _assert_contract(code, err):
    """Exit 0, 2 or 3; a failure is one stderr line, and not a bug's."""
    assert code in (0, 2, 3), err
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, err
    assert "internal error:" not in err


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
                results[command] = _run_quietly(
                    [command, "--config", str(cfg),
                     "--out", str(Path(tmp) / command)])
                _assert_contract(*results[command])
            # a grid runs on its own axis; a fault every ablation cell
            # would hit ends the grid before it runs, as it ends `train`
            axis = AXIS_OF_GRID.get(key, "alpha")
            if key in AXIS_OF_GRID or results["train"][0] == 2:
                out = Path(tmp) / "ablate"
                result = _run_quietly(
                    ["ablate", "--config", str(cfg), "--axis", axis,
                     "--out", str(out)])
                _assert_contract(*result)
                if results["train"][0] == 2:
                    assert result == results["train"]
                    assert not (out / f"ablation_{axis}.csv").exists()


# a domain of values for each `_SCHEMA` key, for sweeps that set several
# keys at once: edge values of the key's type, and for some keys the
# values a run would set
_BY_TYPE = {int: [0, 1, 2, -1], bool: [True, False],
            float: [0.0, 0.05, 0.4, 1.0, 1.5, -0.1, 1e-300]}
MULTI_KEY_DOMAINS = {
    **{key: _BY_TYPE.get(kind, []) for key, (kind, _) in
       cfgmod._SCHEMA.items()},
    "spec_version": [1, 2],
    "data": [None, "", "missing.csv"],
    "value_column": ["value", "", "other"],
    "stride": [0, 1, 4],
    "synthetic.length": [0, 64, 128, 480, 960],
    "decompose.levels": [None, 0, 1, 3, 9],
    "decompose.kind": [None, "haar", "db2", "sym4", "unknown"],
    "ablate.alpha_grid": [[], [0.0], [0.4, 1.0], [-0.1], [1.5]],
    "ablate.stacks_grid": [[], [0], [1], [2, 3], [2, 9], [6]],
    "ablate.conv_grid": [[], ["dcn"], ["none", "maxpool"],
                         ["cnn", "avgpool"], ["unknown"]],
    "ablate.ensemble_grid": [[], [0], [1], [1, 2]],
    "ablate.noise_grid": [[], [0.0], [0.05, 1.0], [-0.1]],
    "model.n_stacks": [0, 1, 2, 3, 6],
    "model.lookback": [0, 4, 8, 16, 32],
    "model.horizon": [0, 1, 4, 16],
    "model.conv_variant": [*CONV_VARIANTS, "unknown"],
    "model.kernel_sizes": [None, [], [3], [3, 3], [2, 3], [9, 9], [0, 0]],
    "model.dilations": [[], [0], [1], [1, 2, 4]],
    "model.wavelet_kind": ["haar", "db2", "sym4", "unknown"],
    "model.theta_backcast_dim": [None, 0, 1, 8],
    "model.theta_forecast_dim": [None, 0, 1, 8],
    "train.learning_rate": [0.0, 1e-300, 0.003, 1.0, 1e300],
    "train.grad_clip": [None, 0.0, 1e-300, 1.0],
    "train.loss": ["mse", "mae"],
    "ensemble.aggregation": ["mean", "median", "mode"],
}
MULTI_KEY_ENTRIES = st.lists(
    st.sampled_from(sorted(MULTI_KEY_DOMAINS)), min_size=2, max_size=5,
    unique=True).flatmap(lambda keys: st.tuples(*(
        st.sampled_from(MULTI_KEY_DOMAINS[key]).map(
            lambda value, key=key: f"{key} = {json.dumps(value)}")
        for key in keys)))


def _assert_every_command_keeps_contract(cfg, tmp, axis):
    """Run `decompose`, `train`, `forecast` and `eval --baseline` on the
    trained checkpoint, and `ablate` on `axis`, under `tmp`: each exits 0,
    2 or 3, and a failure is one stderr line with its code's prefix."""
    checkpoint = ["--checkpoint", str(tmp / "train" / "checkpoint.txt")]
    for command in (["decompose"], ["train"], ["forecast", *checkpoint],
                    ["eval", "--baseline", *checkpoint],
                    ["ablate", "--axis", axis]):
        code, err = _run_quietly([*command, "--config", str(cfg),
                                  "--out", str(tmp / command[0])])
        assert code in (0, 2, 3), (command, err)
        if code:
            assert err.endswith("\n") and err.count("\n") == 1, \
                (command, err)
            assert err.startswith(
                "error: " if code == 2 else "runtime error: "), \
                (command, err)


class TestMultiKeyFuzz:
    """The exit-code contract over 2-5 keys set at once, for every
    command."""

    def test_every_key_has_a_domain(self):
        assert all(MULTI_KEY_DOMAINS.values())
        assert set(MULTI_KEY_DOMAINS) == set(cfgmod._SCHEMA)

    @settings(max_examples=20, deadline=None, derandomize=True,
              database=None)
    @given(entries=MULTI_KEY_ENTRIES,
           axis=st.sampled_from(list(cli.ABLATION_AXES)))
    def test_key_combinations_keep_exit_code_contract(self, entries, axis):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(with_entries(*entries))
            _assert_every_command_keeps_contract(cfg, Path(tmp), axis)


# the rows of each partition of a 400-row series at the default split
PARTITION_ROWS = {"train": (0, 280), "val": (280, 320), "test": (320, 400)}
# magnitudes from the subnormal 1e-310 to 1e308, on both sides of the
# bound a square overflows at (about 1.34e154)
MAGNITUDES = st.sampled_from([1e-310, 1e-300, 1e-200, 1e-154, 1e-20, 1.0,
                              1e20, 1e154, 1e155, 1e200, 1e300, 1e308])


class TestSeriesFuzz:
    """The exit-code contract over the values in the series: every
    command on a 400-row sin(t / 3) at a drawn magnitude, with a constant
    run (of length 0 to the whole series) and then one spike of either
    sign and any magnitude in a drawn partition (or none), standardized
    or not."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(magnitude=MAGNITUDES,
           run=st.tuples(st.integers(0, 399), st.integers(0, 400)),
           spike=st.tuples(st.sampled_from([None, *PARTITION_ROWS]),
                           st.floats(0.0, 1.0), st.sampled_from([1.0, -1.0]),
                           MAGNITUDES),
           standardize=st.booleans())
    def test_series_keep_exit_code_contract(self, magnitude, run, spike,
                                            standardize):
        series = magnitude * np.sin(np.arange(400) / 3)
        start, length = run
        series[start:start + length] = series[start]
        partition, where, sign, size = spike
        if partition:
            low, high = PARTITION_ROWS[partition]
            series[low + int(where * (high - low - 1))] = sign * size
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "series.csv"
            dataio.save_csv(data, series)
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text(with_entries(
                f"data = {json.dumps(str(data))}",
                f"standardize = {json.dumps(standardize)}"))
            _assert_every_command_keeps_contract(cfg, Path(tmp), "alpha")


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

    def test_warm_calls_leave_no_cyclic_garbage(self, tiny_config,
                                                tmp_path):
        """`main` builds its parser once per process, so warm `train`,
        `forecast` and `eval` calls leave nothing for the cycle collector;
        a parser built per call left about 245 objects each."""
        ckpt = str(tmp_path / "train" / "checkpoint.txt")
        calls = [["train", "--out", str(tmp_path / "train")],
                 ["forecast", "--checkpoint", ckpt,
                  "--out", str(tmp_path / "fc")],
                 ["eval", "--checkpoint", ckpt, "--baseline",
                  "--out", str(tmp_path / "ev")]]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in calls:
                assert cli.main(argv + ["--config", str(tiny_config)]) == 0
            gc.collect()
            gc.disable()
            try:
                for argv in calls:
                    assert cli.main(
                        argv + ["--config", str(tiny_config)]) == 0
                assert gc.collect() == 0
            finally:
                gc.enable()

    @pytest.mark.parametrize("standardize", [True, False])
    def test_persistence_baseline_repeats_last_input(self, standardize,
                                                     tmp_path):
        # `eval --baseline` scores each test window's last input value,
        # repeated over the horizon, on the scaled and the original series
        cfg = tmp_path / "run.cfg"
        cfg.write_text(with_entries(f"standardize = {json.dumps(standardize)}"))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert cli.main(["eval", "--config", str(cfg), "--out", str(out),
                         "--checkpoint", str(out / "checkpoint.txt"),
                         "--baseline"]) == 0
        rows = [line.split(",") for line in
                (out / "metrics.csv").read_text().splitlines()[1:]]
        got = {row[0]: row[2:] for row in rows if row[1] == "persistence"}

        series = dataio.multi_frequency_benchmark(length=480,
                                                  noise_level=0.02, seed=0)
        mean, std = float(np.mean(series[:336])), float(np.std(series[:336]))
        test = (series - mean) / std if standardize else series
        test = test[384:]  # after 70% train and 10% val of 480 points
        starts = range(0, len(test) - 20 + 1, 4)  # lookback 16, horizon 4
        x = np.array([test[o:o + 16] for o in starts])
        y = np.array([test[o + 16:o + 20] for o in starts])
        pred = np.repeat(x[:, -1:], 4, axis=1)
        scales = {"standardized": (pred, y)}
        if standardize:
            scales["original"] = (pred * std + mean, y * std + mean)
        expected = {
            scale: [repr(float(np.mean(np.mean((p - t) ** 2, axis=-1)))),
                    repr(float(np.mean(np.mean(np.abs(p - t), axis=-1))))]
            for scale, (p, t) in scales.items()}
        assert got == expected

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
                                        "tensor_repeated", "cut_mid_line",
                                        "header_key_only", "format_version",
                                        "negative_shape", "size_wraps",
                                        "too_big"])
    def test_corrupt_checkpoint(self, damage, tiny_config, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(tiny_config),
                         "--out", str(out)]) == 0
        ckpt = out / "checkpoint.txt"
        lines = ckpt.read_text().splitlines()
        # the first tensor's shape, values and error, for the shape
        # damages: the shape's product is 1, 2**64 (0 in int64) and 0
        shapes = {
            "negative_shape": ("-1,-1", "1.0",
                               "negative dimension in shape (-1, -1)"),
            "size_wraps": ("4294967296,4294967296", "",
                           "0 values for shape (4294967296, 4294967296)"),
            "too_big": ("0,4294967296,4294967296", "", "array is too big")}
        first = lines[4].split(" ")[1]
        if damage in shapes:
            shape, values, _ = shapes[damage]
            lines[4:6] = [f"tensor {first} {shape}", values]
        elif damage == "header_only":  # a tensor line with no values after it
            lines = lines[:5]
        elif damage == "tensor_removed":
            at = lines.index(next(line for line in lines if
                                  line.startswith("tensor s1.b1.proj_f.b ")))
            del lines[at:at + 2]
        elif damage == "tensor_repeated":  # names and shapes still match
            lines += ["tensor s1.b1.proj_f.b 4", "9.0 9.0 9.0 9.0"]
        elif damage == "cut_mid_line":
            lines[-1] = lines[-1][:len(lines[-1]) // 2]
        elif damage == "format_version":
            lines[0] = "format_version 2"
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
        if damage == "tensor_repeated":
            assert err.endswith(f": line {len(lines) - 1}: tensor "
                                f"s1.b1.proj_f.b is listed twice\n"), err
        if damage in shapes:
            assert f": tensor {first}: {shapes[damage][2]}" in err, err
        if damage == "format_version":
            assert err.endswith(": format_version '2' is not 1\n"), err

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


# the benchmark config (lookback 64, horizon 16, 3 stacks, dcn), as the
# benchmark's CLI round trip runs it
BENCH_CONFIG = """
model.n_stacks = 3
model.blocks_per_stack = 2
model.alpha = 0.4
model.lookback = 64
model.horizon = 16
model.hidden_depth = 2
model.hidden_width = 8
model.conv_variant = "dcn"
model.kernel_sizes = [5, 3, 3]
train.learning_rate = 0.003
train.epochs = 1
train.batch_size = 32
train.patience = 2
split.train = 0.5
split.val = 0.25
split.test = 0.25
stride = 8
"""


class TestDeterminism:
    def test_benchmark_config_files_identical_at_one_and_two_blas_threads(
            self, tmp_path):
        # the thread count is read when numpy loads, so each run is a
        # process of its own
        data = tmp_path / "series.csv"
        dataio.save_csv(data, dataio.multi_frequency_benchmark(
            length=960, noise_level=0.05, seed=2))
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(BENCH_CONFIG + f"data = {json.dumps(str(data))}\n")
        files = []
        for threads in ("1", "2"):
            base = tmp_path / f"threads{threads}"
            checkpoint = str(base / "train" / "checkpoint.txt")
            for name, argv in (
                    ("train", ["train"]),
                    ("forecast", ["forecast", "--checkpoint", checkpoint]),
                    ("eval", ["eval", "--checkpoint", checkpoint,
                              "--baseline"])):
                done = subprocess.run(
                    [sys.executable, "-m", "wavestack.cli", *argv,
                     "--config", str(cfg), "--seed", "1",
                     "--out", str(base / name)],
                    env=subprocess_env(OPENBLAS_NUM_THREADS=threads),
                    capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, done.stderr
            files.append({str(p.relative_to(base)): p.read_bytes()
                          for p in sorted(base.rglob("*")) if p.is_file()})
        assert len(files[0]) == 16
        assert files[0].keys() == files[1].keys()
        assert [name for name in files[0]
                if files[0][name] != files[1][name]] == []

    def test_paper_shape_forecast_identical_across_processes(self,
                                                              tmp_path):
        # lookback 720 at the default widths: proj_b is about 700 x 700,
        # a product whose bits depend on the BLAS thread count, which
        # both processes share; the checkpoint is the untrained model
        cfg = tmp_path / "paper.cfg"
        cfg.write_text("model.n_stacks = 2\nmodel.blocks_per_stack = 1\n"
                       "synthetic.length = 2400\nsplit.train = 0.34\n"
                       "split.val = 0.33\nsplit.test = 0.33\n")
        model_cfg = cfgmod.load_run_config(cfg).model
        checkpoint = tmp_path / "checkpoint.txt"
        tr.save_checkpoint(checkpoint, md.init_params(model_cfg), model_cfg)
        files = []
        for run in ("a", "b"):
            out = tmp_path / run
            done = subprocess.run(
                [sys.executable, "-m", "wavestack.cli", "forecast",
                 "--config", str(cfg), "--checkpoint", str(checkpoint),
                 "--out", str(out)],
                env=subprocess_env(OPENBLAS_NUM_THREADS="2"),
                capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            files.append({p.name: p.read_bytes()
                          for p in sorted(out.glob("*.csv"))})
        assert len(files[0]) == 7
        assert files[0] == files[1]

    def test_byte_identical_reruns(self, tiny_config, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["train", "--config", str(tiny_config),
                             "--out", str(out), "--seed", "3"]) == 0
        for name in ("checkpoint.txt", "history.csv",
                     "resolved_config.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_train_seed_unread_without_shuffle_or_dropout(self, tmp_path):
        # train.seed draws only the batch order and the dropout masks, so
        # with neither it changes no byte; with shuffling it does
        ckpts = {}
        for shuffle in ("false", "true"):
            for seed in (1, 2):
                cfg = tmp_path / f"{shuffle}{seed}.cfg"
                cfg.write_text(with_entries(f"train.shuffle = {shuffle}",
                                            f"train.seed = {seed}"))
                out = tmp_path / f"{shuffle}{seed}"
                assert cli.main(["train", "--config", str(cfg),
                                 "--out", str(out)]) == 0
                ckpts[shuffle, seed] = (out / "checkpoint.txt").read_bytes()
        assert ckpts["false", 1] == ckpts["false", 2]
        assert ckpts["true", 1] != ckpts["true", 2]

    def test_bootstrap_ensemble_ablation_reruns_byte_identically(
            self, tmp_path):
        csvs = []
        for run, bootstrap in enumerate(("true", "true", "false")):
            cfg = tmp_path / f"{run}.cfg"
            cfg.write_text(with_entries(
                "model.seed = 7", f"ensemble.bootstrap = {bootstrap}",
                "ablate.ensemble_grid = [2]", "ablate.repetitions = 1"))
            out = tmp_path / f"{run}"
            assert cli.main(["ablate", "--config", str(cfg), "--axis",
                             "ensemble_size", "--out", str(out)]) == 0
            csvs.append((out / "ablation_ensemble_size.csv").read_bytes())
        assert csvs[0] == csvs[1]
        rows = [text.splitlines() for text in csvs[1:]]
        assert len(rows[0]) == len(rows[1]) == 2
        assert rows[0][0] == rows[1][0] and rows[0][1] != rows[1][1]


def test_cli_import_leaves_process_pool_unloaded():
    # only `ablate --jobs N` with more than one worker needs the pool
    pool_modules = ("multiprocessing", "concurrent.futures.process",
                    "socket", "subprocess")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, wavestack.cli; print(sorted("
         f"m for m in {pool_modules!r} if m in sys.modules))"],
        env=subprocess_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


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

    @pytest.mark.parametrize("axis", ["alpha", "noise"])
    def test_cell_is_the_run_seed_makes(self, axis, tmp_path):
        # repetition r of a cell trains what `train --seed model.seed +
        # 101 r` trains; a noise cell also raises synthetic.seed by r
        entries = ["model.seed = 5", "ablate.repetitions = 2",
                   "ablate.alpha_grid = [0.4]", "ablate.noise_grid = [0.02]"]
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(with_entries(*entries, "synthetic.seed = 2"))
        assert cli.main(["ablate", "--config", str(cfg), "--axis", axis,
                         "--out", str(tmp_path / "ab")]) == 0
        with open(tmp_path / "ab" / f"ablation_{axis}.csv") as fh:
            row, = csv.DictReader(fh)
        scores = []
        for r in range(2):
            cfg = tmp_path / f"{r}.cfg"
            seed = 2 + r if axis == "noise" else 2
            cfg.write_text(with_entries(*entries, f"synthetic.seed = {seed}"))
            out = tmp_path / f"r{r}"
            common = ["--config", str(cfg), "--seed", str(5 + 101 * r),
                      "--out", str(out)]
            assert cli.main(["train", *common]) == 0
            assert cli.main(["eval", *common, "--checkpoint",
                             str(out / "checkpoint.txt")]) == 0
            with open(out / "metrics.csv") as fh:
                scores.append(next(
                    (float(m["mse"]), float(m["mae"]))
                    for m in csv.DictReader(fh)
                    if (m["scale"], m["model"]) == ("standardized", "model")))
        mse, mae = (repr(float(np.mean(s))) for s in zip(*scores))
        assert (row["repetitions"], row["mse_mean"], row["mae_mean"]) == \
            ("2", mse, mae)

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

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("axis, entries, message", [
        pytest.param("stacks", ["ablate.stacks_grid = [1]"],
                     "wavelet infusion requires at least 2 stacks",
                     id="one_stack_with_infusion"),
        # receptive field 8 * (1 + 2 + 4) > lookback 16
        pytest.param("conv", ['ablate.conv_grid = ["dcn"]',
                              "model.kernel_sizes = [9, 9]"],
                     "stack 1: conv variant dcn consumes the whole lookback "
                     "window", id="dcn_too_wide"),
    ])
    def test_grid_of_unbuildable_models_exits_two(
            self, axis, entries, message, jobs, tmp_path, capsys):
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(with_entries(*entries))
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(cfg), "--axis", axis,
                         "--jobs", jobs, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cli.ABLATION_AXES[axis]}: {message}\n")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("axis", cli.ABLATION_AXES)
    def test_empty_grid_exits_two(self, axis, tmp_path, capsys):
        # `data` names a missing file, which no command reaches: the
        # config check ends both before any input is read
        key = cli.ABLATION_AXES[axis]
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(with_entries(f"{key} = []", 'data = "missing.csv"'))
        for command in (["train"], ["ablate", "--axis", axis]):
            assert cli.main([*command, "--config", str(cfg),
                             "--out", str(tmp_path / command[0])]) == 2
            assert capsys.readouterr().err == (
                f"error: {key} must hold at least one value\n")
        assert not list(tmp_path.rglob("*.csv"))

    def test_std_over_repetitions_is_ddof_zero(self, tmp_path,
                                               monkeypatch):
        # mse_std and mae_std are the population std (np.std, ddof 0) of
        # a cell's repetitions
        scores = {0: (1.0, 2.0), 1: (3.0, 6.0)}
        monkeypatch.setattr(cli, "_run_cell", lambda task: scores[task[3]])
        cfg = tmp_path / "ab.cfg"
        cfg.write_text(with_entries("ablate.alpha_grid = [0.4]",
                                    "ablate.repetitions = 2"))
        out = tmp_path / "ab"
        assert cli.main(["ablate", "--config", str(cfg), "--axis", "alpha",
                         "--out", str(out)]) == 0
        lines = (out / "ablation_alpha.csv").read_text().splitlines()
        assert lines[1] == "0.4,2,2.0,1.0,4.0,2.0,"

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

        # cmd_ablate imports the pool class when it needs one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            RecordingPool)
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
