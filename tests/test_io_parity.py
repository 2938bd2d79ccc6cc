"""Checkpoint and CSV I/O against test-local copies of the line-at-a-time
code they replaced (`ref_*` below): the same bytes written, and the same
bits or the same error read, on valid and damaged files alike.  The v1
fixture under `data/v1` was written by that code."""

import csv
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wavestack import cli, dataio, model as md, training as tr
from wavestack.config import load_run_config
from wavestack.errors import (
    ConfigMismatch,
    CorruptCheckpoint,
    EmptySeries,
    MalformedCsv,
    MissingColumn,
    NonNumericCell,
)

FIXTURE = Path(__file__).resolve().parent / "data" / "v1"

TINY = md.ModelConfig(n_stacks=2, blocks_per_stack=1, lookback=8, horizon=2,
                      hidden_depth=1, hidden_width=2, conv_variant="cnn",
                      kernel_sizes=(3, 3), dilations=(1,), dropout_rate=0.0)


# --- the replaced code, kept as the reference ---------------------------

def ref_save_checkpoint(path, params, model_cfg, epoch=-1,
                        val_loss=float("nan")):
    lines = [f"format_version {tr.CHECKPOINT_FORMAT_VERSION}",
             f"config_hash {tr.config_hash(model_cfg)}",
             f"epoch {epoch}",
             f"val_loss {val_loss!r}"]
    for name in sorted(params):
        arr = params[name]
        shape = ",".join(str(s) for s in arr.shape)
        lines.append(f"tensor {name} {shape}")
        lines.append(" ".join(repr(float(v)) for v in arr.reshape(-1)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_load_checkpoint(path, model_cfg=None):
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
        if len(fields) != 3 or fields[0] != "tensor" or \
                i + 1 == len(lines):
            raise CorruptCheckpoint(
                f"{path}: line {i + 1}: expected 'tensor NAME SHAPE' "
                f"followed by a value line")
        _, name, shape_s = fields
        if name in params:
            raise CorruptCheckpoint(
                f"{path}: line {i + 1}: tensor {name} is listed twice")
        try:
            shape = tuple(int(s) for s in shape_s.split(",") if s)
            values = np.array([float(v) for v in lines[i + 1].split()])
            if any(d < 0 for d in shape):
                raise ValueError(f"negative dimension in shape {shape}")
            if values.size != math.prod(shape):
                raise ValueError(f"{values.size} values for shape {shape}")
            params[name] = values.reshape(shape)
        except ValueError as exc:
            raise CorruptCheckpoint(
                f"{path}: tensor {name}: {exc}") from None
        i += 2
    if header.get("format_version") != "1":
        raise CorruptCheckpoint(f"{path}: format_version "
                                f"{header.get('format_version')!r} is not 1")
    if model_cfg is not None:
        if header.get("config_hash") != tr.config_hash(model_cfg):
            raise ConfigMismatch(
                "checkpoint was produced by a different model configuration")
        expected = {k: v.shape for k, v in md.init_params(model_cfg).items()}
        if {k: v.shape for k, v in params.items()} != expected:
            raise CorruptCheckpoint(
                f"{path}: tensor names or shapes differ from the model's")
    return params, header


def ref_load_csv(path, value_column):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        values = []
        try:
            if reader.fieldnames is None or \
                    value_column not in reader.fieldnames:
                raise MissingColumn(
                    f"column {value_column!r} not found in {path}")
            for row_no, row in enumerate(reader, start=1):
                cell = row[value_column]
                try:
                    value = float(cell)
                except (TypeError, ValueError):
                    raise NonNumericCell(row_no) from None
                if not np.isfinite(value):
                    raise NonNumericCell(row_no,
                                         f"non-finite value at row {row_no}")
                values.append(value)
        except csv.Error as exc:
            raise MalformedCsv(
                f"{path}: line {reader.reader.line_num}: {exc}") from None
    if not values:
        raise EmptySeries(f"no data rows in {path}")
    return np.array(values, dtype=np.float64)


def ref_save_csv(path, series, value_column="value"):
    series = np.asarray(series, dtype=np.float64)
    with open(path, "w") as fh:
        fh.write(f"t,{value_column}\n")
        for t, v in enumerate(series):
            fh.write(f"{t},{float(v)!r}\n")


# --- helpers --------------------------------------------------------------

def bits(arr):
    return arr.shape, np.ascontiguousarray(arr, dtype="<f8").tobytes()


def outcome(read, *args):
    """What a reader gives: the bits it read, or its error and message."""
    try:
        result = read(*args)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return bits(result)
    params, header = result
    return header, {name: bits(arr) for name, arr in params.items()}


# Values on both sides of repr's switches to exponent notation (below
# 1e-4, from 1e16), signed zero, the subnormal range and the extremes.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
         2.2250738585072014e-308, 1e-5, 9.999999999999999e-06, 1e-4,
         9.999999999999999e-05, 1e16, 9999999999999998.0, 1e17,
         1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
         float("inf"), float("-inf"), float("nan")]
values_st = st.one_of(st.sampled_from(EDGES), st.floats(width=64),
                      st.floats(width=32))
names_st = st.text("abcs0123456789._-", min_size=1, max_size=8)


@st.composite
def tensors(draw):
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    flat = draw(st.lists(values_st, min_size=int(np.prod(shape)),
                         max_size=int(np.prod(shape))))
    dtype = draw(st.sampled_from([np.float64, np.float64, np.float32]))
    with np.errstate(over="ignore"):
        return np.array(flat, dtype=np.float64).astype(dtype).reshape(shape)


# --- checkpoints ----------------------------------------------------------

class TestCheckpointWriter:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(params=st.dictionaries(names_st, tensors(), max_size=6),
           epoch=st.integers(-1, 10 ** 6), val_loss=values_st)
    @example(params={"w": np.array(EDGES)}, epoch=3, val_loss=-0.0)
    @example(params={"int": np.arange(-3, 4), "0d": np.array(2.5)},
             epoch=-1, val_loss=float("nan"))
    def test_same_bytes(self, tmp_path, params, epoch, val_loss):
        new, ref = tmp_path / "new.txt", tmp_path / "ref.txt"
        tr.save_checkpoint(new, params, TINY, epoch, val_loss)
        ref_save_checkpoint(ref, params, TINY, epoch, val_loss)
        assert new.read_bytes() == ref.read_bytes()


def _valid_text(tmp_path, params):
    path = tmp_path / "valid.txt"
    ref_save_checkpoint(path, params, TINY, epoch=2, val_loss=0.5)
    return path.read_text()


# What damage inserts: the separators splitlines() breaks at and file
# iteration does not (\x0b, \x0c, \x1c-\x1e, \x85, \u2028, \u2029),
# newlines of each kind, whitespace that split() takes, and text that
# float() and int() accept or reject, or that numpy's C parse reads
# otherwise than float() does.
INSERTS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
           "\u2029", "\n", "\r", "\r\n", "\n\n", " ", "  ", "\t", "\xa0",
           "x", "e", "-", "_", ",", "1", "0x1", "nan", "inf", "1_0",
           "\u0663", "-nan", "NaN", "nan(1)", "Infinity", "1e5.5",
           "tensor ", "tensor a 2\n", "key value\n"]
damage_st = st.lists(
    st.tuples(st.floats(0.0, 1.0),
              st.sampled_from(["insert", "delete", "truncate"]),
              st.sampled_from(INSERTS), st.integers(1, 40)),
    min_size=1, max_size=4)


def _damage(text, steps):
    for where, op, piece, span in steps:
        at = int(where * len(text))
        if op == "insert":
            text = text[:at] + piece + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + span:]
        else:
            text = text[:at]
    return text


class TestCheckpointReader:
    BASE = md.init_params(replace(TINY, seed=4))

    def _check(self, tmp_path, data):
        path = tmp_path / "ckpt.txt"
        path.write_bytes(data)
        for cfg in (None, TINY):
            assert outcome(tr.load_checkpoint, path, cfg) == \
                outcome(ref_load_checkpoint, path, cfg)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=damage_st)
    @example(steps=[(0.5, "insert", "\x0c", 1)])
    @example(steps=[(0.9, "insert", "\x1c", 1)])
    @example(steps=[(0.3, "insert", "\x85", 1)])
    @example(steps=[(0.0, "insert", "\u2028", 1)])
    @example(steps=[(1.0, "insert", "\x0b", 1)])
    @example(steps=[(0.2, "insert", "\r", 1)])
    @example(steps=[(0.6, "delete", "x", 3)])
    # the last value line, "1.0 0.0 0.0", made "1.0 0.0 -nan": float()
    # keeps the sign bit of -nan
    @example(steps=[(1 - 1e-9, "truncate", "x", 1)] * 4 +
             [(1.0, "insert", "-nan", 1)])
    def test_damaged_text(self, tmp_path, steps):
        text = _valid_text(tmp_path, self.BASE)
        self._check(tmp_path, _damage(text, steps).encode("utf-8"))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(steps=damage_st, bad_at=st.floats(0.0, 1.0),
           bad=st.sampled_from([b"\xff", b"\x85", b"\xc3", b"\xed\xa0\x80"]))
    def test_undecodable_bytes(self, tmp_path, steps, bad_at, bad):
        # a decode error anywhere wins over any earlier damage, with the
        # offset that a whole-file read reports
        text = _valid_text(tmp_path, self.BASE)
        data = _damage(text, steps).encode("utf-8")
        at = int(bad_at * len(data))
        self._check(tmp_path, data[:at] + bad + data[at:])

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(params=st.dictionaries(names_st, tensors(), max_size=5))
    def test_valid_files_same_bits(self, tmp_path, params):
        self._check(tmp_path,
                    _valid_text(tmp_path, params).encode("utf-8"))

    def test_decode_error_after_a_long_prefix(self, tmp_path):
        # beyond the first chunk that line iteration decodes, so the
        # offset a streaming decoder sees differs from the file offset
        text = _valid_text(tmp_path, {"w": np.linspace(-1.0, 1.0, 5000)})
        data = text.encode("utf-8")
        self._check(tmp_path, b"x\n" + data[:-200] + b"\xff" + data[-200:])

    def test_empty_and_header_only(self, tmp_path):
        self._check(tmp_path, b"")
        self._check(tmp_path, b"format_version 1\nepoch 3\n")

    @pytest.mark.parametrize("shape, values", [
        ("-1,-1", "1.0"), ("4294967296,4294967296", ""),
        ("0,4294967296,4294967296", ""),
        ("1", "-nan"), ("2", "1.5 -NaN"), ("1", "nan(1)"), ("1", "Infinity"),
        ("1", "1e5.5"), ("1", "1_0"), ("1", "\u0663"), ("2", "1\x1f2"),
        ("2", "1\xa02"), ("", " "), ("0", "\t"), ("2", " 1 2 ")])
    def test_damaged_shape(self, tmp_path, shape, values):
        # the first tensor's shape and values replaced: a negative shape
        # whose product matches, one whose product wraps to 0 in int64,
        # and one with a zero dimension too big to allocate; then values
        # that numpy's C parse reads otherwise than float() does (the sign
        # of -nan, nan(1), a line of whitespace alone) or rejects, and
        # padded values
        lines = _valid_text(tmp_path, self.BASE).split("\n")
        lines[4:6] = [f"tensor {lines[4].split(' ')[1]} {shape}", values]
        self._check(tmp_path, "\n".join(lines).encode("utf-8"))


# --- CSV ------------------------------------------------------------------

# A field over the csv module's default limit of 131072 characters.
HUGE = "1" * 131073
CELLS = ["1.5", "-2", "1e-300", "nan", "inf", "-inf", "1_0", "abc", "",
         " 3", "0x10", '"4.5"', '" 2.5 "', '"a,b"', '"x""y"', '"open',
         "\x00", HUGE]
HEADERS = ["t", "value", "v", '"value"', "", "value "]
csv_st = st.tuples(
    st.lists(st.sampled_from(HEADERS), min_size=0, max_size=4),
    st.lists(st.one_of(st.just([]),
                       st.lists(st.sampled_from(CELLS), min_size=1,
                                max_size=4)), max_size=6),
    st.sampled_from(["\n", "\r\n", "\r"]))


def _csv_text(header, rows, newline):
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return newline.join(lines) + newline


class TestCsvReader:
    def _check(self, tmp_path, text, column="value"):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(dataio.load_csv, path, column) == \
            outcome(ref_load_csv, path, column)

    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=csv_st, column=st.sampled_from(["value", "t"]))
    # blank lines are skipped and do not count as rows
    @example(case=(["t", "value"], [["0", "1"], [], [], ["1", "x"]], "\n"),
             column="value")
    # a name given twice means its last column
    @example(case=(["value", "t", "value"], [["1", "2", "3"]], "\n"),
             column="value")
    # a short row is a non-numeric cell
    @example(case=(["t", "value"], [["0", "1"], ["1"]], "\n"),
             column="value")
    # quoted cells, nan and inf, underscores, a field over the limit
    @example(case=(["t", "value"], [["0", '"4.5"'], ["1", "1_0"]], "\r\n"),
             column="value")
    @example(case=(["t", "value"], [["0", "nan"]], "\n"), column="value")
    @example(case=(["t", "value"], [[], [], ["0", HUGE]], "\n"),
             column="value")
    # blank lines before a fault: the line a MalformedCsv names
    @example(case=(["t"], [[], ["1.5"], [HUGE]], "\n"), column="t")
    @example(case=(["t"], [["1"], [], [], [HUGE]], "\n"), column="t")
    # two faults: the first in file order wins
    @example(case=(["t", "value"], [["0", "x"], ["1", HUGE]], "\n"),
             column="value")
    @example(case=(["t", "value"], [["0", HUGE], ["1", "x"]], "\n"),
             column="value")
    @example(case=([HUGE, "value"], [["0", "1"]], "\n"), column="value")
    @example(case=([], [["value"], ["1"]], "\n"), column="value")
    def test_same_outcome(self, tmp_path, case, column):
        self._check(tmp_path, _csv_text(*case), column)

    def test_unterminated_quote_and_empty_file(self, tmp_path):
        self._check(tmp_path, 't,value\n0,"1.5\n1,2\n')
        self._check(tmp_path, "")
        self._check(tmp_path, "\n\n")


class TestCsvWriter:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(values_st, max_size=40),
           column=st.sampled_from(["value", "price"]))
    @example(values=EDGES, column="value")
    def test_same_bytes(self, tmp_path, values, column):
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        dataio.save_csv(new, values, column)
        ref_save_csv(ref, values, column)
        assert new.read_bytes() == ref.read_bytes()
        finite = [v for v in values if math.isfinite(v)]
        dataio.save_csv(new, finite, column)
        if finite:
            assert bits(dataio.load_csv(new, column)) == \
                bits(np.array(finite))


# --- the committed v1 fixture ----------------------------------------------

class TestV1Fixture:
    def _model(self):
        return load_run_config(FIXTURE / "run.cfg").model

    def test_reads_to_the_exact_bits(self):
        path = FIXTURE / "checkpoint.txt"
        cfg = self._model()
        assert outcome(tr.load_checkpoint, path, cfg) == \
            outcome(ref_load_checkpoint, path, cfg)
        params, header = tr.load_checkpoint(path, cfg)
        assert header["format_version"] == "1"
        assert {k: v.shape for k, v in params.items()} == \
            md.param_shapes(cfg)
        # every value is the float its token spells
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if line.startswith("tensor "):
                name = line.split(" ")[1]
                want = np.array([float(v) for v in lines[i + 1].split()])
                assert bits(params[name].reshape(-1)) == bits(want)

    def test_rewrite_gives_the_same_bytes(self, tmp_path):
        path = FIXTURE / "checkpoint.txt"
        cfg = self._model()
        params, header = tr.load_checkpoint(path, cfg)
        out = tmp_path / "checkpoint.txt"
        tr.save_checkpoint(out, params, cfg, epoch=int(header["epoch"]),
                           val_loss=float(header["val_loss"]))
        assert out.read_bytes() == path.read_bytes()

    def test_cli_forecast_gives_the_same_csv_bytes(self, tmp_path):
        assert cli.main(["forecast", "--config", str(FIXTURE / "run.cfg"),
                         "--checkpoint", str(FIXTURE / "checkpoint.txt"),
                         "--out", str(tmp_path)]) == 0
        want = sorted((FIXTURE / "forecast").glob("*.csv"))
        assert [p.name for p in want] == \
            sorted(p.name for p in tmp_path.glob("*.csv"))
        for p in want:
            assert (tmp_path / p.name).read_bytes() == p.read_bytes(), p.name
