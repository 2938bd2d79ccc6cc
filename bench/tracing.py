"""Per-layer timing from outside the program.

Each public function is replaced, for the length of a traced pass, by a
wrapper that counts its calls and adds up their wall time.  A wrapper
goes on the name its callers look the function up by (`model.py` calls
`mdwd` through its own module globals, so the wrapper sits on
`wavestack.model.mdwd`).  Wrapped times include their callees.  Tape size
is read from `Tape.nodes` when `backward` starts and after
`model_forward` returns.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from wavestack import autodiff, cli, dataio, model, training

# (owner, attribute, layer name)
_WRAPPED = (
    (model, "mdwd", "wavelet.mdwd"),
    (autodiff.Tape, "backward", "autodiff.backward"),
    (autodiff, "affine", "autodiff.affine"),
    (autodiff, "dilated_conv1d", "autodiff.dilated_conv1d"),
    (model, "model_forward", "model.forward"),
    (model, "forward_loss", "model.forward"),
    (model, "stack_conv", "model.stack_conv"),
    (model, "block_forward", "model.block_forward"),
    (training, "_batch_grads", "training.batch_grads"),
    (training, "adam_step", "training.adam_step"),
    (training, "evaluate", "training.evaluate"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (dataio, "save_csv", "dataio.save_csv"),
    (cli, "load_run_config", "config.load_run_config"),
)

# The layers only the CLI calls: reading and writing files.
FILE_LAYERS = {"training.save_checkpoint", "training.load_checkpoint",
               "dataio.save_csv", "config.load_run_config"}

# Per-layer metrics: (name, layer, unit).  A `count` metric is the number
# of calls; a time is the mean per call, in seconds or milliseconds.
METRICS = (
    ("wavelet.mdwd.calls", "wavelet.mdwd", "count"),
    ("wavelet.mdwd.ms_per_call", "wavelet.mdwd", "ms"),
    ("autodiff.backward.calls", "autodiff.backward", "count"),
    ("autodiff.backward.ms_per_call", "autodiff.backward", "ms"),
    ("autodiff.affine.calls", "autodiff.affine", "count"),
    ("autodiff.affine.ms_per_call", "autodiff.affine", "ms"),
    ("autodiff.dilated_conv1d.ms_per_call", "autodiff.dilated_conv1d", "ms"),
    ("model.forward.calls", "model.forward", "count"),
    ("model.forward.ms_per_call", "model.forward", "ms"),
    ("model.stack_conv.ms_per_call", "model.stack_conv", "ms"),
    ("model.block_forward.ms_per_call", "model.block_forward", "ms"),
    ("training.batch_grads.ms_per_call", "training.batch_grads", "ms"),
    ("training.adam_step.calls", "training.adam_step", "count"),
    ("training.adam_step.ms_per_call", "training.adam_step", "ms"),
    ("training.save_checkpoint.s", "training.save_checkpoint", "s"),
    ("training.load_checkpoint.s", "training.load_checkpoint", "s"),
    ("dataio.save_csv.ms_per_call", "dataio.save_csv", "ms"),
    ("config.load_run_config.ms", "config.load_run_config", "ms"),
)


class Tracer:
    """Counts and times calls into the wrapped functions while installed."""

    def __init__(self):
        self.calls = Counter()
        self.seconds = Counter()
        self.evaluated_windows = 0
        self.tapes = 0
        self.tape_nodes = 0
        self.only_files = False
        self.frozen = None  # (calls, tapes, tape nodes) at freeze_counts
        self._originals = []

    def _wrap(self, owner, attr, layer):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.only_files and layer not in FILE_LAYERS:
                return original(*args, **kwargs)
            if layer == "autodiff.backward":
                tracer.tapes += 1
                tracer.tape_nodes += len(args[0].nodes)
            elif layer == "training.evaluate":
                tracer.evaluated_windows += len(args[0])
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.seconds[layer] += time.perf_counter() - start
                tracer.calls[layer] += 1
                if attr == "model_forward":
                    tape = args[3] if len(args) > 3 else kwargs["tape"]
                    tracer.tapes += 1
                    tracer.tape_nodes += len(tape.nodes)

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def files_only(self):
        """Count only the FILE_LAYERS while inside."""
        self.only_files = True
        try:
            yield
        finally:
            self.only_files = False

    def freeze_counts(self):
        """Keep the counts made so far as the ones to report, so that the
        counts cover the same work on every run, however many rounds the
        run makes."""
        self.frozen = (Counter(self.calls), self.tapes, self.tape_nodes)

    def __enter__(self):
        for owner, attr, layer in _WRAPPED:
            self._wrap(owner, attr, layer)
        return self

    def __exit__(self, *exc):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        """Every per-layer metric; a layer that was never called reads 0.
        Times are over every traced call; counts are the frozen ones."""
        counts, tapes, tape_nodes = self.frozen or (
            self.calls, self.tapes, self.tape_nodes)
        out = {}
        for name, layer, unit in METRICS:
            calls = self.calls[layer]
            per_call = self.seconds[layer] / calls if calls else 0.0
            value = {"count": counts[layer], "s": per_call,
                     "ms": 1e3 * per_call}[unit]
            out[name] = {"value": value, "unit": unit}
        windows = self.evaluated_windows
        out["training.evaluate.ms_per_window"] = {
            "value": 1e3 * self.seconds["training.evaluate"] / windows
            if windows else 0.0, "unit": "ms"}
        out["autodiff.tape_nodes_per_window"] = {
            "value": tape_nodes / tapes if tapes else 0.0, "unit": "count"}
        return out

