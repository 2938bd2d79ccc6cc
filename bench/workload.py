"""One workload of the wavestack benchmark, run in a process of its own.

`run.py` starts this script; it is not meant to be run by hand.  The
process builds the workload's inputs from the seed (its set-up), then
runs rounds of four phases against the public API:

- train:    `training.train`, one epoch per call, each call continuing
            from the last one's parameters;
- infer:    `training.evaluate` over a set of windows;
- forecast: single-window `model.model_forward` calls;
- cli:      `cli.main` train -> forecast -> eval --baseline, in process.

Every workload runs every phase, so that every end-to-end metric is
measured on every workload; each workload's plan says how many calls of
each phase a round makes, and in how many rounds.  Rounds repeat until
`--seconds` have passed.  The outputs are then checked against
`reference.py`.  The last line of standard output is one JSON object
for `run.py`.

With `--setup-only` the process stops after set-up and reports only the
moment set-up ended and the host's slowdown just after, so `run.py` can
time set-up several times.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import reference as ref
import tracing
from wavestack import cli, dataio, model as md, training as tr
from wavestack.autodiff import Tape

# The benchmark config of the acceptance suite: 20,497 parameters.
BENCH_MODEL = dict(n_stacks=3, blocks_per_stack=2, alpha=0.4, lookback=64,
                   horizon=16, hidden_depth=2, hidden_width=8,
                   conv_variant="dcn", kernel_sizes=(5, 3, 3),
                   dilations=(1, 2, 4), dropout_rate=0.1)

# The CLI round trip runs on the benchmark config, one epoch.
CLI_STRIDE = 8
CLI_CONFIG = """\
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
data = "{data}"
split.train = 0.5
split.val = 0.25
split.test = 0.25
stride = {stride}
"""


@dataclass
class Workload:
    seed: int
    workdir: Path
    min_rounds: int
    # phase -> (calls per round, rounds that run it; None for every round);
    # a forecast "call" is a block of `forecast_block` model_forward calls
    plan: dict
    forecast_block: int  # model_forward calls timed between host-speed probes
    model: md.ModelConfig
    train_windows: tr.WindowSet
    val_windows: tr.WindowSet
    test_windows: tr.WindowSet  # learning checks; train_bench only
    train_cfg: tr.TrainConfig
    eval_sets: list  # window sets for `evaluate`, used in turn
    forecast_inputs: list  # windows for `model_forward`, used in turn
    cli_model: md.ModelConfig  # the model CLI_CONFIG describes
    cli_series: np.ndarray  # the CLI's data, 960 points
    cli_config: Path = None
    params: dict = None  # from init_params; used by infer and forecast
    cli_params: dict = None  # from init_params, for the CLI's model


def _slice(ws, start, stop):
    return tr.WindowSet(ws.inputs[start:stop], ws.targets[start:stop],
                        ws.offsets[start:stop])


def _cli_inputs(seed):
    return dict(cli_model=md.ModelConfig(**BENCH_MODEL, seed=seed),
                cli_series=dataio.multi_frequency_benchmark(
                    length=960, noise_level=0.05, seed=seed + 1))


def make_train_bench(seed, workdir):
    series = dataio.multi_frequency_benchmark(length=960, noise_level=0.05,
                                              seed=seed)
    dataset, _ = dataio.standardize(dataio.split(series, min_len=64 + 16))
    train_w, val_w, test_w = [tr.make_windows(part, 64, 16, stride=4)
                              for part in (dataset.train, dataset.val,
                                           dataset.test)]
    return Workload(
        seed=seed, workdir=workdir, min_rounds=8,
        plan=dict(train=(1, None), infer=(1, None), forecast=(1, None),
                  cli=(1, None)),
        forecast_block=100,
        model=md.ModelConfig(**BENCH_MODEL, seed=seed),
        train_windows=train_w, val_windows=val_w, test_windows=test_w,
        train_cfg=tr.TrainConfig(learning_rate=3e-3, epochs=1,
                                 batch_size=32, patience=2, seed=seed),
        eval_sets=[test_w], forecast_inputs=test_w.inputs,
        **_cli_inputs(seed))


def make_infer_paper(seed, workdir):
    """The paper-default model on 300 windows of a 1043-point series, in
    sets of 5 for `evaluate`; training runs on two of them, 32 steps
    apart, in the first 6 rounds.  A run has at least 10 rounds, so at
    least 200 forecast calls."""
    series = dataio.multi_frequency_benchmark(length=720 + 24 + 299,
                                              noise_level=0.05, seed=seed)
    windows = tr.make_windows(series, 720, 24, stride=1)
    spaced = tr.make_windows(series, 720, 24, stride=32)
    return Workload(
        seed=seed, workdir=workdir, min_rounds=10,
        plan=dict(train=(1, 6), infer=(1, None), forecast=(1, None),
                  cli=(1, None)),
        forecast_block=20,
        model=md.ModelConfig(seed=seed),
        train_windows=_slice(spaced, 0, 2), val_windows=_slice(spaced, 2, 3),
        test_windows=None,
        train_cfg=tr.TrainConfig(epochs=1, batch_size=2, patience=2,
                                 seed=seed),
        eval_sets=[_slice(windows, s, s + 5)
                   for s in range(0, len(windows), 5)],
        forecast_inputs=[windows.inputs[(7 * i) % len(windows)]
                         for i in range(len(windows))],
        **_cli_inputs(seed))


WORKLOADS = {"train_bench": make_train_bench,
             "infer_paper": make_infer_paper}


def setup(name, seed, workdir):
    """Everything before the first timed call: inputs, initial
    parameters, and the CLI's data file and config."""
    workdir.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[name](seed, workdir)
    w.params = md.init_params(w.model)
    w.cli_params = w.params if w.cli_model == w.model \
        else md.init_params(w.cli_model)
    data = workdir / "series.csv"
    ref.write_series_csv(data, w.cli_series)
    w.cli_config = workdir / "run.cfg"
    w.cli_config.write_text(CLI_CONFIG.format(data=data, stride=CLI_STRIDE))
    return w


# --- host speed -------------------------------------------------------------

# The time a host-speed kernel takes on a quiet CPU of the machine the
# reference figures come from (see README.md), by model size.
KERNEL_REFERENCE_S = {64: 0.0039, 720: 0.0083}
KERNEL_WINDOWS = {64: 16, 720: 1}


class HostSpeed:
    """How much slower the host runs than a quiet CPU, over one run.

    This machine's CPUs each slow down by up to 2x for seconds or minutes
    at a time, as other tenants load them; CPU time follows wall time.
    The kernel is a fixed piece of the benchmark's own work -- the
    reference forward of the workload's model on a few windows -- so its
    time follows the host's speed and no change to wavestack moves it.
    The kernel is probed before every timed call, so its samples are
    spread over the run as the calls are; the run's slowdown is the
    median of them all.
    """

    def __init__(self, cfg, params, windows):
        windows = windows[:KERNEL_WINDOWS[cfg.lookback]]
        self.reference_s = KERNEL_REFERENCE_S[cfg.lookback]
        self.samples = []  # one slowdown per probe
        self.busy_s = 0.0  # wall time of the timed calls

        def kernel():
            for x in windows:
                ref.forward(x, params, cfg)
        self.kernel = kernel

    def probe(self, repeats=3):
        """The median over `repeats` kernel runs of time / reference,
        kept as one sample."""
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times) / self.reference_s)
        return self.samples[-1]

    def slowdown(self):
        """The run's slowdown: the median of every probe so far."""
        return statistics.median(self.samples)

    def timed(self, call):
        """Probe the host, then run `call`; returns (its result, its wall
        time)."""
        self.probe()
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        self.busy_s += elapsed
        return result, elapsed


# --- timed phases -----------------------------------------------------------

@dataclass
class Log:
    host: HostSpeed  # for the workload's model
    cli_host: HostSpeed  # for the model the CLI config describes
    tracer: tracing.Tracer = None  # installed for a traced pass
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    # samples, as measured
    train_rate: list = field(default_factory=list)  # window-steps / s
    infer_rate: list = field(default_factory=list)  # windows / s
    forecast_ms: list = field(default_factory=list)
    cli_s: dict = field(default_factory=lambda: {
        "train": [], "forecast": [], "eval": []})
    checkpoint_mb: float = 0.0
    trained: dict = None  # parameters after the last `train` call
    histories: list = field(default_factory=list)  # one per `train` call
    evaluations: list = field(default_factory=list)  # (set, metrics)
    bundles: list = field(default_factory=list)  # (input, bundle)
    cli_out: Path = None  # the CLI round trip's output directory
    cpus: list = field(default_factory=lambda: sorted(os.sched_getaffinity(0)))
    moves: int = 0

    def scaled_s(self):
        """The wall time of every timed call, at the reference host
        speed."""
        return sum(host.busy_s / host.slowdown()
                   for host in (self.host, self.cli_host))

    def next_cpu(self):
        """Pin the process to the next allowed CPU, in turn, so that a run
        samples every CPU the host gives it."""
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.moves % len(self.cpus)]})
            self.moves += 1

    def unpin(self):
        os.sched_setaffinity(0, self.cpus)


def timed_rounds(seconds, minimum, fixed=None):
    """Round indices: `fixed` of them when given, else as many as start
    within `seconds` and at least `minimum`."""
    if fixed is not None:
        yield from range(fixed)
        return
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        yield i
        i += 1


def phase_train(w, log):
    """One `train` call, continuing from the last call's parameters."""
    result, elapsed = log.host.timed(lambda: tr.train(
        w.model, w.train_windows, w.val_windows, w.train_cfg,
        init=log.trained or w.params))
    steps = len(result.history) * len(w.train_windows)
    log.attempted += 1
    log.train_rate.append(steps / elapsed)
    log.histories.append(result.history)
    log.trained = result.params


def phase_infer(w, log):
    k = len(log.infer_rate)
    windows = w.eval_sets[k % len(w.eval_sets)]
    metrics, elapsed = log.host.timed(
        lambda: tr.evaluate(windows, w.params, w.model))
    log.attempted += 1
    log.infer_rate.append(len(windows) / elapsed)
    if k < len(w.eval_sets):
        log.evaluations.append((windows, metrics))


def phase_forecast(w, log):
    """One block of `w.forecast_block` single-window calls, each timed,
    after one probe of the host.  Each bundle is kept without its tape
    graph, which would hold every intermediate value alive."""
    def block():
        times = []
        for _ in range(w.forecast_block):
            i = len(log.forecast_ms) + len(times)
            x = w.forecast_inputs[i % len(w.forecast_inputs)]
            start = time.perf_counter()
            bundle = md.model_forward(x, w.params, w.model, Tape())
            times.append(1e3 * (time.perf_counter() - start))
            if i < len(w.forecast_inputs):
                log.bundles.append(
                    (x, replace(bundle, forecast_node=None)))
        return times

    times, _ = log.host.timed(block)
    log.attempted += len(times)
    log.forecast_ms.extend(times)


def phase_cli(w, log):
    """One round trip.  Every round writes into the same three output
    directories, so after the first round each command rewrites its files
    instead of creating new ones.  Creating files on a shared disk costs
    what the disk's state makes it: a directory of 11 new files took 1 ms
    to 4 ms over consecutive runs on the reference host, against a steady
    0.6 ms to rewrite them."""
    base = w.workdir / "cli"
    checkpoint = base / "train" / "checkpoint.txt"
    common = ["--config", str(w.cli_config), "--seed", str(w.seed)]
    steps = (("train", ["train"]),
             ("forecast", ["forecast", "--checkpoint", str(checkpoint)]),
             ("eval", ["eval", "--checkpoint", str(checkpoint),
                       "--baseline"]))
    # A traced pass counts the CLI's calls into the model layers only when
    # the CLI runs the workload's own model.
    files_only = log.tracer is not None and w.cli_model != w.model
    for name, argv in steps:
        with contextlib.redirect_stdout(io.StringIO()), \
                (log.tracer.files_only() if files_only
                 else contextlib.nullcontext()):
            code, elapsed = log.cli_host.timed(lambda: cli.main(
                argv + common + ["--out", str(base / name)]))
        log.attempted += 1
        log.failed += code != 0
        log.cli_s[name].append(elapsed)
    log.checkpoint_mb = os.path.getsize(checkpoint) / 1e6
    log.cli_out = base


# The phases, in the order a round runs them.
PHASES = {"train": phase_train, "infer": phase_infer,
          "forecast": phase_forecast, "cli": phase_cli}


def execute(w, seconds, rounds=None, tracer=None):
    """Run rounds of the workload's plan for `seconds`, or exactly
    `rounds` rounds when given (a traced pass, under `tracer`, repeats the
    untraced pass's work; its counts stop after the workload's minimum
    rounds, which every run makes).  Each call, and each block of
    forecasts, starts on the next CPU."""
    lookback = w.cli_model.lookback
    cli_windows = [w.cli_series[i:i + lookback] for i in range(16)]
    log = Log(HostSpeed(w.model, w.params, w.forecast_inputs),
              HostSpeed(w.cli_model, w.cli_params, cli_windows), tracer)
    try:
        for r in timed_rounds(seconds, w.min_rounds, rounds):
            for phase, run_phase in PHASES.items():
                calls, until = w.plan[phase]
                if until is not None and r >= until:
                    continue
                for _ in range(calls):
                    log.next_cpu()
                    run_phase(w, log)
            log.rounds += 1
            if tracer is not None and log.rounds == w.min_rounds:
                tracer.freeze_counts()
    finally:
        log.unpin()
    return log


# --- end-to-end metrics -----------------------------------------------------

def end_to_end(log, scaled=True):
    """Every end-to-end metric but `setup_s`, which `run.py` measures:
    the median of each timing's samples, at the reference host speed
    (the run's slowdown taken out) or as measured."""
    host = log.host.slowdown() if scaled else 1.0
    cli_host = log.cli_host.slowdown() if scaled else 1.0

    def rate(samples, slowdown):
        return {"value": float(statistics.median(samples)) * slowdown,
                "unit": "1/s"}

    def duration(samples, slowdown, unit):
        return {"value": float(statistics.median(samples)) / slowdown,
                "unit": unit}

    return {
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "train_windows_per_s": rate(log.train_rate, host),
        "infer_windows_per_s": rate(log.infer_rate, host),
        "forecast_ms_p50": duration(log.forecast_ms, host, "ms"),
        "cli_train_s": duration(log.cli_s["train"], cli_host, "s"),
        "cli_forecast_s": duration(log.cli_s["forecast"], cli_host, "s"),
        "cli_eval_s": duration(log.cli_s["eval"], cli_host, "s"),
        "checkpoint_mb": {"value": log.checkpoint_mb, "unit": "MB"},
    }


# --- checks -------------------------------------------------------------------

# Program against reference forward: the two sum in different orders
# (per-window matrix-vector products against batched matrix products).
REF_RTOL = 1e-9
# Stack forecasts against the global forecast, and eval rows that are the
# same arithmetic on the same numbers.
EXACT_RTOL = 1e-12
# Tape gradient against central differences with eps = 1e-6.
FD_ATOL, FD_RTOL = 1e-7, 1e-5


def close(a, b, rtol):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0)) <= rtol * scale


def gradient_coords(grads, seed, n=3):
    """The n coordinates with the largest tape gradient and n more drawn
    from the seed, as (parameter name, flat index)."""
    names = sorted(grads)
    flat = np.concatenate([grads[k].reshape(-1) for k in names])
    largest = np.argpartition(-np.abs(flat), n)[:n]
    drawn = np.random.default_rng(seed).choice(flat.size, n, replace=False)
    starts = np.cumsum([0] + [grads[k].size for k in names])
    coords = []
    for pos in list(largest) + list(drawn):
        j = int(np.searchsorted(starts, pos, side="right")) - 1
        coords.append((names[j], int(pos - starts[j])))
    return coords


def tape_gradients(w, params):
    """The program's gradient of the MSE on the first training window,
    in inference mode (no dropout)."""
    x, y = w.train_windows.inputs[0], w.train_windows.targets[0]
    tape = Tape()
    loss, leaves = md.forward_loss(x, y, params, w.model, tape)
    tape.backward(loss)
    return {k: leaves[k].grad for k in params}


def check_gradients(w, params, grads):
    x, y = w.train_windows.inputs[0], w.train_windows.targets[0]
    rows = ref.finite_difference_errors(
        x, y, {k: v.copy() for k, v in params.items()}, w.model, grads,
        gradient_coords(grads, w.seed))
    return [f"gradient of {name}[{idx}]: tape {ad!r}, finite difference "
            f"{fd!r}" for name, idx, ad, fd in rows
            if abs(ad - fd) > FD_ATOL + FD_RTOL * abs(fd)]


def check_learning(w, histories, params):
    """The train loss falls over the epochs and the trained model beats
    the persistence forecast on the test windows."""
    problems = []
    first, last = histories[0][0][2], histories[-1][-1][2]
    if not last < 0.5 * first:
        problems.append(f"train loss went from {first!r} to {last!r}")
    xs = np.array(w.test_windows.inputs)
    ys = np.array(w.test_windows.targets)
    model_mse = np.mean((ref.forward(xs, params, w.model)[0] - ys) ** 2)
    persistence_mse = np.mean((ref.persistence(xs, w.model.horizon) - ys)
                              ** 2)
    if not model_mse < persistence_mse:
        problems.append(f"test mse {model_mse!r} does not beat persistence "
                        f"{persistence_mse!r}")
    return problems


def check_evaluations(w, params, evaluations):
    problems = []
    for windows, metrics in evaluations:
        xs, ys = np.array(windows.inputs), np.array(windows.targets)
        err = ref.forward(xs, params, w.model)[0] - ys
        if not (close(metrics["mse"], np.mean(err ** 2), REF_RTOL)
                and close(metrics["mae"], np.mean(np.abs(err)), REF_RTOL)):
            problems.append(f"evaluate gave {metrics}, reference mse "
                            f"{np.mean(err ** 2)!r}")
    return problems


def check_bundles(w, params, bundles, every=10):
    """Stack forecasts sum to the global forecast on every call; every
    `every`-th call matches the reference forward stack by stack."""
    problems = []
    for i, (_, bundle) in enumerate(bundles):
        if not close(np.sum(bundle.per_stack_forecast, axis=0),
                     bundle.global_forecast, EXACT_RTOL):
            problems.append(f"forecast {i}: stacks do not sum to global")
    sampled = bundles[::every]
    glob, stacks = ref.forward(np.array([x for x, _ in sampled]), params,
                               w.model)
    for j, (_, bundle) in enumerate(sampled):
        if not (close(bundle.global_forecast, glob[j], REF_RTOL)
                and all(close(p, r[j], REF_RTOL) for p, r in
                        zip(bundle.per_stack_forecast, stacks))):
            problems.append(f"forecast {j * every} differs from reference")
    return problems


def _expected_rows(forecasts, targets, mean, std):
    err = forecasts - targets
    raw = (forecasts * std + mean) - (targets * std + mean)
    return {"standardized": (np.mean(err ** 2), np.mean(np.abs(err))),
            "original": (np.mean(raw ** 2), np.mean(np.abs(raw)))}


def check_cli(w, out):
    """The CLI's files against the benchmark's own reading of them."""
    problems = []
    cfg = w.cli_model
    _, params = ref.read_checkpoint(out / "train" / "checkpoint.txt")
    expected = {k: v.shape for k, v in md.init_params(cfg).items()}
    found = {k: v.shape for k, v in params.items()}
    if found != expected:
        return [f"checkpoint tensors differ from init_params: "
                f"{sorted(set(found) ^ set(expected))}"]
    if not all(np.all(np.isfinite(v)) for v in params.values()):
        problems.append("checkpoint holds non-finite values")

    # split 0.5 / 0.25 / 0.25, standardised by the training part
    series = w.cli_series
    n_train, n_val = len(series) // 2, len(series) // 4
    train = series[:n_train]
    mean, std = float(np.mean(train)), float(np.std(train))
    scaled = (series - mean) / std
    xs, ys = ref.windows(scaled[n_train + n_val:], cfg.lookback, cfg.horizon,
                         CLI_STRIDE)
    rows = ref.read_metrics_csv(out / "eval" / "metrics.csv")
    for label, forecasts, rtol in (
            ("persistence", ref.persistence(xs, cfg.horizon), EXACT_RTOL),
            ("model", ref.forward(xs, params, cfg)[0], REF_RTOL)):
        for scale, want in _expected_rows(forecasts, ys, mean, std).items():
            got = rows.get((scale, label))
            if got is None or not close(got, want, rtol):
                problems.append(f"eval {scale} {label}: {got} != {want}")

    fc = out / "forecast"
    glob = ref.read_series_csv(fc / "global.csv")
    stacks = [ref.read_series_csv(fc / f"stack{i}.forecast.csv")
              for i in range(1, cfg.n_stacks + 1)]
    if not close(np.sum(stacks, axis=0), glob, EXACT_RTOL):
        problems.append("global.csv is not the sum of the stack forecasts")
    want = ref.forward(scaled[-cfg.lookback:], params, cfg)[0][0]
    if not close(glob, want, REF_RTOL):
        problems.append("global.csv differs from the reference forward")
    return problems


def check(w, log):
    problems = check_gradients(w, log.trained,
                               tape_gradients(w, log.trained))
    if w.test_windows is not None:
        problems += check_learning(w, log.histories, log.trained)
    problems += check_evaluations(w, w.params, log.evaluations)
    problems += check_bundles(w, w.params, log.bundles)
    if log.failed == 0:
        problems += check_cli(w, log.cli_out)
    return problems


# --- entry point --------------------------------------------------------------

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    w = setup(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    # the host's slowdown just after set-up, to scale the set-up time by
    slowdown = HostSpeed(w.model, w.params, w.forecast_inputs).probe()
    if args.setup_only:
        print(json.dumps({"ready": ready, "slowdown": slowdown}))
        return
    log = execute(w, args.seconds)
    metrics = end_to_end(log)  # before the checks, which add to peak RSS
    as_measured = end_to_end(log, scaled=False)
    # Reference figures for the README only: p95 latency does not hold
    # steady enough to be bounded.
    p95 = float(np.percentile(log.forecast_ms, 95))
    reference = {"forecast_ms_p95": p95 / log.host.slowdown(),
                 "forecast_ms_p95_as_measured": p95,
                 "host_slowdown": log.host.slowdown(),
                 "cli_host_slowdown": log.cli_host.slowdown()}
    problems = check(w, log)
    attempted, failed = log.attempted, log.failed
    if args.trace:
        with tracing.Tracer() as tracer:
            traced_log = execute(w, args.seconds, log.rounds, tracer)
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_log.scaled_s() - log.scaled_s())
            / log.scaled_s(), "unit": "%"}
        attempted += traced_log.attempted
        failed += traced_log.failed
    print(json.dumps({"ready": ready, "slowdown": slowdown,
                      "attempted": attempted,
                      "failed": failed, "problems": problems,
                      "metrics": metrics, "as_measured": as_measured,
                      "reference": reference}))


if __name__ == "__main__":
    main()
