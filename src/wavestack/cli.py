"""Operator entry point: decompose, train, forecast, eval and ablation
grids, all emitting deterministic CSV artifacts.

Exit codes: 0 success, 2 input error, 3 runtime or internal error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio, ensemble as ens, training as tr
from . import model as md
from .autodiff import InferenceTape
from .config import RunConfig, load_run_config, resolved_config_text
from .errors import InvalidInput, WavestackError, describe
from .wavelet import mdwd

ABLATION_AXES = ("alpha", "stacks", "conv", "ensemble_size", "noise")


def _load_series(run: RunConfig) -> np.ndarray:
    if run["data"]:
        return dataio.load_csv(run["data"], run["value_column"])
    return dataio.multi_frequency_benchmark(
        length=run["synthetic.length"], noise_level=run["synthetic.noise"],
        seed=run["synthetic.seed"])


def _prepare(run: RunConfig, series=None):
    """Split, optionally standardize, and window the series."""
    if series is None:
        series = _load_series(run)
    t, h = run.model.lookback, run.model.horizon
    dataset = dataio.split(series, run["split.train"], run["split.val"],
                           run["split.test"], min_len=t + h)
    scaler = None
    if run["standardize"]:
        dataset, scaler = dataio.standardize(dataset)
    stride = run["stride"]
    windows = {
        name: tr.make_windows(part, t, h, stride)
        for name, part in (("train", dataset.train), ("val", dataset.val),
                           ("test", dataset.test))
    }
    return dataset, scaler, windows


def _apply_seed(run: RunConfig, seed) -> RunConfig:
    if seed is None:
        return run
    return replace(run, model=replace(run.model, seed=seed),
                   train=replace(run.train, seed=seed),
                   ensemble=replace(run.ensemble, base_seed=seed))


# --- commands ------------------------------------------------------------

def cmd_decompose(run: RunConfig, out: Path) -> None:
    series = _load_series(run)
    levels = run["decompose.levels"]
    kind = run["decompose.kind"]
    stem = Path(run["data"]).stem if run["data"] else "synthetic"
    pyramid = mdwd(series, levels, kind)
    for lvl in range(1, levels + 1):
        dataio.save_csv(out / f"{stem}.L{lvl}.approx.csv",
                        pyramid.approx[lvl - 1])
        dataio.save_csv(out / f"{stem}.L{lvl}.detail.csv",
                        pyramid.detail[lvl - 1])
    recon = pyramid.approx[-1] + sum(pyramid.detail)
    recon_error = float(np.max(np.abs(recon - series)))
    (out / "recon_error.txt").write_text(f"{recon_error!r}\n")
    print(f"decomposed {len(series)} points into {levels} levels ({kind}); "
          f"max-abs reconstruction error {recon_error:.3e}")


def cmd_train(run: RunConfig, out: Path) -> None:
    _, _, windows = _prepare(run)
    result = tr.train(run.model, windows["train"], windows["val"], run.train)
    tr.save_checkpoint(out / "checkpoint.txt", result.params, run.model,
                       epoch=result.best_epoch, val_loss=result.best_val)
    tr.save_history(out / "history.csv", result.history)
    train_metrics = tr.evaluate(windows["train"], result.params, run.model)
    val_metrics = tr.evaluate(windows["val"], result.params, run.model)
    print(f"best epoch {result.best_epoch} "
          f"(early stop: {result.stopped_early})")
    print(f"train mse {train_metrics['mse']:.6f} mae {train_metrics['mae']:.6f}")
    print(f"val   mse {val_metrics['mse']:.6f} mae {val_metrics['mae']:.6f}")


def cmd_forecast(run: RunConfig, out: Path, checkpoint: str) -> None:
    dataset, _, _ = _prepare(run)
    params, _ = tr.load_checkpoint(checkpoint, run.model)
    window = dataset.raw[-run.model.lookback:]
    bundle = md.model_forward(window, params, run.model, InferenceTape())
    dataio.save_csv(out / "global.csv", bundle.global_forecast)
    for i in range(1, run.model.n_stacks + 1):
        dataio.save_csv(out / f"stack{i}.forecast.csv",
                        bundle.per_stack_forecast[i - 1])
        dataio.save_csv(out / f"stack{i}.backcast.csv",
                        bundle.per_stack_backcast[i - 1])
        infused = bundle.infused_signals[i - 1]
        if infused is None:
            infused = np.zeros(run.model.lookback)
        dataio.save_csv(out / f"stack{i}.infused.csv", infused)
    total = np.sum(bundle.per_stack_forecast, axis=0)
    print(f"forecast horizon {run.model.horizon}; stack-sum max dev "
          f"{np.max(np.abs(total - bundle.global_forecast)):.3e}")


def cmd_eval(run: RunConfig, out: Path, checkpoint: str,
             baseline: bool = False) -> None:
    _, scaler, windows = _prepare(run)
    params, _ = tr.load_checkpoint(checkpoint, run.model)
    test = windows["test"]
    inputs, targets = np.array(test.inputs), np.array(test.targets)
    forecasts = {"model": tr.forecast(inputs, params, run.model)}
    if baseline:
        forecasts["persistence"] = np.repeat(
            inputs[:, -1:], run.model.horizon, axis=1)
    rows = []
    for label, pred in forecasts.items():
        rows.append(("standardized", label, tr.mse(pred, targets),
                     tr.mae(pred, targets)))
        if scaler is not None:
            raw_pred = dataio.destandardize(pred, scaler)
            raw_targets = dataio.destandardize(targets, scaler)
            rows.append(("original", label, tr.mse(raw_pred, raw_targets),
                         tr.mae(raw_pred, raw_targets)))
    with open(out / "metrics.csv", "w") as fh:
        fh.write("scale,model,mse,mae\n")
        for scale, label, m, a in rows:
            fh.write(f"{scale},{label},{float(m)!r},{float(a)!r}\n")
    for scale, label, m, a in rows:
        print(f"{scale:12s} {label:12s} mse {m:.6f} mae {a:.6f}")


# --- ablation driver -----------------------------------------------------

def _cell_series(run: RunConfig, axis: str, value, rep: int) -> np.ndarray:
    """The series an ablation cell reads: for the noise axis, the
    synthetic series at the cell's noise level, seeded per repetition
    (`data` is never read); on every other axis, the run's own."""
    if axis == "noise":
        return dataio.multi_frequency_benchmark(
            length=run["synthetic.length"], noise_level=value,
            seed=run["synthetic.seed"] + rep)
    return _load_series(run)


def _run_cell(args):
    """One seeded (cell, repetition) experiment; returns test MSE/MAE."""
    run, axis, value, rep = args
    seed = run.model.seed + 101 * rep
    model_cfg = replace(run.model, seed=seed)
    train_cfg = replace(run.train, seed=seed)
    if axis == "alpha":
        model_cfg = replace(model_cfg, alpha=value)
    elif axis == "stacks":
        model_cfg = replace(model_cfg, n_stacks=value, kernel_sizes=None)
    elif axis == "conv":
        model_cfg = replace(model_cfg, conv_variant=value)
    run = replace(run, model=model_cfg, train=train_cfg)
    _, _, windows = _prepare(run, _cell_series(run, axis, value, rep))
    test = windows["test"]
    if axis == "ensemble_size":
        ens_cfg = replace(run.ensemble, size=value, base_seed=seed)
        members = ens.train_ensemble(model_cfg, windows["train"],
                                     windows["val"], train_cfg, ens_cfg)
        forecasts = ens.aggregate(
            [tr.forecast(test.inputs, result.params, model_cfg)
             for _, result in members], ens_cfg.aggregation)
    else:
        result = tr.train(model_cfg, windows["train"], windows["val"],
                          train_cfg)
        forecasts = tr.forecast(test.inputs, result.params, model_cfg)
    return tr.mse(forecasts, test.targets), tr.mae(forecasts, test.targets)


def _try_cell(task):
    """`_run_cell` with its failure recorded as a message, so one failed
    cell does not end the grid.  Top-level so worker processes can run it."""
    try:
        return _run_cell(task), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {describe(exc)}"


def cmd_ablate(run: RunConfig, out: Path, axis: str, jobs: int = 1) -> None:
    grid = {
        "alpha": run["ablate.alpha_grid"],
        "stacks": run["ablate.stacks_grid"],
        "conv": run["ablate.conv_grid"],
        "ensemble_size": run["ablate.ensemble_grid"],
        "noise": run["ablate.noise_grid"],
    }[axis]
    reps = run["ablate.repetitions"]
    if grid:  # an input fault that every cell would hit exits 2 here
        _prepare(run, _cell_series(run, axis, grid[0], 0))
    tasks = [(run, axis, value, rep) for value in grid
             for rep in range(reps)]
    workers = min(jobs, len(tasks))  # a pool forks every worker up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_try_cell, tasks))
    else:
        results = list(map(_try_cell, tasks))
    with open(out / f"ablation_{axis}.csv", "w", newline="") as fh:
        # quotes a failure message that holds a comma, quote or newline
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([axis, "repetitions", "mse_mean", "mse_std",
                         "mae_mean", "mae_std", "failures"])
        for gi, value in enumerate(grid):
            cell = results[gi * reps:(gi + 1) * reps]
            ok = [m for m, err in cell if m is not None]
            stats = ([float(f(scores)) for scores in zip(*ok)
                      for f in (np.mean, np.std)] if ok else [""] * 4)
            writer.writerow([value, len(ok), *stats,
                             ";".join(err for _, err in cell if err)])
    print(f"ablation over {axis}: {len(grid)} cells x {reps} repetitions "
          f"-> {out / f'ablation_{axis}.csv'}")


# --- argument parsing ----------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavestack",
        description="Wavelet-infused doubly-residual forecasting")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="run config path")
        p.add_argument("--seed", type=int, default=None,
                       help="override model.seed, train.seed and "
                       "ensemble.base_seed (not synthetic.seed)")
        p.add_argument("--out", default=".", help="output directory")

    common(sub.add_parser("decompose", help="write per-level branch CSVs"))
    common(sub.add_parser("train", help="train and checkpoint a model"))
    p = sub.add_parser("forecast", help="emit the per-stack forecast bundle")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p = sub.add_parser("eval", help="test-set metrics table")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--baseline", action="store_true",
                   help="include a persistence baseline row")
    p = sub.add_parser("ablate", help="run an ablation grid")
    common(p)
    p.add_argument("--axis", required=True, choices=ABLATION_AXES)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes, at most one per cell")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ablate" and args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    if args.seed is not None and args.seed < 0:
        parser.error(f"argument --seed: must be at least 0, got {args.seed}")
    try:
        run = _apply_seed(load_run_config(args.config), args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # NonFiniteLoss and NonFiniteGradient report a diverging run in one
        # line; numpy's floating-point warnings would add lines before it.
        with np.errstate(all="ignore"):
            if args.command == "decompose":
                cmd_decompose(run, out)
            elif args.command == "train":
                cmd_train(run, out)
            elif args.command == "forecast":
                cmd_forecast(run, out, args.checkpoint)
            elif args.command == "eval":
                cmd_eval(run, out, args.checkpoint, baseline=args.baseline)
            elif args.command == "ablate":
                cmd_ablate(run, out, args.axis, jobs=args.jobs)
        (out / "resolved_config.txt").write_text(resolved_config_text(run))
    except (InvalidInput, OSError, UnicodeDecodeError) as exc:
        print(f"error: {describe(exc)}", file=sys.stderr)
        return 2
    except WavestackError as exc:
        print(f"runtime error: {describe(exc)}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {describe(exc)}",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
