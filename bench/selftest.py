"""Self-tests of the benchmark's checks.

Each check must pass on the program's own outputs and fail once the
output it guards is perturbed: one gradient coordinate scaled, one
weight nudged, one stack forecast dropped, one checkpoint value or
metrics cell changed.  Run from the root of a checkout:

    PYTHONPATH=src python3 bench/selftest.py

It runs the `train_bench` workload once (about 10 s) and exits 1 if any
check misses its perturbation or flags an unperturbed output.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

import numpy as np

import workload as wl

BIAS = "s1.b1.proj_f.b"  # adds straight onto stack 1's forecast


def _nudged(params, delta):
    """A copy of `params` with one weight moved by `delta`."""
    out = {k: v.copy() for k, v in params.items()}
    out[BIAS][0] += delta
    return out


def _edit_checkpoint(path, tensor, edit):
    """Apply `edit` to the token list of one tensor's value line; an edit
    that returns None drops the tensor."""
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith(f"tensor {tensor} "))
    values = edit(lines[at + 1].split())
    if values is None:
        del lines[at:at + 2]
    else:
        lines[at + 1] = " ".join(values)
    path.write_text("\n".join(lines) + "\n")


def _replace_cell(path, row_prefix, column, transform):
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(row_prefix):
            cells = line.split(",")
            cells[column] = transform(cells[column])
            lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def cli_perturbations():
    """(description, function editing a copy of the CLI output tree)."""
    ckpt = Path("train") / "checkpoint.txt"
    return (
        ("checkpoint value nudged by 1e-6", lambda d: _edit_checkpoint(
            d / ckpt, BIAS, lambda v: [repr(float(v[0]) + 1e-6)] + v[1:])),
        ("checkpoint tensor dropped", lambda d: _edit_checkpoint(
            d / ckpt, BIAS, lambda v: None)),
        ("checkpoint value made nan", lambda d: _edit_checkpoint(
            d / ckpt, "s3.b2.trunk0.b", lambda v: ["nan"] + v[1:])),
        ("eval persistence mse changed by 1e-9", lambda d: _replace_cell(
            d / "eval" / "metrics.csv", "standardized,persistence", 2,
            lambda c: repr(float(c) * (1 + 1e-9)))),
        ("eval model mae changed by 1e-6", lambda d: _replace_cell(
            d / "eval" / "metrics.csv", "original,model", 3,
            lambda c: repr(float(c) * (1 + 1e-6)))),
        ("stack 2 forecast file zeroed", lambda d: _replace_cell(
            d / "forecast" / "stack2.forecast.csv", "", 1,
            lambda c: c if c == "value" else "0.0")),
    )


def main() -> int:
    workdir = Path.cwd() / ".bench_run" / "selftest"
    try:
        w = wl.setup("train_bench", 3, workdir)
        log = wl.execute(w, seconds=0)
        trained = log.trained
        results = []

        def case(description, problems, should_fail):
            ok = bool(problems) == should_fail
            results.append(ok)
            verdict = "fails" if problems else "passes"
            print(f"{'ok  ' if ok else 'BAD '} {description}: {verdict}")

        grads = wl.tape_gradients(w, trained)
        case("gradients", wl.check_gradients(w, trained, grads), False)
        name, idx = wl.gradient_coords(grads, w.seed)[0]
        scaled = dict(grads, **{name: grads[name].copy()})
        scaled[name].reshape(-1)[idx] *= 1.01
        case("one gradient coordinate scaled by 1.01",
             wl.check_gradients(w, trained, scaled), True)

        case("learning", wl.check_learning(w, log.histories, trained),
             False)
        flat = [log.histories[0]] * len(log.histories)
        case("train loss that does not fall",
             wl.check_learning(w, flat, trained), True)
        shifted = dict(trained, **{BIAS: trained[BIAS] + 3.0})
        case("stack 1 forecast bias shifted by 3",
             wl.check_learning(w, log.histories, shifted), True)

        case("evaluate", wl.check_evaluations(w, w.params, log.evaluations),
             False)
        windows, metrics = log.evaluations[0]
        off = dict(metrics, mse=metrics["mse"] * (1 + 1e-6))
        case("evaluate mse changed by 1e-6",
             wl.check_evaluations(w, w.params, [(windows, off)]), True)

        case("forecasts", wl.check_bundles(w, w.params, log.bundles), False)
        x, bundle = log.bundles[0]
        dropped = dataclasses.replace(bundle, per_stack_forecast=[
            np.zeros_like(f) if i == 1 else f
            for i, f in enumerate(bundle.per_stack_forecast)])
        case("one stack forecast dropped",
             wl.check_bundles(w, w.params, [(x, dropped)]), True)
        case("one weight nudged by 1e-6",
             wl.check_bundles(w, _nudged(w.params, 1e-6), log.bundles), True)

        out = log.cli_out
        case("cli outputs", wl.check_cli(w, out), False)
        for k, (description, perturb) in enumerate(cli_perturbations()):
            copy = workdir / f"perturbed{k}"
            shutil.copytree(out, copy)
            perturb(copy)
            case(description, wl.check_cli(w, copy), True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} self-tests behave as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
