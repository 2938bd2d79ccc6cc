"""Mutation check: does the test suite notice a wrong behaviour?

Each mutant is one exact string replacement `(file, old, new)` in the
source.  The script copies the repository to a temporary directory per
mutant, applies the replacement there and runs the suite with
`pytest -x -q`, all of it but `test_mutants.py`, which checks this list
against the unmutated source.  A mutant is killed when a test fails and
survives when the suite passes.  An equivalent mutant changes no
behaviour a test could see, so it is expected to survive.

    python tests/mutants.py                    # every mutant
    python tests/mutants.py warmup_truncates   # one mutant

The runs go in parallel, one per core at most.  It exits 1 when a mutant
that is not marked equivalent survives, and 2 when an `old` string does
not occur exactly once in its file or a pytest run ends in neither a pass
nor a test failure; a run that takes longer than `TIMEOUT` seconds is
stopped and reported as `timeout`, which also exits 2.  pytest does not collect
this file: its name does not start with `test_`.  A full run of the
first ten mutants took about 5 minutes on 2 cores.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# seconds one pytest run may take; the whole suite takes about a minute
TIMEOUT = 1800

# name -> (file, old, new)
MUTANTS = {
    # the warmup lasts round(warmup_fraction * epochs) epochs
    "warmup_truncates": (
        "src/wavestack/training.py",
        "int(round(cfg.warmup_fraction * cfg.epochs))",
        "int(cfg.warmup_fraction * cfg.epochs)"),
    # the persistence baseline repeats each window's last input value
    "persistence_second_to_last": (
        "src/wavestack/cli.py",
        "test.inputs[:, -1:]",
        "test.inputs[:, -2:-1]"),
    # a validation tie keeps the earlier epoch
    "best_epoch_tie_takes_later": (
        "src/wavestack/training.py",
        "if val_loss < best_val:",
        "if val_loss <= best_val:"),
    # training stops after `patience` checks without improvement
    "early_stop_one_check_late": (
        "src/wavestack/training.py",
        "if since_best >= cfg.patience:",
        "if since_best > cfg.patience:"),
    # an ablation cell's std over repetitions is np.std with ddof 0
    "ablation_std_ddof_one": (
        "src/wavestack/cli.py",
        "for f in (np.mean, np.std)]",
        "for f in (np.mean, lambda s: np.std(s, ddof=1))]"),
    # a value whose square overflows float64 is an input fault (exit 2)
    "square_overflow_unchecked": (
        "src/wavestack/dataio.py",
        "bad = ~(np.abs(raw) <= _MAX_SQUARABLE)",
        "bad = ~np.isfinite(raw)"),
    # a train partition whose squares underflow is not zero variance
    "tiny_values_read_as_constant": (
        "src/wavestack/dataio.py",
        "if std == 0.0 and np.min(train) != np.max(train):",
        "if False:"),
    # a checkpoint shape's size is exact: 2**32 x 2**32 is not 0 values
    "checkpoint_size_wraps": (
        "src/wavestack/training.py",
        "values.size != math.prod(shape)",
        "values.size != int(np.prod(shape))"),
    # each level's detail joins the synthesis through the high-pass filter
    "detail_joins_low_pass": (
        "src/wavestack/wavelet.py",
        "_synthesis_step(raw_high[lvl - 1], pair.high)",
        "_synthesis_step(raw_high[lvl - 1], pair.low)"),
    # the conv kernel gradient rebuilds the taps at the forward's dilation
    "kernel_grad_taps_undilated": (
        "src/wavestack/autodiff.py",
        "np.matmul(_taps(xv, k, dilation, t_out), g.reshape(-1),",
        "np.matmul(_taps(xv, k, 1, t_out), g.reshape(-1),"),
    # the first step fills each weight from the same element of init
    "init_fill_one_late": (
        "src/wavestack/training.py",
        "chunk.append(value)",
        "chunk.append(np.roll(value, -1))"),
    # a one-step call writes a chunk's weights over its gradients only
    # after v is computed from them
    "one_step_weights_before_v": (
        "src/wavestack/training.py",
        "            np.multiply(np.multiply(g_, 1.0 - b2, out=s2), g_, out=v_)\n"
        "            np.concatenate(next(fill), axis=None, out=p_)",
        "            np.concatenate(next(fill), axis=None, out=p_)\n"
        "            np.multiply(np.multiply(g_, 1.0 - b2, out=s2), g_, out=v_)"),
    # a node drops its gradient only after reading it
    "grad_released_before_read": (
        "src/wavestack/autodiff.py",
        "            g = node.grad\n"
        "            if g is None:\n"
        "                continue\n"
        "            if node.parents:\n"
        "                node.grad = None\n",
        "            if node.parents:\n"
        "                node.grad = None\n"
        "            g = node.grad\n"
        "            if g is None:\n"
        "                continue\n"),
    # a value line that holds n or N is read by float(), not numpy's C
    # parse, which drops the sign of -nan and accepts nan(1)
    "checkpoint_c_parse_unguarded": (
        "src/wavestack/training.py",
        'if "n" not in line and "N" not in line and not line.isspace():',
        "if not line.isspace():"),
    # and so is a line of whitespace alone, from which numpy reads -1.0
    "checkpoint_c_parse_on_blank_line": (
        "src/wavestack/training.py",
        'if "n" not in line and "N" not in line and not line.isspace():',
        'if "n" not in line and "N" not in line:'),
    # the sym4 low-pass filter is the table's to the last ulp
    "sym4_coefficient_one_ulp": (
        "src/wavestack/wavelet.py",
        "0.8037387518059161,",
        "0.8037387518059162,"),
    # equivalent: at a tie the factor max_norm / total is exactly 1.0
    "clip_at_tie": (
        "src/wavestack/training.py",
        "if total > max_norm / big:",
        "if total >= max_norm / big:"),
    # equivalent: a draw equal to the rate has probability about 2**-53
    "dropout_draw_equal_to_rate": (
        "src/wavestack/autodiff.py",
        "scale_arr = (draws >= rate) / (1.0 - rate)",
        "scale_arr = (draws > rate) / (1.0 - rate)"),
    # equivalent: a comment only, the control that the unchanged code passes
    "comment_only": (
        "src/wavestack/cli.py",
        "# quotes a failure message that holds a comma, quote or newline",
        "# quotes a failure message holding a comma, quote or newline"),
}

EQUIVALENT = {"clip_at_tie", "dropout_draw_equal_to_rate", "comment_only"}

# what a copy leaves out: version control, caches and build outputs
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "*.egg-info", "build", "dist")


def unmatched(mutants):
    """The names of mutants whose `old` does not occur exactly once."""
    return [name for name, (file, old, _) in mutants.items()
            if (ROOT / file).read_text().count(old) != 1]


def run_mutant(name):
    """Apply one mutant to a fresh copy and run the suite on it; returns
    (name, pytest's exit code or None after a timeout, seconds)."""
    file, old, new = MUTANTS[name]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        target = copy / file
        target.write_text(target.read_text().replace(old, new))
        # one BLAS thread per run, so parallel runs do not share cores
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
        try:
            code = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 # the check that each `old` matches fails on every mutant
                 "--ignore", "tests/test_mutants.py"],
                cwd=copy, env=env, capture_output=True, text=True,
                timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            code = None
    return name, code, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - MUTANTS.keys())
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    bad = unmatched(MUTANTS)
    if bad:
        print(f"old string not found exactly once: {', '.join(bad)}",
              file=sys.stderr)
        return 2
    names = args.names or list(MUTANTS)
    jobs = min(os.cpu_count() or 1, len(names))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(run_mutant, names))
    print(f"{'mutant':30s} {'expected':10s} {'result':8s} seconds")
    failed = 0
    for name, code, seconds in results:
        result = {0: "survived", 1: "killed",
                  None: "timeout"}.get(code, f"exit {code}")
        expected = "survive" if name in EQUIVALENT else "kill"
        print(f"{name:30s} {expected:10s} {result:8s} {seconds:7.1f}")
        if code not in (0, 1):
            failed = max(failed, 2)
        elif code == 0 and name not in EQUIVALENT:
            failed = max(failed, 1)
    return failed


if __name__ == "__main__":
    sys.exit(main())
