"""The bytes the CLI writes, pinned: `train`, `forecast`, `eval
--baseline` and `ablate --axis alpha`, run once under each wavelet kind,
checked file by file against a committed SHA-256 manifest.  A change
that keeps every bit passes unchanged; a change that moves bytes on
purpose regenerates the manifest and names each moved file, as the
failure message does.  Run from the repository root,

    PYTHONPATH=src python tests/test_cli_manifest.py \
        > tests/data/cli_manifest.txt

writes a fresh manifest.  Like README's byte-identity contract, it holds
for one numpy and BLAS build."""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from wavestack import cli

MANIFEST = Path(__file__).resolve().parent / "data" / "cli_manifest.txt"

KINDS = ("haar", "db2", "sym4")

# lookback 64, horizon 8, 3 stacks x 2 blocks, dcn, dropout 0.1 and the
# default clipping, on a 960-point series: the train windows make
# minibatches of the paper's 128 and one shorter
CONFIG = """
model.n_stacks = 3
model.blocks_per_stack = 2
model.lookback = 64
model.horizon = 8
model.conv_variant = "dcn"
model.dropout_rate = 0.1
model.wavelet_kind = "{kind}"
train.learning_rate = 0.001
train.epochs = 2
synthetic.length = 960
synthetic.noise = 0.05
ablate.alpha_grid = [0.0, 0.4]
ablate.repetitions = 1
"""


def run_matrix(root: Path) -> dict:
    """Run `train`, `forecast`, `eval --baseline` and `ablate --axis
    alpha` for each kind under `root`; returns {relative path: SHA-256}
    of every file they wrote."""
    for kind in KINDS:
        base = root / kind
        base.mkdir()
        config = base / "run.cfg"
        config.write_text(CONFIG.format(kind=kind))
        checkpoint = str(base / "train" / "checkpoint.txt")
        for name, argv in (
                ("train", ["train"]),
                ("forecast", ["forecast", "--checkpoint", checkpoint]),
                ("eval", ["eval", "--checkpoint", checkpoint, "--baseline"]),
                ("ablate", ["ablate", "--axis", "alpha"])):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--config", str(config),
                                        "--out", str(base / name)])
            assert code == 0, (kind, name)
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "run.cfg"}


def read_manifest() -> dict:
    """{relative path: SHA-256} from MANIFEST's `<digest>  <path>` lines."""
    lines = MANIFEST.read_text().splitlines()
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in lines)}


def format_manifest(digests: dict) -> str:
    return "".join(f"{digest}  {name}\n"
                   for name, digest in sorted(digests.items()))


def test_cli_files_match_manifest(tmp_path):
    want = read_manifest()
    got = run_matrix(tmp_path)
    moved = sorted(name for name in want.keys() | got.keys()
                   if want.get(name) != got.get(name))
    assert not moved, (f"{len(moved)} of {len(want)} files moved: "
                       + ", ".join(moved))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(format_manifest(run_matrix(Path(tmp))))
