"""Declarative run configuration: a plain-text key-value document that is
fully validated before any compute, with every default echoed back beside
the run outputs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .ensemble import EnsembleConfig
from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig

SPEC_VERSION = 1

# scalar keys outside the model./train./ensemble. namespaces, each with its
# type and default; null is accepted only where the default is None
_TOP_LEVEL = {
    "spec_version": (int, SPEC_VERSION),
    "data": (str, None),
    "value_column": (str, "value"),
    "stride": (int, 1),
    "standardize": (bool, True),
    "split.train": (float, 0.70),
    "split.val": (float, 0.10),
    "split.test": (float, 0.20),
    "synthetic.length": (int, 480),
    "synthetic.noise": (float, 0.0),
    "synthetic.seed": (int, 0),
    "decompose.levels": (int, None),  # defaults to n_stacks - 1
    "decompose.kind": (str, None),  # defaults to model wavelet kind
    "ablate.repetitions": (int, 3),
    "ablate.alpha_grid": (list, [0.0, 0.4, 1.0]),
    "ablate.stacks_grid": (list, [2, 3, 4]),
    "ablate.conv_grid": (list, ["dcn", "cnn", "maxpool", "avgpool"]),
    "ablate.ensemble_grid": (list, [1, 3, 5]),
    "ablate.noise_grid": (list, [0.025, 0.05, 0.075]),
}


def _check_type(key, value) -> None:
    """An int passes where a float is expected; a bool never passes as a
    number."""
    kind, default = _TOP_LEVEL[key]
    if value is None and default is None:
        return
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (
            isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")


@dataclass
class RunConfig:
    model: ModelConfig
    train: TrainConfig
    ensemble: EnsembleConfig
    options: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.options[key]


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines; values use JSON literals where they
    parse, bare strings otherwise."""
    entries = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in entries:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        entries[key] = _parse_value(raw)
    return entries


def _section_fields(cls):
    return {f.name for f in fields(cls)}


def load_run_config(path=None, text=None, overrides=None) -> RunConfig:
    """Build a fully validated RunConfig; unknown keys are rejected."""
    if text is None:
        with open(path) as fh:
            text = fh.read()
    entries = parse_config_text(text)
    if overrides:
        entries.update(overrides)
    if entries.get("spec_version", SPEC_VERSION) != SPEC_VERSION:
        raise ConfigError(
            f"unsupported spec_version {entries.get('spec_version')!r}")

    sections = {"model": {}, "train": {}, "ensemble": {}}
    section_classes = {"model": ModelConfig, "train": TrainConfig,
                       "ensemble": EnsembleConfig}
    options = {key: default for key, (_, default) in _TOP_LEVEL.items()}
    for key, value in entries.items():
        head, _, rest = key.partition(".")
        if head in sections and rest:
            if rest not in _section_fields(section_classes[head]):
                raise ConfigError(f"unknown key {key!r}")
            sections[head][rest] = value
        elif key in _TOP_LEVEL:
            _check_type(key, value)
            options[key] = value
        else:
            raise ConfigError(f"unknown key {key!r}")
    try:
        model = ModelConfig(**sections["model"])
        train = TrainConfig(**sections["train"])
        ensemble = EnsembleConfig(**sections["ensemble"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if options["decompose.levels"] is None:
        options["decompose.levels"] = max(1, model.n_stacks - 1)
    if options["decompose.kind"] is None:
        options["decompose.kind"] = model.wavelet_kind
    fracs = (options["split.train"], options["split.val"],
             options["split.test"])
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ConfigError("split fractions must sum to 1")
    return RunConfig(model=model, train=train, ensemble=ensemble,
                     options=options)


def resolved_config_text(run: RunConfig) -> str:
    """Serialize the fully-defaulted configuration back to the key-value
    format, deterministically ordered."""
    from dataclasses import asdict
    lines = [f"spec_version = {SPEC_VERSION}"]
    for key in sorted(k for k in run.options if k != "spec_version"):
        lines.append(f"{key} = {json.dumps(run.options[key])}")
    for section, cfg in (("model", run.model), ("train", run.train),
                         ("ensemble", run.ensemble)):
        for name, value in sorted(asdict(cfg).items()):
            if isinstance(value, tuple):
                value = list(value)
            lines.append(f"{section}.{name} = {json.dumps(value)}")
    return "\n".join(lines) + "\n"
