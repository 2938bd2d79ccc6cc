"""Declarative run configuration: a plain-text key-value document that is
fully validated before any compute, with every default echoed back beside
the run outputs."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Union, get_args, get_origin, get_type_hints

from .ensemble import EnsembleConfig
from .errors import ConfigError
from .model import CONV_VARIANTS, ModelConfig
from .training import TrainConfig
from .wavelet import FilterKind

SPEC_VERSION = 1

# keys outside the model./train./ensemble. sections: (type, default,
# lower bound of the value or of each list element, or None)
_TOP_LEVEL = {
    "spec_version": (int, SPEC_VERSION, None),
    "data": (str, None, None),
    "value_column": (str, "value", None),
    "stride": (int, 1, 1),
    "standardize": (bool, True, None),
    "split.train": (float, 0.70, 0),
    "split.val": (float, 0.10, 0),
    "split.test": (float, 0.20, 0),
    "synthetic.length": (int, 480, 1),
    "synthetic.noise": (float, 0.0, 0),
    "synthetic.seed": (int, 0, 0),
    "decompose.levels": (int, None, 1),  # defaults to n_stacks - 1
    "decompose.kind": (str, None, None),  # defaults to model wavelet kind
    "ablate.repetitions": (int, 3, 1),
    "ablate.alpha_grid": (list[float], [0.0, 0.4, 1.0], 0),
    "ablate.stacks_grid": (list[int], [2, 3, 4], 1),
    "ablate.conv_grid": (list[str], ["dcn", "cnn", "maxpool", "avgpool"],
                         None),
    "ablate.ensemble_grid": (list[int], [1, 3, 5], 1),
    "ablate.noise_grid": (list[float], [0.025, 0.05, 0.075], 0),
}

_SECTIONS = {"model": ModelConfig, "train": TrainConfig,
             "ensemble": EnsembleConfig}

# every accepted key; a section key is typed by its dataclass annotation
_SCHEMA = {key: (kind, default)
           for key, (kind, default, _) in _TOP_LEVEL.items()} | {
    f"{head}.{name}": (kind, getattr(cls, name))
    for head, cls in _SECTIONS.items()
    for name, kind in get_type_hints(cls).items()}


def _typed(kind, value):
    """`value` as `kind`, or TypeError (JSON bools are never numbers)."""
    if get_origin(kind) in (list, tuple) and isinstance(value, (list, tuple)):
        return get_origin(kind)(_typed(get_args(kind)[0], v) for v in value)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or kind is float and not math.isfinite(value):
        raise TypeError
    return value


def _check_type(key, value):
    """`value` typed as `_SCHEMA` types `key`.  `null` passes where the type
    is Optional or the default is None; each list element is checked; a
    float must be finite, and an int given for one comes back a float."""
    kind, default = _SCHEMA[key]
    if get_origin(kind) is Union:  # Optional[X]
        kind, default = get_args(kind)[0], None
    if value is None and default is None:
        return None
    try:
        return _typed(kind, value)
    except (TypeError, OverflowError):
        name = kind.__name__ if isinstance(kind, type) else str(kind)
        raise ConfigError(f"{key} must be {name}, got {value!r}") from None


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


def load_run_config(path=None, text=None) -> RunConfig:
    """Build a fully validated RunConfig; unknown keys are rejected."""
    if text is None:
        with open(path) as fh:
            text = fh.read()
    entries = parse_config_text(text)
    if entries.get("spec_version", SPEC_VERSION) != SPEC_VERSION:
        raise ConfigError(
            f"unsupported spec_version {entries.get('spec_version')!r}")

    sections = {head: {} for head in _SECTIONS}
    options = {key: default for key, (_, default, _) in _TOP_LEVEL.items()}
    for key, value in entries.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}")
        value = _check_type(key, value)
        head, _, rest = key.partition(".")
        if head in sections:
            sections[head][rest] = value
        else:
            options[key] = value
    built = {}
    for head, cls in _SECTIONS.items():
        try:
            built[head] = cls(**sections[head])
        except ValueError as exc:
            raise ConfigError(f"{head}: {exc}") from exc
    if options["decompose.levels"] is None:
        options["decompose.levels"] = max(1, built["model"].n_stacks - 1)
    if options["decompose.kind"] is None:
        options["decompose.kind"] = built["model"].wavelet_kind
    for key, values in options.items():
        if key.endswith("_grid") and not values:
            raise ConfigError(f"{key} must hold at least one value")
    for key, (_, _, low) in _TOP_LEVEL.items():
        if low is None:
            continue
        values = options[key]
        if not isinstance(values, list):
            values = [values]
        if any(value < low for value in values):
            raise ConfigError(f"{key} must be >= {low}")
    if any(value > 1 for value in options["ablate.alpha_grid"]):
        raise ConfigError("ablate.alpha_grid must be <= 1")
    unknown = set(options["ablate.conv_grid"]) - set(CONV_VARIANTS)
    if unknown:
        raise ConfigError(f"ablate.conv_grid: unknown conv variant "
                          f"{sorted(unknown)}; expected one of "
                          f"{CONV_VARIANTS}")
    if options["decompose.kind"] not in list(FilterKind):
        raise ConfigError(
            f"unknown decompose.kind {options['decompose.kind']!r}")
    fracs = (options["split.train"], options["split.val"],
             options["split.test"])
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ConfigError("split fractions must sum to 1")
    return RunConfig(**built, options=options)


def resolved_config_text(run: RunConfig) -> str:
    """Serialize the fully-defaulted configuration back to the key-value
    format, deterministically ordered."""
    lines = [f"spec_version = {SPEC_VERSION}"]
    for key in sorted(k for k in run.options if k != "spec_version"):
        lines.append(f"{key} = {json.dumps(run.options[key])}")
    for section in _SECTIONS:
        for name, value in sorted(asdict(getattr(run, section)).items()):
            lines.append(f"{section}.{name} = {json.dumps(value)}")
    return "\n".join(lines) + "\n"
