"""Run configuration: one JSON document, every key defaulted.

An empty config runs the whole desk-scale pipeline. Heavier settings
(longer schedules, more steps, higher ranks) are reachable by overriding
the same keys.
"""

import dataclasses
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field

from .exceptions import ConfigInvalid

ENV_CONFIG = "CRAFTLORA_CONFIG"


# What each annotated field type admits: an int field takes an integer and
# a float field any real number, neither a bool; a str field takes a
# string, and a tuple field (a guidance window) two integers.
_FIELD_TYPES = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
    tuple: (tuple, "a pair of integers"),
}


def _has_type(value, kind):
    """Whether a field annotated ``kind`` admits ``value``."""
    if kind is tuple:
        return (
            isinstance(value, tuple) and len(value) == 2 and all(_has_type(v, int) for v in value)
        )
    return not isinstance(value, bool) and isinstance(value, _FIELD_TYPES[kind][0])


def _check_types(settings, label):
    """``ConfigInvalid`` naming the first field of a settings dataclass whose
    value its annotated type does not admit."""
    for f in dataclasses.fields(settings):
        value = getattr(settings, f.name)
        if not _has_type(value, f.type):
            raise ConfigInvalid(
                f"{label}.{f.name} must be {_FIELD_TYPES[f.type][1]}, got {value!r}"
            )


def _validate_rates(settings, label):
    """Refuse a training schedule that is not a finite ``peak_lr`` > 0,
    finite ``start_lr`` and ``floor_lr`` >= 0 and a ``warmup`` >= 0."""
    for key in ("peak_lr", "start_lr", "floor_lr"):
        value = getattr(settings, key)
        if not math.isfinite(value) or value < 0.0:
            raise ConfigInvalid(f"{label}.{key} must be finite and nonnegative, got {value!r}")
    if settings.peak_lr == 0.0:
        raise ConfigInvalid(f"{label}.peak_lr must be positive")
    if settings.warmup < 0:
        raise ConfigInvalid(f"{label}.warmup must be nonnegative, got {settings.warmup!r}")


@dataclass
class ScheduleSettings:
    total_steps: int = 50
    beta_start: float = 0.002
    beta_end: float = 0.25

    def validate(self):
        _check_types(self, "schedule")
        if self.total_steps < 1:
            raise ConfigInvalid("schedule.total_steps must be positive")
        if not 0.0 < self.beta_start <= self.beta_end < 1.0:
            raise ConfigInvalid("schedule betas must satisfy 0 < start <= end < 1")


@dataclass
class DenoiserSettings:
    image_size: int = 16
    hidden_width: int = 64
    n_layers: int = 8
    train_steps: int = 1200
    batch_size: int = 8
    peak_lr: float = 3e-3
    start_lr: float = 3e-4
    floor_lr: float = 3e-4
    warmup: int = 100
    cond_dropout: float = 0.1

    def validate(self):
        _check_types(self, "denoiser")
        if self.image_size < 4:
            raise ConfigInvalid("denoiser.image_size must be at least 4")
        if self.n_layers < 2:
            raise ConfigInvalid("denoiser.n_layers must be at least 2")
        if self.train_steps < 0 or self.batch_size < 1:
            raise ConfigInvalid("denoiser training steps/batch are invalid")
        if not 0.0 <= self.cond_dropout < 1.0:
            raise ConfigInvalid("denoiser.cond_dropout must lie in [0, 1)")
        _validate_rates(self, "denoiser")


@dataclass
class TrunkSettings:
    r_max: int = 16
    r_min: int = 4
    steps: int = 500
    batch_size: int = 4
    peak_lr: float = 1e-3
    start_lr: float = 1e-4
    floor_lr: float = 5e-5
    warmup: int = 50
    lambda_reg: float = 1e-4
    alpha_perc: float = 0.1

    def validate(self):
        _check_types(self, "trunk")
        if not self.r_max >= self.r_min >= 1:
            raise ConfigInvalid("trunk ranks must satisfy r_max >= r_min >= 1")
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigInvalid("trunk steps/batch are invalid")
        if self.lambda_reg < 0.0 or self.alpha_perc < 0.0:
            raise ConfigInvalid("trunk.lambda_reg and trunk.alpha_perc must be nonnegative")
        _validate_rates(self, "trunk")


@dataclass
class AdapterSettings:
    rank: int = 16
    steps: int = 1000
    batch_size: int = 1
    peak_lr: float = 5e-3
    start_lr: float = 5e-4
    floor_lr: float = 5e-4
    warmup: int = 50

    def validate(self):
        _check_types(self, "adapter")
        if self.rank < 1:
            raise ConfigInvalid("adapter.rank must be positive")
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigInvalid("adapter steps/batch are invalid")
        _validate_rates(self, "adapter")


@dataclass
class GuidanceSettings:
    omega: float = 7.5
    content_window: tuple = (1, 35)
    style_window: tuple = (15, 50)
    alpha_min: float = 0.5
    alpha_max: float = 1.0
    ramp: str = "cosine"

    def validate(self, total_steps):
        _check_types(self, "guidance")
        if self.omega < 0.0:
            raise ConfigInvalid("guidance.omega must be nonnegative")
        for label, window in (("content", self.content_window), ("style", self.style_window)):
            if not 1 <= window[0] <= window[1] <= total_steps:
                raise ConfigInvalid(
                    f"guidance.{label}_window must lie inside [1, {total_steps}]"
                )
        if self.alpha_min > self.alpha_max:
            raise ConfigInvalid("guidance.alpha_min must not exceed alpha_max")
        if self.ramp not in ("cosine", "linear"):
            raise ConfigInvalid("guidance.ramp must be 'cosine' or 'linear'")


@dataclass
class DatasetSettings:
    sigma: float = 0.35
    n_content: int = 10
    n_style: int = 10
    mode: str = "synthetic"

    def validate(self):
        _check_types(self, "dataset")
        if not 0.0 < self.sigma <= 1.0:
            raise ConfigInvalid("dataset.sigma must lie in (0, 1]")
        if self.n_content < 1 or self.n_style < 1:
            raise ConfigInvalid("dataset sizes must be positive")
        if self.mode not in ("synthetic", "diffusion"):
            raise ConfigInvalid("dataset.mode must be 'synthetic' or 'diffusion'")


@dataclass
class RunConfig:
    seed: int = 0
    schedule: ScheduleSettings = field(default_factory=ScheduleSettings)
    denoiser: DenoiserSettings = field(default_factory=DenoiserSettings)
    trunk: TrunkSettings = field(default_factory=TrunkSettings)
    adapter: AdapterSettings = field(default_factory=AdapterSettings)
    guidance: GuidanceSettings = field(default_factory=GuidanceSettings)
    dataset: DatasetSettings = field(default_factory=DatasetSettings)

    def validate(self):
        if not _has_type(self.seed, int):
            raise ConfigInvalid(f"seed must be an integer, got {self.seed!r}")
        self.schedule.validate()
        self.denoiser.validate()
        self.trunk.validate()
        self.adapter.validate()
        self.guidance.validate(self.schedule.total_steps)
        self.dataset.validate()
        return self

    def to_dict(self):
        doc = dataclasses.asdict(self)
        doc["guidance"]["content_window"] = list(self.guidance.content_window)
        doc["guidance"]["style_window"] = list(self.guidance.style_window)
        return doc


_SECTIONS = {
    "schedule": ScheduleSettings,
    "denoiser": DenoiserSettings,
    "trunk": TrunkSettings,
    "adapter": AdapterSettings,
    "guidance": GuidanceSettings,
    "dataset": DatasetSettings,
}


def _build_section(cls, doc, label):
    if not isinstance(doc, dict):
        raise ConfigInvalid(f"config section {label!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigInvalid(f"unknown keys in {label!r}: {sorted(unknown)}")
    values = dict(doc)
    for key in ("content_window", "style_window"):
        if isinstance(values.get(key), list):
            values[key] = tuple(values[key])
    return cls(**values)


def config_from_dict(doc):
    if not isinstance(doc, dict):
        raise ConfigInvalid("the config document must be a JSON object")
    unknown = set(doc) - (set(_SECTIONS) | {"seed"})
    if unknown:
        raise ConfigInvalid(f"unknown top-level config keys: {sorted(unknown)}")
    kwargs = {"seed": doc["seed"]} if "seed" in doc else {}
    for label, cls in _SECTIONS.items():
        if label in doc:
            kwargs[label] = _build_section(cls, doc[label], label)
    return RunConfig(**kwargs).validate()


def _reject_constant(name):
    raise ConfigInvalid(f"config values must be finite numbers, got {name}")


def load_config(path=None):
    """Load a config file, falling back to $CRAFTLORA_CONFIG, then defaults.

    The non-standard JSON literals NaN, Infinity and -Infinity are refused.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return RunConfig().validate()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(doc)


def config_hash(config):
    """Stable hash of the canonical config document."""
    canon = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
