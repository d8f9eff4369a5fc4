"""Experiment configuration: INI-style sections, strict validation, round-trips.

Format: sections [model], [protocol], [run], [output], optional [sweep].
Keys are lower_snake_case; unknown keys are rejected with the offending
section.key named.  Hamiltonian term lists are semicolon-separated
"coefficient letters" entries, e.g. ``h0 = -1.0 XI; -1.0 IX`` (letter 0 is
the leftmost qubit).  Physical quantities are in units of delta0 = 1
unless overridden.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_type_hints

from .engine import BATH_STATES, MAX_TOLERANCE
from .model import SCHEDULE_KINDS
from .pauli import PauliString

PRESETS = ("universal-2local",)
GROUP_PRESETS = ("universal", "global-x", "none")

_EXPLICIT_KEYS = ("tau", "w", "cycles", "total_time")
_SCALING_KEYS = ("zeta", "z", "epsilon1", "epsilon2", "c_tau", "c_w")


class ConfigError(ValueError):
    """Configuration file failed to parse or validate."""


@dataclass
class ModelConfig:
    n: int = 4
    n_b: int = 1
    code: bool = True
    preset: str | None = "universal-2local"
    h0: str | None = None
    h1: str | None = None
    schedule: str = "smooth-endpoint"
    delta0: float = 1.0
    j: float = 0.1
    beta_b: float = 1.0
    e_p: float = 0.0
    penalty_during_pulse: bool = True
    seed: int = 1234


@dataclass
class ProtocolConfig:
    group: str = "universal"
    tau: float | None = None
    w: float | None = None
    cycles: int | None = None
    total_time: float | None = None
    zeta: float | None = None
    z: float | None = None
    epsilon1: float | None = None
    epsilon2: float | None = None
    c_tau: float = 1.0
    c_w: float = 1.0

    @property
    def uses_scaling_rule(self) -> bool:
        return self.zeta is not None


@dataclass
class RunConfig:
    r: int = 1
    tolerance: float = 1e-10
    bath_state: str = "maximally-mixed"
    alpha: float = 1.0


@dataclass
class OutputConfig:
    out_dir: str = "out"
    prefix: str = "run"


@dataclass
class ExperimentConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    run: RunConfig = field(default_factory=RunConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


@dataclass
class SweepSpec:
    base: ExperimentConfig
    axes: list[tuple[str, list[float]]]


_SECTIONS = {
    "model": ModelConfig,
    "protocol": ProtocolConfig,
    "run": RunConfig,
    "output": OutputConfig,
}

_BOOL_VALUES = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False}


def parse_terms(text: str, n: int, key: str) -> list[tuple[float, PauliString]]:
    """Parse a semicolon-separated "coefficient letters" term list."""
    terms = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split()
        if len(parts) != 2:
            raise ConfigError(f"{key}: term {chunk!r} is not 'coefficient letters'")
        try:
            coeff = float(parts[0])
        except ValueError as exc:
            raise ConfigError(f"{key}: bad coefficient in {chunk!r}") from exc
        letters = parts[1].upper()
        if len(letters) != n:
            raise ConfigError(
                f"{key}: term {chunk!r} acts on {len(letters)} qubits, expected {n}"
            )
        try:
            terms.append((coeff, PauliString.from_letters(letters)))
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    return terms


def _coerce(section: str, key: str, raw: str, target_type):
    raw = raw.strip()
    if target_type is bool:
        low = raw.lower()
        if low not in _BOOL_VALUES:
            raise ConfigError(f"{section}.{key}: expected a boolean, got {raw!r}")
        return _BOOL_VALUES[low]
    if target_type is int:
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}") from exc
        if value != int(value):
            raise ConfigError(f"{section}.{key}: expected an integer, got {raw!r}")
        return int(value)
    if target_type is float:
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: expected a number, got {raw!r}") from exc
    # empty string clears an optional text field (e.g. `preset =`)
    return raw if raw else None


def _field_types(cls) -> dict[str, type]:
    """Field name -> the type a value is coerced to; ``X | None`` gives X."""
    out = {}
    for name, hint in get_type_hints(cls).items():
        scalar = [arg for arg in get_args(hint) if arg is not type(None)]
        out[name] = scalar[0] if scalar else hint
    return out


def loads_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration from text."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTIONS and section != "sweep":
            raise ConfigError(f"unknown section [{section}]")
    cfg = ExperimentConfig()
    for section, cls in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        target = getattr(cfg, section)
        types = _field_types(cls)
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown key {section}.{key}")
            setattr(target, key, _coerce(section, key, raw, types[key]))
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def load_sweep(path: str) -> SweepSpec:
    """Load a configuration with a [sweep] section of axis definitions."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    base = loads_config(text)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
    parser.read_string(text)
    if not parser.has_section("sweep"):
        raise ConfigError("no [sweep] section in configuration")
    axes = []
    for path_key, raw in parser.items("sweep"):
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"sweep axis {path_key} has no values")
        _resolve_path(base, path_key)  # raises on bad path
        axes.append((path_key, [_axis_value(path_key, v) for v in values]))
    if not axes:
        raise ConfigError("sweep section defines no axes")
    return SweepSpec(base=base, axes=axes)


def _axis_value(path: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"sweep axis {path}: expected a number, got {raw!r}") from exc


def _resolve_path(cfg: ExperimentConfig, path: str):
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in _SECTIONS:
        raise ConfigError(f"sweep axis {path!r} must be section.key")
    section = getattr(cfg, parts[0])
    types = _field_types(type(section))
    if parts[1] not in types:
        raise ConfigError(f"sweep axis {path!r} names an unknown key")
    if types[parts[1]] not in (int, float):
        raise ConfigError(f"sweep axis {path!r} is not numeric")
    return section, parts[1], types[parts[1]]


def apply_override(cfg: ExperimentConfig, path: str, value: float) -> ExperimentConfig:
    """Copy of ``cfg`` with one dotted-path numeric field replaced."""
    section_name, key = path.split(".")
    section, key, typ = _resolve_path(cfg, path)
    if typ is int:
        if value != int(value):
            raise ConfigError(f"{path}: expected an integer, got {value}")
        value = int(value)
    new_section = replace(section, **{key: value})
    return replace(cfg, **{section_name: new_section})


def validate_config(cfg: ExperimentConfig) -> None:
    m, p, r = cfg.model, cfg.protocol, cfg.run
    if m.n < 1:
        raise ConfigError("model.n must be at least 1")
    if m.n_b < 1:
        raise ConfigError("model.n_b must be at least 1")
    if m.n + m.n_b > 12:
        raise ConfigError("model.n + model.n_b exceeds the dense-simulation cap of 12")
    if m.schedule not in SCHEDULE_KINDS:
        raise ConfigError(f"model.schedule must be one of {SCHEDULE_KINDS}")
    if m.preset is not None and m.preset not in PRESETS:
        raise ConfigError(f"model.preset must be one of {PRESETS}")
    if m.preset is None and (m.h0 is None or m.h1 is None):
        raise ConfigError("model needs either a preset or both h0 and h1 term lists")
    if m.preset is not None and (m.h0 is not None or m.h1 is not None):
        raise ConfigError("model.preset and explicit h0/h1 term lists are exclusive")
    if m.code:
        if m.n % 2 != 0 or m.n < 2:
            raise ConfigError("model.code requires an even n >= 2")
        if m.n == 2 and m.preset is not None:
            raise ConfigError("model.n = 2 encodes zero logical qubits; preset needs n >= 4")
    if m.j < 0:
        raise ConfigError("model.j must be nonnegative")
    if m.beta_b < 0:
        raise ConfigError("model.beta_b must be nonnegative")
    if m.e_p < 0:
        raise ConfigError("model.e_p must be nonnegative")
    if m.e_p > 0:
        if not m.code:
            raise ConfigError("model.e_p needs encoded mode (the penalty lives on the code)")
        if m.n % 4 != 0:
            raise ConfigError("model.e_p needs n = 0 (mod 4); see the stabilizer phase caveat")
    if m.delta0 <= 0:
        raise ConfigError("model.delta0 must be positive")

    if p.group not in GROUP_PRESETS:
        raise ConfigError(f"protocol.group must be one of {GROUP_PRESETS}")
    explicit = [k for k in _EXPLICIT_KEYS if getattr(p, k) is not None]
    scaling = [k for k in _SCALING_KEYS[:4] if getattr(p, k) is not None]
    if scaling and explicit:
        raise ConfigError(
            f"protocol mixes explicit keys {explicit} with scaling-rule keys {scaling}"
        )
    if p.uses_scaling_rule:
        for key in ("epsilon1", "epsilon2"):
            if getattr(p, key) is None:
                raise ConfigError(f"protocol.{key} is required with a scaling rule")
        if m.j <= 0:
            raise ConfigError("scaling-rule protocol needs model.j > 0")
    else:
        if p.tau is None:
            raise ConfigError("protocol.tau is required (or use a scaling rule)")
        if p.tau <= 0:
            raise ConfigError("protocol.tau must be positive")
        if p.w is not None and p.w < 0:
            raise ConfigError("protocol.w must be nonnegative")
        have_cycles = p.cycles is not None
        have_total = p.total_time is not None
        if have_cycles == have_total:
            raise ConfigError("protocol needs exactly one of cycles or total_time")
        if have_cycles and p.cycles < 1:
            raise ConfigError("protocol.cycles must be at least 1")
        if have_total and p.total_time <= 0:
            raise ConfigError("protocol.total_time must be positive")

    if r.r < 1:
        raise ConfigError("run.r must be an integer >= 1")
    if r.tolerance <= 0:
        raise ConfigError("run.tolerance must be positive")
    if r.tolerance > MAX_TOLERANCE:
        raise ConfigError(
            f"run.tolerance must be at most {MAX_TOLERANCE:g}: above it the "
            "integrator's error estimate can undershoot the true error"
        )
    if r.bath_state not in BATH_STATES:
        raise ConfigError(f"run.bath_state must be one of {BATH_STATES}")
    if r.alpha < 0:
        raise ConfigError("run.alpha must be nonnegative: it scales a budget term")
    if m.h0 is not None:
        k = m.n - 2 if m.code else m.n
        parse_terms(m.h0, k, "model.h0")
        parse_terms(m.h1, k, "model.h1")


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a configuration back to its file format."""
    out = io.StringIO()
    for section, cls in _SECTIONS.items():
        obj = getattr(cfg, section)
        out.write(f"[{section}]\n")
        for f in fields(cls):
            value = getattr(obj, f.name)
            if value is None:
                continue
            if isinstance(value, bool):
                value = "true" if value else "false"
            out.write(f"{f.name} = {value}\n")
        out.write("\n")
    return out.getvalue()
