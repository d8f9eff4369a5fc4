"""Experiment configuration: INI-style sections and strict validation.

Format: sections [model], [protocol], [run], [output], optional [sweep].
Keys are lower_snake_case; unknown keys are rejected with the offending
section.key named, and so are numbers that are not finite.  Hamiltonian
term lists are semicolon-separated "coefficient letters" entries, e.g.
``h0 = -1.0 XI; -1.0 IX`` (letter 0 is the leftmost qubit).  Physical
quantities are in units of delta0 = 1 unless overridden.

Validation runs the builders: :func:`validate_config` ends with
:func:`build_parts`, the dense-free half of ``runner.build_model`` (group,
scaling rule, pulse schedule, schedule kind and encoded terms).  So a
configuration the paper's conditions exclude -- a pulse as wide as its
slot, eps1 <= 1, zeta inconsistent with z, a logical term without a
2-local encoding -- is refused when it is loaded, and a sweep point before
any point runs, with the builder's own message.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from typing import get_args, get_type_hints

from . import codes, model, protocols
from .engine import BATH_STATES, MAX_TOLERANCE
from .pauli import PauliString

PRESETS = ("universal-2local",)
GROUPS = {
    "universal": codes.universal_group,
    "global-x": codes.global_x_group,
    "none": codes.trivial_group,
}

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
    c_tau: float | None = None
    c_w: float | None = None

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


def _finite(raw: str) -> float | None:
    """``raw`` as a float, or None when it is not a finite number."""
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


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
        coeff = _finite(parts[0])
        if coeff is None:
            raise ConfigError(f"{key}: bad coefficient in {chunk!r}")
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
    if target_type in (int, float):
        value = _finite(raw)
        if value is None or (target_type is int and value != int(value)):
            kind = "an integer" if target_type is int else "a finite number"
            raise ConfigError(f"{section}.{key}: expected {kind}, got {raw!r}")
        return target_type(value)
    # empty string clears an optional text field (e.g. `preset =`)
    return raw if raw else None


def _field_types(cls) -> dict[str, type]:
    """Field name -> the type a value is coerced to; ``X | None`` gives X."""
    out = {}
    for name, hint in get_type_hints(cls).items():
        scalar = [arg for arg in get_args(hint) if arg is not type(None)]
        out[name] = scalar[0] if scalar else hint
    return out


# section -> key -> coercion type, resolved once
_SCHEMA = {section: _field_types(cls) for section, cls in _SECTIONS.items()}


def _parse(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc
    for section in parser.sections():
        if section not in _SCHEMA and section != "sweep":
            raise ConfigError(f"unknown section [{section}]")
    return parser


def _validated(parser: configparser.ConfigParser) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for section, types in _SCHEMA.items():
        if not parser.has_section(section):
            continue
        target = getattr(cfg, section)
        for key, raw in parser.items(section):
            if key not in types:
                raise ConfigError(f"unknown key {section}.{key}")
            setattr(target, key, _coerce(section, key, raw, types[key]))
    validate_config(cfg)
    return cfg


def loads_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration from text."""
    return _validated(_parse(text))


def load_config(path: str) -> ExperimentConfig:
    """Load and validate a configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_config(fh.read())


def load_sweep(path: str) -> SweepSpec:
    """Load a configuration with a [sweep] section of axis definitions."""
    with open(path, "r", encoding="utf-8") as fh:
        parser = _parse(fh.read())
    base = _validated(parser)
    if not parser.has_section("sweep"):
        raise ConfigError("no [sweep] section in configuration")
    axes = []
    for path_key, raw in parser.items("sweep"):
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise ConfigError(f"sweep axis {path_key} has no values")
        section, key, _ = _resolve_path(path_key)
        axes.append((path_key, [_coerce(section, key, v, float) for v in values]))
    if not axes:
        raise ConfigError("sweep section defines no axes")
    return SweepSpec(base=base, axes=axes)


def _resolve_path(path: str) -> tuple[str, str, type]:
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in _SCHEMA:
        raise ConfigError(f"sweep axis {path!r} must be section.key")
    section, key = parts
    typ = _SCHEMA[section].get(key)
    if typ is None:
        raise ConfigError(f"sweep axis {path!r} names an unknown key")
    if typ not in (int, float):
        raise ConfigError(f"sweep axis {path!r} is not numeric")
    return section, key, typ


def apply_override(cfg: ExperimentConfig, path: str, value: float) -> ExperimentConfig:
    """Copy of ``cfg`` with one dotted-path numeric field replaced."""
    section, key, typ = _resolve_path(path)
    if typ is int:
        if value != int(value):
            raise ConfigError(f"{path}: expected an integer, got {value}")
        value = int(value)
    return replace(cfg, **{section: replace(getattr(cfg, section), **{key: value})})


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ``ConfigError`` unless ``cfg`` can be built and run.

    The checks here cover what :func:`build_parts` does not build (bath,
    penalty, run settings) or name a key in their message; the rest is
    :func:`build_parts`, whose ``ValueError`` is re-raised as ``ConfigError``.
    """
    m, p, r = cfg.model, cfg.protocol, cfg.run
    if m.n < 1:
        raise ConfigError("model.n must be at least 1")
    if m.n_b < 1:
        raise ConfigError("model.n_b must be at least 1")
    if m.n + m.n_b > 12:
        raise ConfigError("model.n + model.n_b exceeds the dense-simulation cap of 12")
    if m.preset is not None and m.preset not in PRESETS:
        raise ConfigError(f"model.preset must be one of {PRESETS}")
    if m.preset is None and (m.h0 is None or m.h1 is None):
        raise ConfigError("model needs either a preset or both h0 and h1 term lists")
    if m.preset is not None and (m.h0 is not None or m.h1 is not None):
        raise ConfigError("model.preset and explicit h0/h1 term lists are exclusive")
    if m.code and (m.n % 2 != 0 or m.n < 2):
        raise ConfigError("model.code requires an even n >= 2")
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
    if m.seed < 0:
        raise ConfigError("model.seed must be nonnegative: it seeds the bath's generator")

    explicit = [k for k in _EXPLICIT_KEYS if getattr(p, k) is not None]
    scaling = [k for k in _SCALING_KEYS if getattr(p, k) is not None]
    if scaling and explicit:
        raise ConfigError(
            f"protocol mixes explicit keys {explicit} with scaling-rule keys {scaling}"
        )
    if p.uses_scaling_rule:
        for key in ("epsilon1", "epsilon2"):
            if getattr(p, key) is None:
                raise ConfigError(f"protocol.{key} is required with a scaling rule")
    else:
        if p.tau is None:
            raise ConfigError("protocol.tau is required (or use a scaling rule)")
        if p.tau <= 0:
            raise ConfigError("protocol.tau must be positive")
        have_cycles = p.cycles is not None
        have_total = p.total_time is not None
        if have_cycles == have_total:
            raise ConfigError("protocol needs exactly one of cycles or total_time")
        if have_total and p.total_time <= 0:
            raise ConfigError("protocol.total_time must be positive")

    if r.r < 1:
        raise ConfigError("run.r must be an integer >= 1")
    if not r.tolerance > 0:
        raise ConfigError("run.tolerance must be positive")
    if r.tolerance > MAX_TOLERANCE:
        raise ConfigError(
            f"run.tolerance must be at most {MAX_TOLERANCE:g}: above it the "
            "integrator's error estimate can undershoot the true error"
        )
    if r.bath_state not in BATH_STATES:
        raise ConfigError(f"run.bath_state must be one of {BATH_STATES}")
    if r.bath_state == "ground" and m.beta_b == 0:
        raise ConfigError("run.bath_state = ground needs model.beta_b > 0: "
                          "H_B = 0 has no unique ground state")
    if r.alpha < 0:
        raise ConfigError("run.alpha must be nonnegative: it scales a budget term")
    for key in ("out_dir", "prefix"):
        if not getattr(cfg.output, key):
            raise ConfigError(f"output.{key} must not be empty")
    try:
        build_parts(cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def build_parts(cfg: ExperimentConfig) -> tuple:
    """The dense-free half of ``runner.build_model``.

    Returns (h0_terms, h1_terms, schedule kind, pulse schedule, scaling
    rule or None), the terms on the n physical qubits.  Builds no dense
    operator, code basis, penalty or bath.  Each builder it calls enforces
    its own conditions by raising ``ValueError``.
    """
    m, p = cfg.model, cfg.protocol
    if p.group not in GROUPS:
        raise ConfigError(f"protocol.group must be one of {tuple(GROUPS)}")
    group = GROUPS[p.group](m.n)
    scaling_rule = None
    if p.uses_scaling_rule:
        scaling_rule = protocols.ScalingRule(
            zeta=p.zeta,
            epsilon1=p.epsilon1,
            epsilon2=p.epsilon2,
            delta0=m.delta0,
            j_coupling=m.j,
            z=p.z,
            # unset prefactors keep the rule's own defaults; c_w = 0 is valid
            **{k: getattr(p, k) for k in ("c_tau", "c_w") if getattr(p, k) is not None},
        )
        tau, w, _, l_pulses = protocols.scaled_parameters(scaling_rule, m.n, group.order)
        cycles = l_pulses // group.order
    else:
        tau = p.tau
        w = p.w if p.w is not None else 0.0
        cycles = p.cycles
        if cycles is None:
            # tau + w = 0 only for a negative w, which pdd_schedule refuses
            slot = tau + w
            cycles = max(1, round(p.total_time / (group.order * slot))) if slot else 1
    schedule = protocols.pdd_schedule(group, tau, w, cycles * cfg.run.r)

    k = m.n - 2 if m.code else m.n
    if m.preset is None:
        h0 = parse_terms(m.h0, k, "model.h0")
        h1 = parse_terms(m.h1, k, "model.h1")
    else:
        h0f, h1f, h0p, h1p = model.universal_2local_preset(k)
        h0 = model.universal_aqc_terms(h0f, h0p, k)
        h1 = model.universal_aqc_terms(h1f, h1p, k)
    if m.code:
        h0 = codes.encode_hamiltonian(h0, m.n)
        h1 = codes.encode_hamiltonian(h1, m.n)
    return h0, h1, model.Schedule(m.schedule), schedule, scaling_rule
