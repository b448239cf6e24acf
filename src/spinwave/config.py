"""Line-oriented ``key = value`` run configuration.

Full-line and trailing ``#`` comments are allowed.  Unknown keys, duplicate
keys, type mismatches and constraint violations are hard errors that name
the key and line.  Serialization round-trips exactly: floats are written
with ``repr`` (shortest form that parses back to the same value).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .entanglement import DEFAULT_PAIRING_TOL
from .model import LatticeSpec
from .scan import DEFAULT_STEP

# CPython's built-in SHA-256, as random.py takes its SHA-512: hashlib would map
# OpenSSL's libcrypto (3.5 MB resident) into every process for one short digest
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.11
    except ImportError:  # a build without the built-in SHA-2
        from hashlib import sha256


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    # model parameters, energies in units of kappa
    omega: float = 500.0
    kappa: float = 1.0
    n_atoms: int = 1000
    g1: float = 1.25
    g2: float = 1.25
    # lattice
    side: int = 80
    boundary: str = "periodic"
    # engine ("auto" or the lattice's own, LatticeSpec.engine) and entropy
    engine: str = "auto"
    entropy_mode: str = "degenerate_once"
    pairing_tol: float = DEFAULT_PAIRING_TOL
    block_sizes: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
    # sweep axis (g1 = g2 = g); g_max "auto" means g_c - 1e-4
    g_min: float = 1.0
    g_max: float | str = "auto"
    g_samples: int = 200
    derivative_step: float = DEFAULT_STEP
    m_list: tuple[int, ...] = (21, 31, 41)
    # phase-diagram axis
    phase_g1_min: float = 0.0
    phase_g1_max: float = 3.0
    phase_g1_samples: int = 31
    # covariance dump extent (infinite engine)
    max_displacement: int = 6
    # output
    output: str = "-"
    out_dir: str = "."
    format: str = "csv"

    @property
    def lattice(self) -> LatticeSpec:
        """The lattice these fields name; ``side`` is ignored when infinite."""
        return LatticeSpec(None if self.boundary == "infinite" else self.side, self.boundary)


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    items = tuple(int(part.strip()) for part in raw.split(",") if part.strip())
    if not items:
        raise ValueError("expected a comma-separated list of integers")
    return items


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_float_or_auto(raw: str):
    return "auto" if raw == "auto" else _parse_float(raw)


_CHOICES = {
    "boundary": ("periodic", "open", "infinite"),
    "engine": ("auto", "dense", "fft", "infinite"),
    "entropy_mode": ("degenerate_once", "count_all"),
    "format": ("csv", "json"),
}

_PARSERS = {"tuple[int, ...]": _parse_int_tuple, "float": _parse_float, "int": int}


def _field_parser(f):
    return _parse_float_or_auto if f.name == "g_max" else _PARSERS.get(f.type, str)


_POSITIVE = {"omega", "kappa", "pairing_tol", "derivative_step"}
_AT_LEAST_ONE = {"n_atoms", "g_samples", "phase_g1_samples"}
_NON_NEGATIVE = {"g1", "g2", "g_min", "phase_g1_min", "max_displacement"}


def _check_constraints(name: str, value, line: int) -> None:
    def fail(msg):
        raise ConfigError(f"invalid value for '{name}' (line {line}): {msg}")

    if name in _CHOICES and value not in _CHOICES[name]:
        fail(f"must be one of {', '.join(_CHOICES[name])}")
    if name in _POSITIVE and not value > 0:
        fail("must be positive")
    if name in _AT_LEAST_ONE and value < 1:
        fail("must be >= 1")
    if name in _NON_NEGATIVE and value < 0:
        fail("must be >= 0")
    if name == "side" and value < 2:
        fail("must be >= 2")
    if name in ("block_sizes", "m_list"):
        if any(v < 1 for v in value):
            fail("entries must be >= 1")
        if any(b <= a for a, b in zip(value, value[1:])):
            fail("entries must be strictly increasing")


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a validated RunConfig."""
    known = {f.name: f for f in fields(RunConfig)}
    values: dict = {}
    seen_lines: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' (line {lineno}): {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in known:
            raise ConfigError(f"unknown key '{key}' (line {lineno})")
        if key in values:
            raise ConfigError(f"duplicate key '{key}' (line {lineno}, "
                              f"first set on line {seen_lines[key]})")
        try:
            value = _field_parser(known[key])(raw_value)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}' (line {lineno}): {exc}") from None
        _check_constraints(key, value, lineno)
        values[key] = value
        seen_lines[key] = lineno
    cfg = RunConfig(**values)
    _validate_cross_fields(cfg)
    return cfg


def _validate_cross_fields(cfg: RunConfig) -> None:
    try:
        lattice = cfg.lattice
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg.engine not in ("auto", lattice.engine):
        raise ConfigError(f"engine = {cfg.engine} does not run this lattice, whose engine "
                          f"is {lattice.engine}; set engine = auto or {lattice.engine}")
    if cfg.g_max != "auto" and cfg.g_max < cfg.g_min:
        raise ConfigError("g_max must be >= g_min")
    if cfg.phase_g1_max < cfg.phase_g1_min:
        raise ConfigError("phase_g1_max must be >= phase_g1_min")


def format_value(value) -> str:
    """A value as configs and CSV cells write it; floats by ``repr`` (module notes)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig, skip=()) -> str:
    """One ``key = value`` line per field, the fields named in ``skip`` left out."""
    return "".join(f"{f.name} = {format_value(getattr(cfg, f.name))}\n"
                   for f in fields(cfg) if f.name not in skip)


# Where and how results land does not change the numbers, so those fields
# stay out of the digest.
_NON_PHYSICS_FIELDS = {"output", "out_dir", "format"}


def config_digest(cfg: RunConfig) -> str:
    # the physics fields' lines, hashed without the last newline
    text = serialize_config(cfg, _NON_PHYSICS_FIELDS)[:-1]
    return sha256(text.encode()).hexdigest()[:12]
