"""INI experiment configuration: parsing, validation, canonical hashing.

One config file drives every CLI subcommand.  All values have defaults
except the process rates, so a minimal file is just a [rates] section; an
unknown section or key is invalid input.  The canonical hash covers the
fully resolved configuration (after defaults and command-line overrides),
and is echoed into every output file so that a result can always be traced
to the exact inputs that produced it.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .initial import InitialCondition
from .model import _RATE_FIELDS, ProcessRates

__all__ = ["ExperimentConfig", "parse_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    rates: ProcessRates
    initial_kind: str = "polynomial"
    initial_coeffs: tuple[float, ...] = ()
    initial_rho: float = 0.0
    initial_a: float | None = None
    x_min: float = -1.0
    x_max: float = 1.0
    x_points: int = 41
    t_max: float = 1.0
    t_points: int = 11
    oracle_k_max: int = 200
    oracle_tol: float = 1e-10
    oracle_mass_tol: float = 1e-6
    steady_constants: tuple[float, float, float, float, int] | None = None
    mc_nodes: int = 2000
    mc_replicas: int = 20
    mc_seed: int = 12345
    mc_graph: str = "regular"
    mc_graph_degree: float = 2.0
    mc_k_max: int = 60
    mc_sample_times: tuple[float, ...] = (0.05, 0.1, 0.2)
    fit_t_min: float = 1.0
    fit_t_max: float | None = None
    fit_norm: str = "sup"
    bend_jump: float = 0.1
    out_dir: str = "out"

    def initial(self) -> InitialCondition:
        """Build (and validate) the initial generating function."""
        kind = self.initial_kind
        if kind == "polynomial":
            if not self.initial_coeffs:
                raise ValidationError("[initial] coeffs required for kind = polynomial")
            return InitialCondition.polynomial(self.initial_coeffs)
        if kind == "geometric":
            return InitialCondition.geometric(self.initial_rho, self.initial_a)
        if kind == "explicit":
            tail = None
            if self.initial_rho > 0.0:
                if self.initial_a is None:
                    raise ValidationError("[initial] a required when a tail rho is given")
                tail = (self.initial_a, self.initial_rho)
            return InitialCondition.explicit(self.initial_coeffs, tail)
        raise ValidationError(f"unknown initial kind {kind!r}")

    def x_grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.x_points)

    def t_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.t_points)

    def canonical(self) -> str:
        """Stable text form of the resolved configuration.

        The output directory is excluded: it locates results but does not
        change them, and the hash identifies the experiment itself.
        """
        parts = []
        for name in sorted(self.__dataclass_fields__):
            if name == "out_dir":
                continue
            value = getattr(self, name)
            if isinstance(value, ProcessRates):
                value = tuple(getattr(value, k) for k in (*_RATE_FIELDS, "m"))
            parts.append(f"{name}={value!r}")
        return ";".join(parts)

    @property
    def hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:16]

    def override(self, **kwargs) -> "ExperimentConfig":
        """Copy with the non-None fields replaced, validated like a parsed file."""
        kwargs = {k: v for k, v in kwargs.items() if v is not None}
        if not kwargs:
            return self
        cfg = replace(self, **kwargs)
        _validate(cfg)
        return cfg


def _read(parser, section, key, conv):
    raw = parser.get(section, key)
    try:
        return conv(raw)
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _floats(raw: str) -> tuple[float, ...]:
    items = [s.strip() for s in raw.replace(",", " ").split()]
    return tuple(float(s) for s in items if s)


def _parse_constants(raw: str) -> tuple[float, float, float, float, int]:
    vals = _floats(raw)
    if len(vals) != 5:
        raise ValidationError(f"constants need 5 values c1,c2,c3,c4,m, got {len(vals)}")
    c1, c2, c3, c4, m = vals
    if m != int(m) or m < 0:
        raise ValidationError(f"constants m must be a nonnegative integer, got {m!r}")
    return (c1, c2, c3, c4, int(m))


# (section, key) -> (ExperimentConfig field, converter).  A key missing from
# the file keeps the field's default.
_KEYS = {
    ("initial", "kind"): ("initial_kind", str),
    ("initial", "coeffs"): ("initial_coeffs", _floats),
    ("initial", "rho"): ("initial_rho", float),
    ("initial", "a"): ("initial_a", float),
    ("grid", "x_min"): ("x_min", float),
    ("grid", "x_max"): ("x_max", float),
    ("grid", "x_points"): ("x_points", int),
    ("grid", "t_max"): ("t_max", float),
    ("grid", "t_points"): ("t_points", int),
    ("oracle", "k_max"): ("oracle_k_max", int),
    ("oracle", "tol"): ("oracle_tol", float),
    ("oracle", "mass_tol"): ("oracle_mass_tol", float),
    ("steady", "constants"): ("steady_constants", _parse_constants),
    ("mc", "nodes"): ("mc_nodes", int),
    ("mc", "replicas"): ("mc_replicas", int),
    ("mc", "seed"): ("mc_seed", int),
    ("mc", "graph"): ("mc_graph", str),
    ("mc", "graph_degree"): ("mc_graph_degree", float),
    ("mc", "k_max"): ("mc_k_max", int),
    ("mc", "sample_times"): ("mc_sample_times", _floats),
    ("analysis", "fit_t_min"): ("fit_t_min", float),
    ("analysis", "fit_t_max"): ("fit_t_max", float),
    ("analysis", "norm"): ("fit_norm", str),
    ("analysis", "bend_jump"): ("bend_jump", float),
    ("output", "dir"): ("out_dir", str),
}


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate an experiment INI file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ValidationError(f"malformed config {path!r}: {exc}") from exc
    if not parser.has_section("rates"):
        raise ValidationError("config needs a [rates] section")
    # a misspelled or removed entry would otherwise be ignored without a word
    known = {("rates", key) for key in (*_RATE_FIELDS, "m")} | _KEYS.keys()
    sections = {section for section, _ in known}
    unknown = [f"[{section}]" for section in parser.sections() if section not in sections]
    unknown += [f"[{section}] {key}" for section in parser.sections() if section in sections
                for key in parser.options(section) if (section, key) not in known]
    if unknown:
        raise ValidationError(f"unknown config entries: {', '.join(unknown)}")

    rates = ProcessRates(**{
        key: _read(parser, "rates", key, int if key == "m" else float)
        for key in (*_RATE_FIELDS, "m")
        if parser.has_option("rates", key)
    })
    fields = {
        name: _read(parser, section, key, conv)
        for (section, key), (name, conv) in _KEYS.items()
        if parser.has_option(section, key)
    }
    cfg = ExperimentConfig(rates=rates, **fields)
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    # NaN passes every "<= 0" test below, so finiteness comes first
    for (section, key), (name, _) in _KEYS.items():
        value = getattr(cfg, name)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            raise ValidationError(f"[{section}] {key} must be finite, got {value!r}")
    if not (-1.0 - 1e-12 <= cfg.x_min < cfg.x_max <= 1.0 + 1e-12):
        raise ValidationError(f"[grid] needs -1 <= x_min < x_max <= 1, got [{cfg.x_min}, {cfg.x_max}]")
    if cfg.x_points < 2 or cfg.t_points < 1:
        raise ValidationError("[grid] x_points must be >= 2 and t_points >= 1")
    if cfg.t_max <= 0.0:
        raise ValidationError(f"[grid] t_max must be positive, got {cfg.t_max}")
    if cfg.oracle_tol <= 0.0 or cfg.oracle_mass_tol <= 0.0:
        raise ValidationError("tolerances must be positive")
    if cfg.oracle_k_max < cfg.rates.m + 2:
        raise ValidationError(f"[oracle] k_max must be >= m + 2 = {cfg.rates.m + 2}")
    if cfg.mc_seed < 0:
        raise ValidationError(f"[mc] seed must be >= 0, got {cfg.mc_seed}")
    if cfg.fit_norm not in ("sup", "l2"):
        raise ValidationError(f"[analysis] norm must be sup or l2, got {cfg.fit_norm!r}")
    cfg.initial()  # validates the initial condition eagerly
