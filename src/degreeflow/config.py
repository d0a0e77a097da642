"""INI experiment configuration: parsing, validation, canonical hashing.

One config file drives every CLI subcommand.  All values have defaults
except the process rates, so a minimal file is just a [rates] section; an
unknown section or key is invalid input.  A file is valid only when every
object it describes can be built: the initial condition, the simulator's
set-up and the explicit stationary constants.  So every subcommand refuses
what any one of them refuses, and the subcommands check none of it again.
The canonical hash covers the fully resolved configuration (after defaults
and command-line overrides), and is echoed into every output file so that
a result can always be traced to the exact inputs that produced it.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .degree_ode import _TOL_FLOOR
from .errors import ValidationError
from .graphsim import SimConfig
from .initial import InitialCondition
from .model import _RATE_FIELDS, ProcessRates
from .steady import explicit_constants

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
        """Build (and validate) the initial generating function.

        Each kind refuses the [initial] keys it does not read: polynomial
        reads coeffs, geometric rho, and explicit coeffs and a tail rho
        with its a.  A key at its default value (no coeffs, rho = 0, no a)
        counts as absent.
        """
        kind = self.initial_kind
        if kind not in _INITIAL_KEYS:
            raise ValidationError(f"[initial] unknown kind {kind!r}; kind is polynomial, geometric or explicit")
        given = {"coeffs": self.initial_coeffs != (), "rho": self.initial_rho != 0.0, "a": self.initial_a is not None}
        unread = [f"[initial] {key}" for key, on in given.items() if on and key not in _INITIAL_KEYS[kind]]
        if unread:
            raise ValidationError(f"{', '.join(unread)} not read for kind = {kind}")
        if kind == "polynomial":
            if not self.initial_coeffs:
                raise ValidationError("[initial] coeffs required for kind = polynomial")
            return InitialCondition.polynomial(self.initial_coeffs)
        if kind == "geometric":
            return InitialCondition.geometric(self.initial_rho)
        if given["rho"] != given["a"]:
            raise ValidationError("[initial] a required when a tail rho is given" if given["rho"]
                                  else "[initial] a is read only with a tail rho")
        tail = (self.initial_a, self.initial_rho) if given["rho"] else None
        return InitialCondition.explicit(self.initial_coeffs, tail)

    def simulation(self) -> SimConfig:
        """Build (and validate) the simulator's set-up from [rates] and [mc].

        t = 0 comes first among the sample times, added when [mc]
        sample_times lacks it: ``mc`` starts its reference from the
        ensemble's t = 0 histogram, and a t = 0 snapshot draws no random
        numbers.  SimConfig's messages come prefixed with [mc] and name its
        fields, such as n_nodes for the key nodes.
        """
        times = self.mc_sample_times
        if not times:
            raise ValidationError("[mc] sample_times must not be empty")
        try:
            return SimConfig(rates=self.rates, n_nodes=self.mc_nodes, seed=self.mc_seed, replicas=self.mc_replicas,
                             graph=self.mc_graph, graph_degree=self.mc_graph_degree, k_max=self.mc_k_max,
                             sample_times=times if times[0] == 0.0 else (0.0, *times))
        except ValidationError as exc:
            raise ValidationError(f"[mc] {exc}") from exc

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
    if not m.is_integer():  # int(m) would truncate it; explicit_constants checks its sign
        raise ValidationError(f"constants m must be an integer, got {m!r}")
    return (c1, c2, c3, c4, int(m))


# the [initial] keys that each kind reads
_INITIAL_KEYS = {"polynomial": ("coeffs",), "geometric": ("rho",), "explicit": ("coeffs", "rho", "a")}

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
    if cfg.oracle_tol < _TOL_FLOOR:  # integrate refuses it: scipy would quietly raise it to the floor
        raise ValidationError(f"[oracle] tol must be at least 100 eps = {_TOL_FLOOR:.3g}, got {cfg.oracle_tol!r}")
    if cfg.oracle_mass_tol <= 0.0:
        raise ValidationError(f"[oracle] mass_tol must be positive, got {cfg.oracle_mass_tol!r}")
    if cfg.oracle_k_max < cfg.rates.m + 2:
        raise ValidationError(f"[oracle] k_max must be >= m + 2 = {cfg.rates.m + 2}")
    if cfg.bend_jump <= 0.0:
        raise ValidationError(f"[analysis] bend_jump must be positive, got {cfg.bend_jump!r}")
    if cfg.fit_norm not in ("sup", "l2"):
        raise ValidationError(f"[analysis] norm must be sup or l2, got {cfg.fit_norm!r}")
    # a config is valid only if every object it describes can be built
    cfg.initial()
    cfg.simulation()
    if cfg.steady_constants is not None:
        explicit_constants(*cfg.steady_constants)
