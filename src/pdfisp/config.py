"""Experiment configuration: physics, discretization, and solver settings.

One :class:`ImagingConfig` fully determines an experiment: the imaging
domain, the antenna ring, the forward discretization, and every solver
hyperparameter. Configs are immutable, checked when built, and round-trip
through JSON so runs can be reproduced from a config file alone. `from_dict`
is the one reader of parsed JSON for every dataclass the package loads.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import types
import typing
from dataclasses import dataclass
from typing import Any

# Free-space speed of light, m/s (exact by SI definition).
C0 = 299792458.0


class ConfigError(ValueError):
    """Raised when a configuration violates a physical or structural invariant."""


@dataclass(frozen=True)
class ImagingConfig:
    """All parameters of one imaging experiment.

    Parameters
    ----------
    frequency : float
        Operating frequency in Hz.
    doi_side : float
        Side length of the square domain of interest, meters.
    m1, m2 : int
        Grid rows / columns discretizing the domain.
    n_tx, n_rx : int
        Transmitter / receiver counts on the measurement ring.
    ring_radius : float or None
        Ring radius in meters; None selects 20 wavelengths.
    beta : float
        Contraction parameter of the modified-contrast mapping; > 0.
    m_f : int
        Retained low-frequency modes per corner-block edge; the spectral
        coefficient length is 4 * m_f**2 per view.
    k_iters : int
        Optimization iterations.
    learn_rate : float
        Adam learning rate.
    lambda1, lambda2, lambda3 : float
        Weights of the bound, total-variation, and bridge penalties.
    rng_seed : int
        Seed controlling all randomness of a run.
    solver_tol : float
        Forward solve stopping rule: relative state-equation residual; > 0.
    use_cco, fine_forward
        Ablation / modeling switches. ``fine_forward`` simulates measurement
        data on a 2x finer grid to avoid committing the inverse crime.
    """

    frequency: float = 400e6
    doi_side: float = 1.5
    m1: int = 64
    m2: int = 64
    n_tx: int = 36
    n_rx: int = 36
    ring_radius: float | None = None
    beta: float = 6.0
    m_f: int = 7
    k_iters: int = 100
    learn_rate: float = 1e-2
    lambda1: float = 1e-3
    lambda2: float = 1e-5
    lambda3: float = 1e-5
    rng_seed: int = 0
    solver_tol: float = 1e-8
    use_cco: bool = True
    fine_forward: bool = False

    # ------------------------------------------------------------------
    @property
    def wavelength(self) -> float:
        return C0 / self.frequency

    @property
    def wavenumber(self) -> float:
        """Free-space wavenumber k0 = 2*pi*f/c0, rad/m."""
        return 2.0 * math.pi * self.frequency / C0

    @property
    def radius(self) -> float:
        """Measurement ring radius; defaults to 20 wavelengths."""
        if self.ring_radius is not None:
            return self.ring_radius
        return 20.0 * self.wavelength

    def __post_init__(self):
        self.validate()

    def validate(self) -> "ImagingConfig":
        """Check invariants; return self on success, raise ConfigError otherwise."""
        for f in dataclasses.fields(self):      # no inf or NaN; ring_radius may be None
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"ImagingConfig.{f.name} must be finite, got {value!r}")
        for name in ("frequency", "doi_side", "beta", "learn_rate", "solver_tol"):
            value = getattr(self, name)
            if not value > 0:
                raise ConfigError(f"ImagingConfig.{name} must be > 0, got {value!r}")
        lows = {"lambda1": 0, "lambda2": 0, "lambda3": 0, "k_iters": 0, "m1": 1, "m2": 1,
                "n_tx": 1, "n_rx": 1}
        for name, low in lows.items():
            value = getattr(self, name)
            if not value >= low:
                raise ConfigError(f"ImagingConfig.{name} must be >= {low}, got {value!r}")
        if self.m_f < 1 or 2 * self.m_f > min(self.m1, self.m2):
            raise ConfigError(f"ImagingConfig.m_f must satisfy 1 <= m_f and 2*m_f <= min(m1, m2)"
                              f" = {min(self.m1, self.m2)}, got {self.m_f!r}")
        # antennas must sit strictly outside the domain
        if not self.radius > self.doi_side * (2.0 ** 0.5) / 2.0:
            raise ConfigError(f"ImagingConfig.ring_radius must exceed doi_side*sqrt(2)/2, "
                              f"got {self.radius!r}")
        return self


# every field holds one scalar, so `--set` and study axes may override any of them
SCALAR_FIELDS = frozenset(f.name for f in dataclasses.fields(ImagingConfig))


# ----------------------------------------------------------------------
# JSON round trip


def from_dict(cls, d: Any, error: type[Exception] = ConfigError):
    """Build dataclass `cls` from parsed JSON, field by field along its annotations.

    Unknown keys, missing required keys and values of the wrong type raise
    `error` naming ``Class.field`` and the value. A float field takes an int
    unchanged, no number takes a bool, a complex field takes a number or
    [re, im], a tuple field an array and a nested dataclass an object.
    """
    if not isinstance(d, dict):
        raise error(f"{cls.__name__}: expected an object, got {d!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise error(f"unknown {cls.__name__} keys: {unknown}")
    for name, f in fields.items():
        if name not in d and f.default is f.default_factory is dataclasses.MISSING:
            raise error(f"{cls.__name__}.{name} is missing")
    hints = typing.get_type_hints(cls)
    return cls(**{k: _read(hints[k], v, f"{cls.__name__}.{k}", error) for k, v in d.items()})


def _read(tp, v, where: str, error):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if v is None and type(None) in args:
            return None
        (tp,) = (a for a in args if a is not type(None))
        return _read(tp, v, where, error)
    if dataclasses.is_dataclass(tp) and isinstance(v, dict):
        return from_dict(tp, v, error)
    if origin is tuple:
        if isinstance(v, (list, tuple)):
            items = args[:1] * len(v) if args[-1] is Ellipsis else args
            if len(items) == len(v):
                return tuple(_read(a, x, f"{where}[{i}]", error)
                             for i, (a, x) in enumerate(zip(items, v)))
    elif origin is dict:
        if isinstance(v, dict):
            return {k: _read(args[1], x, f"{where}[{k!r}]", error) for k, x in v.items()}
    elif tp is complex and isinstance(v, list) and len(v) == 2:
        return complex(*(_read(float, x, where, error) for x in v))
    elif not isinstance(v, bool) or tp is bool:
        kinds = {float: (int, float), complex: (int, float, complex)}.get(tp, tp)
        if isinstance(v, kinds):
            return complex(v) if tp is complex else v
    raise error(f"{where}: expected {tp.__name__ if origin is None else tp}, got {v!r}")


def config_to_dict(config: ImagingConfig) -> dict[str, Any]:
    return dataclasses.asdict(config)


def config_from_dict(d: dict[str, Any]) -> ImagingConfig:
    return from_dict(ImagingConfig, d)


def read_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_config(path, config: ImagingConfig) -> None:
    write_json(path, config_to_dict(config))


def load_config(path) -> ImagingConfig:
    return config_from_dict(read_json(path))


def json_digest(payload: Any) -> str:
    """sha256 hex digest of a payload's sorted-key JSON (repr for what JSON lacks)."""
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def config_hash(config: ImagingConfig) -> str:
    """Stable hex digest of a config, for file headers and study cell keys."""
    return json_digest(config_to_dict(config))[:16]
