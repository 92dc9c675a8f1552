"""Experiment configuration: physics, discretization, and solver settings.

One :class:`ImagingConfig` fully determines an experiment: the imaging
domain, the antenna ring, the forward discretization, and every solver
hyperparameter. Configs are immutable, validated on demand, and round-trip
through JSON so runs can be reproduced from a config file alone.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

# Free-space speed of light, m/s (exact by SI definition).
C0 = 299792458.0


class ConfigError(ValueError):
    """Raised when a configuration violates a physical or structural invariant."""


@dataclass(frozen=True)
class CcoParams:
    """Contrast-compensation settings applied after the optimization loop.

    tau, eta_max, delta shape the per-pixel gain eta = eta_max * sigmoid((|chi| - tau)/delta);
    gf_radius (pixels) and gf_eps control the self-guided filter.
    """

    tau: float = 3.0
    eta_max: float = 0.1
    delta: float = 0.5
    gf_radius: int = 2
    gf_eps: float = 1e-3


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
    cco : CcoParams
        Post-loop contrast compensation settings.
    tau_b : float
        Amplitude threshold of the bridge penalty; > 0.
    rng_seed : int
        Seed controlling all randomness of a run.
    solver_tol, solver_maxiter
        Forward solve stopping rule above 1024 cells: relative state-equation
        residual (> 0), and the cap on GMRES iterations per view (>= 1).
        Smaller grids are LU-solved.
    use_cco, freeze_r, fine_forward
        Ablation / modeling switches. ``freeze_r`` keeps the modified
        contrast fixed at its initial estimate during optimization instead
        of re-deriving it from the current coefficients. ``fine_forward``
        simulates measurement data on a 2x finer grid to avoid committing
        the inverse crime.
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
    cco: CcoParams = field(default_factory=CcoParams)
    tau_b: float = 0.5
    rng_seed: int = 0
    solver_tol: float = 1e-8
    solver_maxiter: int = 2000
    use_cco: bool = True
    freeze_r: bool = False
    fine_forward: bool = False

    # ------------------------------------------------------------------
    @property
    def wavelength(self) -> float:
        return C0 / self.frequency

    @property
    def wavenumber(self) -> float:
        """Free-space wavenumber k0 = 2*pi*f/c0, rad/m."""
        import math

        return 2.0 * math.pi * self.frequency / C0

    @property
    def radius(self) -> float:
        """Measurement ring radius; defaults to 20 wavelengths."""
        if self.ring_radius is not None:
            return self.ring_radius
        return 20.0 * self.wavelength

    @property
    def cell_size(self) -> float:
        return self.doi_side / self.m1

    @property
    def m0(self) -> int:
        """Spectral coefficient count per view."""
        return 4 * self.m_f * self.m_f

    def validate(self) -> "ImagingConfig":
        """Check invariants; return self on success, raise ConfigError otherwise."""
        if self.frequency <= 0:
            raise ConfigError("frequency must be positive")
        if self.doi_side <= 0:
            raise ConfigError("doi_side must be positive")
        if self.m1 < 1 or self.m2 < 1:
            raise ConfigError("grid counts must be >= 1")
        if self.n_tx < 1 or self.n_rx < 1:
            raise ConfigError("antenna counts must be >= 1")
        if self.beta <= 0:
            raise ConfigError("beta must be > 0")
        if self.m_f < 1 or 2 * self.m_f > min(self.m1, self.m2):
            raise ConfigError("m_f must satisfy 1 <= m_f and 2*m_f <= min(m1, m2)")
        if min(self.lambda1, self.lambda2, self.lambda3) < 0:
            raise ConfigError("loss weights must be >= 0")
        if self.k_iters < 0:
            raise ConfigError("k_iters must be >= 0")
        if self.learn_rate <= 0:
            raise ConfigError("learn_rate must be positive")
        if self.tau_b <= 0:
            raise ConfigError("tau_b must be positive")
        if self.solver_tol <= 0:
            raise ConfigError("solver_tol must be positive")
        if self.solver_maxiter < 1:
            raise ConfigError("solver_maxiter must be >= 1")
        if self.cco.gf_radius < 1:
            raise ConfigError("cco.gf_radius must be >= 1")
        # antennas must sit strictly outside the domain
        if self.radius <= self.doi_side * (2.0 ** 0.5) / 2.0:
            raise ConfigError("ring_radius must exceed doi_side*sqrt(2)/2")
        return self


# ----------------------------------------------------------------------
# JSON round trip


def config_to_dict(config: ImagingConfig) -> dict[str, Any]:
    d = dataclasses.asdict(config)
    return d


def config_from_dict(d: dict[str, Any]) -> ImagingConfig:
    d = dict(d)
    cco = d.pop("cco", None)
    kwargs: dict[str, Any] = {}
    names = {f.name for f in dataclasses.fields(ImagingConfig)}
    unknown = set(d) - names
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs.update(d)
    if cco is not None:
        kwargs["cco"] = CcoParams(**cco)
    return ImagingConfig(**kwargs).validate()


def save_config(path, config: ImagingConfig) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> ImagingConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_dict(json.load(fh))


def config_hash(config: ImagingConfig) -> str:
    """Stable hex digest of a config, for file headers and study cell keys."""
    blob = json.dumps(config_to_dict(config), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
